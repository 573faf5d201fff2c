import math

import numpy as np
import pytest

from ouchaos import evolution, presets
from ouchaos.cli import _model_from
from ouchaos.errors import ConfigInvalid, HypothesisFailed
from ouchaos.evolution import (EvolutionFamily, NoiseFamily, OUModel,
                               bignamini_check, hyper_threshold,
                               pst_contraction)
from ouchaos.numerics import panel_integrate
from ouchaos.presets import (build_preset, diag_arctan_preset, heat1d_preset,
                             malliavin_preset)


def const_fn(v):
    return lambda t, v=float(v): np.full_like(np.asarray(t, dtype=float), v)


def default_malliavin(d=2, rate=-1.0, consts=None):
    consts = [1.0] * d if consts is None else consts
    return malliavin_preset(
        const_fn(rate), [const_fn(v) for v in consts], d,
        a_integral=lambda s, t: rate * (t - np.asarray(s, dtype=float)),
        a_sup=rate, noise_sups=consts)


class TestArctan:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            diag_arctan_preset(0.0, 2.0, 3)
        with pytest.raises(ValueError):
            diag_arctan_preset(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            diag_arctan_preset(1.0, 2.0, 0)

    def test_mode_decay_values(self):
        model = diag_arctan_preset(1.0, 2.0, 3)
        assert model.mode_decay == pytest.approx([-1.0, -4.0, -9.0])
        assert model.lambda0 == -1.0

    def test_rate_at_origin_attains_sup(self):
        model = diag_arctan_preset(0.7, 2.0, 2)
        vals = [float(r(0.0)) for r in model.family.rates]
        assert vals == pytest.approx([-0.7, -2.8])

    def test_noise_zeroed_on_null_set(self):
        model = diag_arctan_preset(1.0, 2.0, 2)
        b = model.noise.diag_values
        assert np.all(b(0.0) == 0.0)
        assert np.all(b(-math.pi) == 0.0)
        assert np.all(b(-2.0 * math.pi) == 0.0)
        assert b(math.pi) == pytest.approx(
            [math.sin(math.pi) + 2.0, math.sin(2.0 * math.pi) + 2.0])
        assert b(0.1) == pytest.approx(
            [math.sin(0.1) + 2.0, math.sin(0.2) + 2.0])

    def test_closed_form_rate_integral_matches_quadrature(self):
        model = diag_arctan_preset(1.0, 2.0, 3)
        closed = model.family.rate_integral(0.0, 1.0)
        for k, rate in enumerate(model.family.rates):
            num = panel_integrate(rate, 0.0, 1.0, order=10, max_refine=16,
                                  rtol=1e-13)
            assert closed[k] == pytest.approx(float(num), abs=1e-10)

    def test_trace_within_certificate_of_reference(self):
        model = diag_arctan_preset(1.0, 2.0, 3)
        q, cert = model.q_t_inf(0.0, tol=1e-6)
        ref_model = diag_arctan_preset(1.0, 2.0, 3)
        q_ref, _ = ref_model.q_t_inf(0.0, tol=1e-8)
        trace = float(np.trace(q))
        assert math.isfinite(trace) and trace > 0.0
        assert abs(trace - float(np.trace(q_ref))) <= cert + 1e-12

    def test_trace_condition_partial_sums(self):
        c1, c2 = 1.0, 2.0
        # sum (1+c2)^2 / (k^2 c1) converges; partial sums stay under the
        # zeta(2) closed form
        full = (1.0 + c2) ** 2 / c1 * math.pi ** 2 / 6.0
        partial = sum((1.0 + c2) ** 2 / (k ** 2 * c1) for k in range(1, 50))
        assert partial < full

    def test_contraction_and_hilbert_schmidt_profile(self):
        model = diag_arctan_preset(1.0, 2.0, 6)
        ell = pst_contraction(model, -0.5, 1.0)
        sv = ell.singular_values
        assert np.all(sv < 1.0)
        assert np.all(np.diff(sv) <= 1e-12)
        assert np.isfinite(np.sum(1.0 / (1.0 - sv ** 2)))

    def test_contraction_across_random_pairs(self):
        model = diag_arctan_preset(1.0, 2.0, 3)
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = rng.uniform(-4.0, 2.0)
            t = s + rng.uniform(0.05, 3.0)
            assert pst_contraction(model, s, t).op_norm <= 1.0 + 1e-10

    def test_exponential_envelope_constant(self):
        model = diag_arctan_preset(1.0, 2.0, 3)
        for (s, t) in [(0.0, 0.5), (-2.0, 1.0), (1.0, 6.0)]:
            report = bignamini_check(model, s, t, model.envelope, 1.0, 0.0)
            assert report["envelope_margin"] >= 0.0

    def test_family_vanishes_into_the_past(self):
        model = diag_arctan_preset(1.0, 2.0, 3)
        assert np.abs(model.u(0.0, -40.0)).max() < 1e-30
        lhs = model.u(1.0, 0.2) @ model.u(0.2, -1.0)
        assert lhs == pytest.approx(model.u(1.0, -1.0), abs=1e-12)


class TestMalliavin:
    def test_constant_model_cm_norm(self):
        model = default_malliavin()
        for gap in (0.25, 1.0, 3.0):
            ell = pst_contraction(model, 0.0, gap)
            assert ell.op_norm == pytest.approx(math.exp(-gap), abs=1e-9)

    def test_zero_gap_is_identity(self):
        model = default_malliavin()
        ell = pst_contraction(model, 1.5, 1.5)
        assert ell.matrix == pytest.approx(np.eye(2), abs=1e-9)
        assert ell.op_norm == pytest.approx(1.0, abs=1e-9)

    def test_bound_on_grid(self):
        a = lambda t: -1.0 + 0.4 * np.sin(np.asarray(t, dtype=float))
        model = malliavin_preset(a, [const_fn(1.0)] * 2, 2, monotone_const=1.0)
        assert model.lambda0 == pytest.approx(-0.6, abs=1e-3)
        for (s, t) in [(0.0, 0.5), (-1.0, 1.0)]:
            norm = pst_contraction(model, s, t).op_norm
            assert norm <= min(1.0, math.exp(model.lambda0 * (t - s))) + 1e-8

    def test_rejects_nonnegative_sup(self):
        with pytest.raises(HypothesisFailed):
            malliavin_preset(const_fn(0.5), [const_fn(1.0)], 1)

    def test_rejects_decaying_noise_with_unit_constant(self):
        falling = lambda t: np.exp(-np.asarray(t, dtype=float))
        with pytest.raises(HypothesisFailed):
            malliavin_preset(const_fn(-1.0), [falling], 1, monotone_const=1.0)

    def test_growing_noise_passes_with_unit_constant(self):
        rising = lambda t: 1.0 + np.exp(np.asarray(t, dtype=float) / 8.0)
        model = malliavin_preset(const_fn(-1.0), [rising], 1,
                                 monotone_const=1.0)
        assert model.dim == 1

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            malliavin_preset(const_fn(-1.0), [const_fn(1.0)], 2)

    def test_adaptive_integral_is_shared_by_the_modes(self):
        # without a_integral, int_s^t a is computed once and broadcast
        calls = []
        base = lambda t: -1.0 + 0.4 * np.sin(np.asarray(t, dtype=float))

        def counted(t):
            calls.append(1)
            return base(t)

        s = np.array([0.0, 0.5])
        per_dim = {}
        for d in (1, 3):
            model = malliavin_preset(counted, [const_fn(1.0)] * d, d,
                                     a_sup=-0.6, noise_sups=[1.0] * d,
                                     check_grid=())
            calls.clear()
            got = model.family.rate_integral(s, 1.0)
            per_dim[d] = len(calls)
            assert got.shape == (2, d)
            assert np.all(got == got[:, :1])
        assert per_dim[3] == per_dim[1] > 0


class TestHeat1d:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            heat1d_preset(1.0, 4)
        with pytest.raises(ValueError):
            heat1d_preset(-0.1, 4)

    def test_stationary_modes_at_zero_smoothing(self):
        model = heat1d_preset(0.0, 4)
        q, cert = model.q_t_inf(0.0, tol=1e-10)
        expected = [1.0 / (2.0 * k ** 2) for k in (1, 2, 3, 4)]
        assert np.diag(q) == pytest.approx(expected, abs=1e-9)
        assert cert < 1e-10

    def test_trace_series(self):
        gamma_exp = 0.25
        model = heat1d_preset(gamma_exp, 6)
        q, _ = model.q_t_inf(2.0, tol=1e-10)
        series = sum(1.0 / (2.0 * k ** (2.0 + 4.0 * gamma_exp))
                     for k in range(1, 7))
        assert float(np.trace(q)) == pytest.approx(series, abs=1e-9)

    def test_hyper_threshold_finite_and_above_p(self):
        model = heat1d_preset(0.0, 3)
        for p in (2.0, 4.0):
            for gap in (0.1, 1.0, 5.0):
                q0 = hyper_threshold(model, 0.0, gap, p)
                assert math.isfinite(q0)
                assert q0 > p
                assert q0 == pytest.approx(
                    1.0 + (p - 1.0) * math.exp(2.0 * gap), rel=1e-6)

    def test_measure_time_invariant(self):
        model = heat1d_preset(0.5, 3)
        g1 = model.measure_at(0.0)
        g2 = model.measure_at(9.0)
        assert g1.eigenvalues == pytest.approx(g2.eigenvalues, abs=1e-10)


class TestBuildPreset:
    def test_dispatch(self):
        m = build_preset("diag_arctan", {"c1": 1.0, "c2": 2.0, "dim": 2})
        assert m.dim == 2
        m = build_preset("heat1d", {"gamma_exp": 0.0, "dim": 3})
        assert m.mode_decay == pytest.approx([-1.0, -4.0, -9.0])
        m = build_preset("malliavin_const",
                         {"rate_const": -2.0, "noise_consts": [1.0], "dim": 1})
        assert pst_contraction(m, 0.0, 1.0).op_norm == pytest.approx(
            math.exp(-2.0), abs=1e-9)

    def test_unknown_name(self):
        with pytest.raises(ConfigInvalid):
            build_preset("spectral_disco", {})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigInvalid):
            build_preset("heat1d", {"gamma_exp": 0.0, "dim": 3, "tilt": 1})


class TestConstantModels:
    """heat1d, malliavin_const and the CLI's inline model share one
    constructor with a closed-form covariance."""

    @pytest.mark.parametrize("model, decay, sups", [
        (build_preset("heat1d", {"gamma_exp": 0.25, "dim": 3}),
         [-1.0, -4.0, -9.0], [1.0, 2.0 ** -0.5, 3.0 ** -0.5]),
        (build_preset("malliavin_const",
                      {"rate_const": -0.7, "noise_consts": [0.5, 1.5]}),
         [-0.7, -0.7], [0.5, 1.5]),
        (_model_from({"model": {"inline": {"rates": [-1.0, -2.0],
                                           "noise_consts": [2.0, 1.0]}}}),
         [-1.0, -2.0], [2.0, 1.0]),
    ], ids=["heat1d", "malliavin_const", "inline"])
    def test_decay_data_of_the_shared_constructor(self, model, decay, sups):
        assert model.family.constants == pytest.approx(decay, rel=1e-15)
        assert model.noise.constants == pytest.approx(sups, rel=1e-15)
        assert model.mode_decay == pytest.approx(decay, rel=1e-15)
        assert model.mode_noise_sup == pytest.approx(sups, rel=1e-15)
        assert model.noise.bound == max(sups)
        assert model.envelope == 1.0
        assert model.lambda0 == max(decay)

    def test_malliavin_const_matches_the_generic_preset(self):
        consts = [0.5, 1.5]
        fast = build_preset("malliavin_const",
                            {"rate_const": -0.7, "noise_consts": consts})
        slow = default_malliavin(2, -0.7, consts)
        for attr in ("mode_decay", "mode_noise_sup", "lambda0"):
            assert getattr(fast, attr) == pytest.approx(getattr(slow, attr),
                                                        rel=1e-15)
        assert (fast.noise.bound, fast.envelope) == (slow.noise.bound,
                                                      slow.envelope)
        assert fast.q_t_inf(0.3)[0] == pytest.approx(slow.q_t_inf(0.3)[0],
                                                     abs=1e-12)

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_malliavin_const_rejects_a_nonnegative_rate(self, rate):
        with pytest.raises(HypothesisFailed, match="not negative"):
            build_preset("malliavin_const", {"rate_const": rate, "dim": 2})

    @pytest.mark.parametrize("rate, consts", [(-1.0, [1.0, 1.0]),
                                              (-0.7, [0.5, 1.5, 0.0])])
    def test_malliavin_const_meets_the_spot_check_bound(self, monkeypatch,
                                                        rate, consts):
        # the build skips the spot checks of malliavin_preset, whose bounds
        # hold by construction; they are asserted here on the built model
        calls = []
        monkeypatch.setattr(presets, "pst_contraction",
                            lambda *args: calls.append(args))
        model = build_preset("malliavin_const",
                             {"rate_const": rate, "noise_consts": consts})
        assert not calls
        for (s, t) in [(-1.0, -0.75), (-1.0, 0.0), (-1.0, 2.0),
                       (0.0, 0.5), (0.0, 3.0)]:
            earlier = np.abs(model.noise.diag_values(
                presets._PROBE[presets._PROBE < t]))
            b_t = np.abs(model.noise.diag_values(t))
            assert np.all(earlier.max(axis=0) <= b_t * (1.0 + 1e-8))
            norm = pst_contraction(model, s, t).op_norm
            assert norm <= min(1.0, math.exp(rate * (t - s))) * (1.0 + 1e-8)


def _rebuilt(new, family, noise):
    return OUModel(family, noise, mode_decay=new.mode_decay,
                   mode_noise_sup=new.mode_noise_sup, envelope=new.envelope,
                   kinks=new.kinks)


def arctan_pair():
    c1, c2, d = 0.9, 1.8, 3
    new = diag_arctan_preset(c1, c2, d)
    ks = range(1, d + 1)
    integrals = [(lambda s, t, k=float(k):
                  -k ** 2 * (presets._arctan_primitive(t)
                             - presets._arctan_primitive(s)
                             + c1 * (t - np.asarray(s, dtype=float))))
                 for k in ks]

    def noise(t, k):
        t = np.asarray(t, dtype=float)
        vals = np.sin(k * t) + c2
        m = np.round(-t / np.pi)
        return np.where((m >= 0) & (t == -m * np.pi), 0.0, vals)

    return new, _rebuilt(
        new, EvolutionFamily.diagonal(new.family.rates, integrals),
        NoiseFamily.diagonal([lambda t, k=k: noise(t, k) for k in ks],
                             bound=1.0 + c2))


def constant_pair():
    new = heat1d_preset(0.25, 3)
    lams, vals = new.family.constants, new.noise.constants
    family = EvolutionFamily.diagonal(
        [(lambda t, lam=lam: lam + 0.0 * np.asarray(t)) for lam in lams],
        [(lambda s, t, lam=lam: lam * (t - np.asarray(s, dtype=float)))
         for lam in lams])
    noise = NoiseFamily.diagonal(
        [(lambda t, v=v: np.full_like(np.asarray(t, dtype=float), v))
         for v in vals], bound=float(np.abs(vals).max()))
    family.constants, noise.constants = lams, vals
    return new, _rebuilt(new, family, noise)


def malliavin_pair():
    def a(t):
        return -1.2 + 0.3 * np.cos(np.asarray(t, dtype=float))

    def a_integral(s, t):
        s = np.asarray(s, dtype=float)
        return -1.2 * (t - s) + 0.3 * (np.sin(t) - np.sin(s))

    # nondecreasing noise meets the monotonicity premise with C = 1
    b_modes = [(lambda t, k=k: 1.5 + 0.5 * np.tanh(np.asarray(t, dtype=float)) / k)
               for k in (1, 2)]
    new = malliavin_preset(a, b_modes, 2, a_integral=a_integral, a_sup=-0.9)
    return new, _rebuilt(
        new, EvolutionFamily.diagonal([a] * 2, [a_integral] * 2),
        NoiseFamily.diagonal(b_modes, bound=new.noise.bound))


@pytest.mark.parametrize("pair", [arctan_pair, constant_pair, malliavin_pair],
                         ids=["diag_arctan", "constant", "malliavin"])
def test_vector_families_equal_per_mode_lists(pair):
    # the vector callables against the per-mode lambda lists they replace
    new, old = pair()
    times = np.array([0.0, -math.pi, -2.0 * math.pi, 0.4, 0.9, -0.7, 0.3])
    for t in times:
        for args in ((t,), (times,)):
            assert np.array_equal(new.noise.diag_values(*args),
                                  old.noise.diag_values(*args))
        for s in (t - 0.5, times):
            assert np.array_equal(new.family.rate_integral(s, t),
                                  old.family.rate_integral(s, t))
    for (s, t) in [(0.0, 0.4), (0.0, 0.9), (-0.7, 0.3)]:
        assert np.array_equal(new.q_ts(s, t), old.q_ts(s, t))
        for r in (s, t):
            assert np.array_equal(new.q_t_inf(r)[0], old.q_t_inf(r)[0])
        assert np.array_equal(pst_contraction(new, s, t).matrix,
                              pst_contraction(old, s, t).matrix)


def test_arctan_sweep_evaluates_all_modes_in_one_call(monkeypatch):
    # without its kink at 0 the sweep needs several levels to bisect it
    preset = diag_arctan_preset(1.0, 2.0, 3)
    model = OUModel(preset.family, preset.noise, mode_decay=preset.mode_decay,
                    mode_noise_sup=preset.mode_noise_sup,
                    envelope=preset.envelope)
    counts = {"levels": 0, "primitive": 0, "noise": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    real_panel = evolution.panel_integrate
    monkeypatch.setattr(evolution, "panel_integrate", lambda f, *args, **kw:
                        real_panel(counted("levels", f), *args, **kw))
    monkeypatch.setattr(presets, "_arctan_primitive",
                        counted("primitive", presets._arctan_primitive))
    monkeypatch.setattr(presets, "_oscillating_noise",
                        counted("noise", presets._oscillating_noise))
    model.q_ts(0.4 - 16.0, 0.4)
    assert counts["levels"] > 1
    assert counts["primitive"] == 2 * counts["levels"]
    assert counts["noise"] == counts["levels"]
