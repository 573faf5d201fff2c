import math
import time

import numpy as np
import pytest

from ouchaos import numerics
from ouchaos.chaos import enumerate_up_to
from ouchaos.cli import _model_from
from ouchaos.errors import (HypothesisFailed, NoDecay, NotContraction,
                            SchemeTooCoarse, SizeTooLarge)
from ouchaos.evolution import (EvolutionFamily, NoiseFamily, OUModel,
                               bignamini_check, decay_ratio, hyper_threshold,
                               mean_functional, pst_apply, pst_contraction,
                               pst_via_second_quant)
from ouchaos.gaussian import range_ratio_norm, white_noise
from ouchaos.numerics import QuadScheme, panel_integrate, psd_sqrt
from ouchaos.presets import build_preset
from ouchaos.secondquant import (CMContraction, gamma_integral_apply,
                                 lq_norm_gamma, mehler_factors, x_extension)


def constant_model(lams):
    lams = np.asarray(lams, dtype=float)
    family = EvolutionFamily.diagonal_constant(lams)
    noise = NoiseFamily.diagonal(
        [lambda t: np.ones_like(np.asarray(t, dtype=float))] * len(lams),
        bound=1.0)
    return OUModel(family, noise, mode_decay=lams,
                   mode_noise_sup=np.ones(len(lams)))


def wavy_model():
    # a_k(t) = base_k - 0.1 sin t, b_k(t) = 1 + 0.3 cos(k t)
    base = np.array([-1.0, -2.0])
    rates = [(lambda t, b=b: b - 0.1 * np.sin(np.asarray(t, dtype=float)))
             for b in base]
    integrals = [(lambda s, t, b=b: b * (t - np.asarray(s, dtype=float))
                  + 0.1 * (math.cos(t) - np.cos(np.asarray(s, dtype=float))))
                 for b in base]
    family = EvolutionFamily.diagonal(rates, integrals)
    noise = NoiseFamily.diagonal(
        [(lambda t, k=k: 1.0 + 0.3 * np.cos(k * np.asarray(t, dtype=float)))
         for k in (1, 2)], bound=1.3)
    return OUModel(family, noise, mode_decay=base + 0.1,
                   mode_noise_sup=np.array([1.3, 1.3]))


def test_family_identity_at_equal_times():
    model = wavy_model()
    assert np.array_equal(model.u(1.3, 1.3), np.eye(2))


def test_cocycle_of_evolution_family():
    model = wavy_model()
    for (s, r, t) in [(-1.0, 0.2, 1.5), (0.0, 1.0, 4.0), (-3.0, -2.0, -0.5)]:
        lhs = model.u(t, r) @ model.u(r, s)
        assert lhs == pytest.approx(model.u(t, s), abs=1e-10)


def test_q_ts_zero_interval_and_ordering():
    model = constant_model([-1.0, -0.5])
    assert np.all(model.q_ts(2.0, 2.0) == 0.0)
    with pytest.raises(ValueError):
        model.q_ts(1.0, 0.0)


def test_q_ts_constant_closed_form():
    lam = -0.7
    model = constant_model([lam, lam])
    s, t = 0.3, 2.1
    expected = (1.0 - math.exp(2.0 * lam * (t - s))) / (2.0 * abs(lam))
    assert model.q_ts(s, t) == pytest.approx(np.diag([expected, expected]),
                                             abs=1e-12)


def test_q_ts_dense_path_matches_diagonal():
    lam = np.array([-1.0, -2.5])
    diag_model = constant_model(lam)
    dense_family = EvolutionFamily(
        lambda t, s: np.diag(np.exp(lam * (t - s))), 2)
    dense_noise = NoiseFamily(lambda t: np.eye(2), 2, bound=1.0)
    dense_model = OUModel(dense_family, dense_noise, lambda0=-1.0, envelope=1.0)
    s, t = -0.5, 1.25
    assert dense_model.q_ts(s, t) == pytest.approx(diag_model.q_ts(s, t),
                                                   abs=1e-10)


def test_q_ts_self_consistency_under_refinement():
    model = wavy_model()
    s, t = 0.0, 1.0
    q = model.q_ts(s, t)

    def integrand(r):
        growth = model.family.rate_integral(r, t)
        return np.exp(2.0 * growth) * model.noise.diag_values(r) ** 2

    finer = panel_integrate(integrand, s, t, order=12, max_refine=18, rtol=1e-13)
    assert np.diag(q) == pytest.approx(finer, abs=1e-10)


CONSTANT_MODELS = {
    "heat1d": lambda: build_preset("heat1d", {"gamma_exp": 0.25, "dim": 5}),
    "malliavin_const": lambda: build_preset(
        "malliavin_const", {"rate_const": -0.8, "noise_consts": [1.0, 0.6, 1.4]}),
    "inline": lambda: _model_from({"model": {"inline": {
        "rates": [-0.3, -2.0], "noise_consts": [0.5, 2.0]}}}, 0),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_MODELS))
@pytest.mark.parametrize("s, t", [(0.0, 1.0), (-2.5, 0.4), (-16.0, 0.0)])
def test_q_ts_closed_form_matches_quadrature(name, s, t):
    model = CONSTANT_MODELS[name]()
    q = model.q_ts(s, t)

    def integrand(r):
        growth = model.family.rate_integral(r, t)
        return np.exp(2.0 * growth) * model.noise.diag_values(r) ** 2

    finer = panel_integrate(integrand, s, t, order=12, max_refine=18, rtol=1e-13)
    assert np.count_nonzero(q - np.diag(np.diag(q))) == 0
    assert np.diag(q) == pytest.approx(finer, abs=1e-10)


def test_q_ts_closed_form_at_zero_rate():
    model = _model_from({"model": {"inline": {
        "rates": [0.0, -1.0], "noise_consts": [1.5, 1.0]}}}, 0)
    s, t = -0.4, 1.1
    q = np.diag(model.q_ts(s, t))
    assert q[0] == pytest.approx(1.5 ** 2 * (t - s), rel=1e-15)
    assert q[1] == pytest.approx(-math.expm1(-2.0 * (t - s)) / 2.0, rel=1e-15)


def test_q_t_inf_constant_closed_form():
    lam = -1.3
    model = constant_model([lam, lam])
    q, cert = model.q_t_inf(0.0, tol=1e-10)
    assert cert < 1e-10
    assert q == pytest.approx(np.diag([1.0 / (2.0 * abs(lam))] * 2), abs=1e-9)


def test_q_t_inf_tolerance_semantics():
    model = wavy_model()
    loose, cert_loose = model.q_t_inf(0.5, tol=1e-6)
    tight, cert_tight = model.q_t_inf(0.5, tol=1e-10)
    assert cert_loose < 1e-6 and cert_tight < 1e-10
    assert np.abs(loose - tight).max() < 1e-6


def test_q_t_inf_requires_decay():
    family = EvolutionFamily.diagonal_constant([0.5])
    noise = NoiseFamily.diagonal([lambda t: np.ones_like(np.asarray(t))],
                                 bound=1.0)
    model = OUModel(family, noise, mode_decay=[0.5], mode_noise_sup=[1.0])
    with pytest.raises(NoDecay):
        model.q_t_inf(0.0)


def test_measure_at_constant_and_time_shift():
    lam = -2.0
    model = constant_model([lam, lam])
    g = model.measure_at(1.0)
    assert g.eigenvalues == pytest.approx([0.25, 0.25], abs=1e-10)
    g2 = model.measure_at(37.5)
    assert g.eigenvalues == pytest.approx(g2.eigenvalues, abs=1e-10)


def test_measure_at_rejects_mixing_covariance():
    lam = -1.0
    theta = 0.8

    def u_fn(t, s):
        d = t - s
        c, w = math.cos(theta * d), math.sin(theta * d)
        return math.exp(lam * d) * np.array([[c, -w], [w, c]])

    noise = NoiseFamily(lambda t: np.diag([1.0, 2.0]), 2, bound=2.0)
    model = OUModel(EvolutionFamily(u_fn, 2), noise, lambda0=lam, envelope=1.0)
    with pytest.raises(ValueError):
        model.measure_at(0.0)


def test_pst_apply_at_equal_times_and_constants():
    model = constant_model([-1.0, -1.0])
    f = lambda p: np.cos(p[:, 0]) + p[:, 1]
    x = np.array([0.4, -0.2])
    assert pst_apply(model, f, 1.0, 1.0, x) == pytest.approx(
        float(f(x[None, :])[0]), abs=1e-12)
    one = lambda p: np.ones(len(p))
    assert pst_apply(model, one, 0.0, 2.0, x) == pytest.approx(1.0, abs=1e-13)


def test_pst_apply_second_moment():
    lam = -0.6
    model = constant_model([lam])
    s, t, x1 = 0.0, 1.7, 1.3
    val = pst_apply(model, lambda p: p[:, 0] ** 2, s, t, [x1])
    expected = (math.exp(2.0 * lam * (t - s)) * x1 ** 2
                + (1.0 - math.exp(2.0 * lam * (t - s))) / (2.0 * abs(lam)))
    assert val == pytest.approx(expected, abs=1e-12)


def test_pst_chapman_kolmogorov_on_functions():
    model = wavy_model()
    f = lambda p: p[:, 0] ** 3 + p[:, 1] ** 2 - 0.5 * p[:, 0] * p[:, 1]
    s, r, t = 0.0, 0.6, 1.4
    x = np.array([0.8, -0.3])
    scheme = QuadScheme.gauss_hermite(10)
    inner = lambda p: np.array(
        [pst_apply(model, f, r, t, y, scheme) for y in np.atleast_2d(p)])
    staged = pst_apply(model, inner, s, r, x, scheme)
    direct = pst_apply(model, f, s, t, x, scheme)
    assert staged == pytest.approx(direct, abs=1e-9)


BATCH_SCHEMES = [QuadScheme.gauss_hermite(3), QuadScheme.gauss_hermite(12),
                 QuadScheme.monte_carlo(10, seed=4),
                 QuadScheme.monte_carlo(500, seed=4)]


@pytest.mark.parametrize("scheme", BATCH_SCHEMES,
                         ids=["gh3", "gh12", "mc10", "mc500"])
@pytest.mark.parametrize("route", ["pst_apply", "pst_via_second_quant",
                                   "gamma_integral_apply"])
def test_batch_x_matches_per_point_calls(route, scheme):
    # 20 rows against rules of 9 and 10 points, and of 144 and 500, take
    # both loop axes of the shared Gaussian average
    model = wavy_model()
    s, t = 0.2, 0.9
    f = lambda p: np.sin(p[:, 0]) * p[:, 1] ** 2 + p[:, 0]
    if route == "gamma_integral_apply":
        ell = pst_contraction(model, s, t)
        apply = lambda x: gamma_integral_apply(ell, f, x, scheme)
    else:
        op = pst_apply if route == "pst_apply" else pst_via_second_quant
        apply = lambda x: op(model, f, s, t, x, scheme)
    xs = np.random.default_rng(3).standard_normal((20, 2))
    batch = apply(xs)
    assert isinstance(batch, np.ndarray) and batch.shape == (20,)
    single = [apply(x) for x in xs]
    assert all(type(v) is float for v in single)
    single = np.array(single)
    assert np.all(np.abs(batch - single)
                  <= 1e-14 * np.maximum(1.0, np.abs(single)))


def test_batch_monte_carlo_tolerance_applies_to_each_row():
    # f = y_0 has the same spread at every x, so the relative standard
    # error is about 0.018 at x = 0 and 0.018 / 2.43 at x = (4, 0)
    model = constant_model([-1.0, -1.0])
    scheme = QuadScheme.monte_carlo(1_000, seed=1, tolerance=0.012)
    f = lambda p: p[:, 0]
    far, near = np.array([4.0, 0.0]), np.zeros(2)
    assert pst_apply(model, f, 0.0, 0.5, far[None, :], scheme).shape == (1,)
    with pytest.raises(SchemeTooCoarse):
        pst_apply(model, f, 0.0, 0.5, near, scheme)
    with pytest.raises(SchemeTooCoarse):
        pst_apply(model, f, 0.0, 0.5, np.stack([far, far, near]), scheme)


@pytest.mark.parametrize("route", ["pst_apply", "gamma_integral_apply",
                                   "lq_norm_gamma"])
def test_monte_carlo_batches_match_the_whole_rule(route, monkeypatch):
    # 500 draws in Philox batches of 64 give the average over the whole
    # rule of gauss_rule, as when all draws were held at once
    monkeypatch.setattr(numerics, "_MC_BATCH", 64)
    model = wavy_model()
    s, t = 0.2, 0.9
    scheme = QuadScheme.monte_carlo(500, seed=6)
    f = lambda p: np.sin(p[:, 0]) * p[:, 1] ** 2 + p[:, 0]
    ell = pst_contraction(model, s, t)
    a, cols = mehler_factors(ell)
    pts, w = numerics.gauss_rule(scheme, cols)
    xs = np.random.default_rng(3).standard_normal((5, 2))
    if route == "lq_norm_gamma":
        outer = QuadScheme.gauss_hermite(3)
        got = lq_norm_gamma(ell, f, 1.5, outer, inner_scheme=scheme)
        ys, wy = numerics.gauss_rule(outer, ell.nu.sqrt_cols())
        inner = np.array([np.dot(w, f(a @ y + pts)) for y in ys])
        want = np.dot(wy, np.abs(inner) ** 1.5) ** (1.0 / 1.5)
    else:
        if route == "pst_apply":
            got = pst_apply(model, f, s, t, xs, scheme)
            a, cols = model.u(t, s), psd_sqrt(model.q_ts(s, t))
            pts, w = numerics.gauss_rule(scheme, cols)
        else:
            got = gamma_integral_apply(ell, f, xs, scheme)
        want = np.array([np.dot(w, f(a @ x + pts)) for x in xs])
    assert got == pytest.approx(want, rel=1e-12)


def test_isometry_inner_average_loops_over_its_rule():
    # at s = t the noise factor of L keeps one round-off column (3.5e-9),
    # so the inner rule has 12 points against 12^4 outer points: f gets the
    # rule around blocks of 682 means (8 184 points), 31 calls in all
    model = build_preset("heat1d", {"dim": 4})
    calls = []

    def f(p):
        calls.append(len(p))
        return p[:, 0] ** 2 * p[:, 1] - 0.5 * p[:, 3] + 0.2

    lq_norm_gamma(pst_contraction(model, 0.4, 0.4), f, 1.5)
    assert sum(calls) == 12 ** 4 * 12
    assert len(calls) == 31 and max(calls) <= numerics._MC_PIECE


def test_covariance_chapman_kolmogorov():
    model = wavy_model()
    s, r, t = -0.5, 0.4, 1.1
    u_tr = model.u(t, r)
    lhs = model.q_ts(s, t)
    rhs = u_tr @ model.q_ts(s, r) @ u_tr.T + model.q_ts(r, t)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pst_contraction_constant_model():
    lam = -1.0
    model = constant_model([lam, lam])
    s, t = 0.0, 0.9
    c = pst_contraction(model, s, t)
    assert c.mu == model.measure_at(t)
    assert c.nu == model.measure_at(s)
    expected = math.exp(lam * (t - s))
    assert c.matrix == pytest.approx(expected * np.eye(2), abs=1e-9)
    assert c.op_norm == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("noise", [[1.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
def test_pst_contraction_keeps_the_masked_formula_on_a_kernel(noise):
    """V = Q_t^{-1/2} u Q_s^{1/2} with both roots zero over the kernel, bit
    for bit as the masked eigenvalue formula gives it."""
    model = _model_from({"model": {"inline": {"rates": [-1.0, -2.0, -0.5],
                                              "noise_consts": noise}}}, 0)
    s, t = 0.0, 0.7
    g_t, g_s = model.measure_at(t), model.measure_at(s)
    with np.errstate(divide="ignore"):
        inv_rt = np.where(g_t.support, 1.0 / np.sqrt(
            np.where(g_t.support, g_t.eigenvalues, 1.0)), 0.0)
    rt_s = np.where(g_s.support, np.sqrt(g_s.eigenvalues), 0.0)
    v = inv_rt[:, None] * model.u(t, s) * rt_s[None, :]
    assert np.array_equal(pst_contraction(model, s, t).matrix,
                          CMContraction(g_t, g_s, v.T).matrix)
    assert not g_t.support.all()


def test_pst_contraction_norm_below_one_across_pairs():
    model = wavy_model()
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rng.uniform(-3.0, 2.0)
        t = s + rng.uniform(0.05, 2.5)
        assert pst_contraction(model, s, t).op_norm <= 1.0 + 1e-10


def test_duality_identity():
    model = wavy_model()
    s, t = -0.2, 1.0
    ell = pst_contraction(model, s, t)
    qt, _ = model.q_t_inf(t)
    qs, _ = model.q_t_inf(s)
    lhs = x_extension(ell).matrix @ qt
    rhs = qs @ model.u(t, s).T
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_embedding_constant_at_most_one():
    model = wavy_model()
    for (s, t) in [(0.0, 0.5), (-1.0, 1.0), (1.0, 4.0)]:
        q_part = model.q_ts(s, t)
        q_full, _ = model.q_t_inf(t)
        c = range_ratio_norm(psd_sqrt(q_part), psd_sqrt(q_full))
        assert c <= 1.0 + 1e-10


def test_evolution_system_invariance():
    model = wavy_model()
    s, t = 0.1, 1.3
    f = lambda p: p[:, 0] ** 2 + 0.7 * p[:, 1] - p[:, 0] * p[:, 1] ** 2
    scheme = QuadScheme.gauss_hermite(12)
    gamma_s = model.measure_at(s)
    from ouchaos.gaussian import expect
    lhs = expect(gamma_s, lambda p: np.array(
        [pst_apply(model, f, s, t, x, scheme) for x in np.atleast_2d(p)]), scheme)
    rhs = mean_functional(model, f, t, scheme)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_second_quant_route_matches_kernel_route():
    model = wavy_model()
    s, t = 0.0, 0.8
    f = lambda p: p[:, 0] ** 4 - p[:, 0] * p[:, 1] + 2.0
    scheme = QuadScheme.gauss_hermite(14)
    for x in model.measure_at(s).sample(4, seed=6):
        direct = pst_apply(model, f, s, t, x, scheme)
        lifted = pst_via_second_quant(model, f, s, t, x, scheme)
        assert lifted == pytest.approx(direct, abs=1e-8)


def test_second_quant_route_on_linear_functionals():
    model = wavy_model()
    s, t = -0.4, 0.7
    c = np.array([1.5, -0.6])
    f = lambda p: p @ c
    x = np.array([0.3, 0.9])
    expected = float(c @ (model.u(t, s) @ x))
    assert pst_via_second_quant(model, f, s, t, x) == pytest.approx(
        expected, abs=1e-10)
    one = lambda p: np.ones(len(p))
    assert pst_via_second_quant(model, one, s, t, x) == pytest.approx(1.0,
                                                                      abs=1e-12)


def test_hyper_threshold_examples():
    model = constant_model([-1.0, -1.0])
    s = 0.0
    t = math.log(2.0)
    assert hyper_threshold(model, s, t, 2.0) == pytest.approx(5.0, abs=1e-8)
    wavy = wavy_model()
    qs = [hyper_threshold(wavy, 0.0, 0.0 + gap, 2.0) for gap in (0.3, 0.8, 1.5)]
    assert qs[0] < qs[1] < qs[2]


def test_decay_ratio_constant_function_is_zero():
    model = constant_model([-1.0])
    f = lambda p: 3.0 * np.ones(len(p))
    assert decay_ratio(model, f, 2.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_decay_ratio_degree_one_attains_norm():
    model = wavy_model()
    s, t = 0.0, 1.2
    ell = pst_contraction(model, s, t)
    u_sing, _, _ = np.linalg.svd(ell.matrix.T)
    gamma_t = model.measure_at(t)
    coeff = u_sing[:, 0]
    f = lambda p: white_noise(gamma_t, coeff, p)
    ratio = decay_ratio(model, f, 2.0, s, t, QuadScheme.gauss_hermite(20))
    assert ratio == pytest.approx(ell.op_norm, abs=1e-8)


def test_decay_ratio_centres_the_denominator():
    # f = x_0 + 3 decays like its centred part x_0: the ratio is e^{a(t-s)}
    rate = -0.8
    model = build_preset("malliavin_const",
                         {"rate_const": rate, "noise_consts": [1.0, 0.6]})
    f = lambda p: p[:, 0] + 3.0
    s, t = 0.2, 1.4
    ratio = decay_ratio(model, f, 2.0, s, t, QuadScheme.gauss_hermite(8))
    assert ratio == pytest.approx(math.exp(rate * (t - s)), rel=1e-10)


def test_decay_ratio_p2_bounded_by_contraction_norm():
    model = wavy_model()
    s, t = -0.3, 1.0
    norm = pst_contraction(model, s, t).op_norm
    rng = np.random.default_rng(9)
    for _ in range(3):
        c = rng.standard_normal(3)
        f = lambda p, c=c: c[0] * p[:, 0] + c[1] * p[:, 1] ** 2 + c[2]
        ratio = decay_ratio(model, f, 2.0, s, t, QuadScheme.gauss_hermite(16))
        assert ratio <= norm + 1e-8


def random_polynomial(rng, dim, degree):
    powers = np.array(enumerate_up_to(dim, degree), dtype=float)
    coeffs = rng.standard_normal(len(powers))
    return lambda p: (np.atleast_2d(p)[:, None, :] ** powers).prod(axis=2) @ coeffs


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name,params", [
    ("malliavin_const", {"rate_const": -0.7, "noise_consts": [1.0, 0.6, 1.3]}),
    ("diag_arctan", {"c1": 1.0, "c2": 2.0}),
])
def test_decay_ratio_chaos_route_matches_quadrature(name, params, dim):
    params = dict(params, dim=dim)
    if "noise_consts" in params:
        params["noise_consts"] = params["noise_consts"][:dim]
    model = build_preset(name, params)
    rng = np.random.default_rng(dim)
    s, t = -0.3, 0.4
    for degree in range(5):
        f = random_polynomial(rng, dim, degree)
        nested = decay_ratio(model, f, 2.0, s, t,
                             QuadScheme.gauss_hermite(degree + 2))
        exact = decay_ratio(model, f, 2.0, s, t, degree=degree)
        assert exact == pytest.approx(nested, abs=1e-10)


def test_decay_ratio_chaos_route_rejects_an_understated_degree():
    model = build_preset("malliavin_const",
                         {"rate_const": -1.0, "noise_consts": [1.0, 0.5]})
    f = lambda p: p[:, 0] ** 3 - p[:, 1]
    for scheme in (None, QuadScheme.gauss_hermite(3)):
        with pytest.raises(SchemeTooCoarse):
            decay_ratio(model, f, 2.0, 0.0, 1.0, scheme, degree=2)


def test_decay_ratio_quadrature_route_refuses_past_its_budget():
    # default scheme at dim 6: 200k outer samples, each with a 200k-sample
    # inner transition
    model = build_preset("heat1d", {"gamma_exp": 0.25, "dim": 6})
    calls = []

    def f(p):
        calls.append(len(p))
        return p[:, 0]

    with pytest.raises(SchemeTooCoarse, match="NESTED_MAX_EVALS"):
        decay_ratio(model, f, 3.0, 0.0, 0.5)
    assert not calls


@pytest.mark.parametrize("dim, degree, scheme",
                         [(20, 4, QuadScheme.monte_carlo(200_000)),
                          (60, 3, None), (100, 3, None)],
                         ids=["dim20_monte_carlo", "dim60", "dim100"])
def test_decay_ratio_chaos_route_refuses_an_oversized_block_before_f(
        dim, degree, scheme):
    # the degree block of Gamma(L) holds C(degree + dim - 1, degree)^2
    # entries, above BLOCK_MAX_ENTRIES in all three cases
    model = build_preset("heat1d", {"gamma_exp": 0.5, "dim": dim})
    calls = []

    def f(p):
        calls.append(len(p))
        return p[:, 0] ** 2 * p[:, 1]

    start = time.perf_counter()
    with pytest.raises(SizeTooLarge, match="BLOCK_MAX_ENTRIES"):
        decay_ratio(model, f, 2.0, 0.0, 0.5, scheme, degree=degree)
    assert time.perf_counter() - start < 0.5
    assert not calls


def test_q_t_inf_across_the_arctan_kink_matches_split_reference():
    # c1 = 1: the tail certificate first falls below 1e-10 at delta = 16
    model = build_preset("diag_arctan", {"c1": 1.0, "c2": 2.0, "dim": 3})
    t = 0.4
    q, _ = model.q_t_inf(t)

    def integrand(r):
        growth = model.family.rate_integral(r, t)
        return np.exp(2.0 * growth) * model.noise.diag_values(r) ** 2

    x, w = np.polynomial.legendre.leggauss(12)
    ref = np.zeros(3)
    for lo, hi, panels in ((t - 16.0, 0.0, 1600), (0.0, t, 100)):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x).reshape(-1)
        ref += (half[:, None] * w).reshape(-1) @ integrand(nodes)
    assert np.diag(q) == pytest.approx(ref, rel=0, abs=1e-10)


def test_bignamini_constant_model():
    lam = -0.8
    model = constant_model([lam, lam])
    report = bignamini_check(model, 0.0, 1.5, 1.0, abs(lam), 0.0,
                             verify_premise=True)
    assert report["cm_norm"] == pytest.approx(math.exp(lam * 1.5), abs=1e-9)
    assert report["unit_margin"] > 0.0
    assert report["envelope_margin"] == pytest.approx(0.0, abs=1e-9)
    assert report["h_norm"] == pytest.approx(math.exp(lam * 1.5), abs=1e-10)


def test_bignamini_adversarial_constant():
    model = constant_model([-0.8, -0.8])
    with pytest.raises(HypothesisFailed):
        bignamini_check(model, 0.0, 1.5, 0.05, 0.8, 0.0)


def test_contraction_guard_fires_on_broken_model():
    # lying about the decay data yields a tail certificate that is too
    # optimistic, which must surface as a contraction violation, not silence
    family = EvolutionFamily.diagonal_constant([0.3])
    noise = NoiseFamily.diagonal([lambda t: np.ones_like(np.asarray(t))],
                                 bound=1.0)
    model = OUModel(family, noise, mode_decay=[-0.3], mode_noise_sup=[1.0])
    with pytest.raises((NotContraction, ValueError)):
        pst_contraction(model, 0.0, 2.0)
