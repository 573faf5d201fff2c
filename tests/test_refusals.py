"""Typed refusals of bad arguments, each raised before any work is done.

Every case names the call, the exception type and a fragment of its
message, so a refusal that changes type or wording is seen here.
"""

import numpy as np
import pytest

from ouchaos.chaos import (ChaosExpansion, enumerate_indices, enumerate_up_to,
                           hermite_phi, phi_alpha)
from ouchaos.errors import NoDecay, NotSelfAdjoint, SizeTooLarge
from ouchaos.evolution import (EvolutionFamily, NoiseFamily, OUModel,
                               bignamini_check, decay_ratio, pst_apply,
                               pst_contraction)
from ouchaos.gaussian import SpectralGaussian, cm_inner, range_ratio_norm
from ouchaos.numerics import QuadScheme, gauss_expect, mc_estimate
from ouchaos.presets import build_preset
from ouchaos.secondquant import (CMContraction, eigen_system, gamma_eigen,
                                 gamma_series_apply, hyper_witness,
                                 lq_norm_gamma, permanent, q0_threshold)

G1 = SpectralGaussian([1.0])
G2 = SpectralGaussian([1.0, 0.5])
HALF = CMContraction(G2, G2, 0.5 * np.eye(2))
ONE = EvolutionFamily.diagonal_constant([-1.0])
NOISE = NoiseFamily.diagonal_constant([1.0])


def _dense_family():
    return EvolutionFamily(lambda t, s: np.exp(-(t - s)) * np.eye(1), 1)


def _dense_noise(bound):
    return NoiseFamily(lambda t: np.eye(1), 1, bound=bound)


def _model():
    return OUModel(ONE, NOISE, mode_decay=[-1.0], mode_noise_sup=[1.0])


REFUSALS = {
    # chaos
    "enumerate_indices_d0": (lambda: enumerate_indices(0, 1),
                             ValueError, "need d >= 1"),
    "hermite_phi_negative": (lambda: hermite_phi(-1, 0.0),
                             ValueError, "degree must be nonnegative"),
    "phi_alpha_length": (lambda: phi_alpha(G2, (1,), np.zeros(2)),
                         ValueError, "does not match the dimension"),
    "enumerate_up_to_d0": (lambda: enumerate_up_to(0, 2),
                           ValueError, "need d >= 1"),
    "enumerate_up_to_negative_degree": (lambda: enumerate_up_to(2, -1),
                                        ValueError, "max_degree >= 0"),
    "expansion_beyond_degree": (lambda: ChaosExpansion(G1, 1, {(2,): 1.0}),
                                ValueError, "beyond max_degree"),
    "expansion_negative_degree": (lambda: ChaosExpansion(G1, -1, {}),
                                  ValueError, "need max_degree >= 0"),
    "expansion_nan": (lambda: ChaosExpansion(G2, 2, {(1, 0): np.nan}),
                      ValueError, "is not finite"),
    "expansion_infinite": (lambda: ChaosExpansion(G2, 2, {(0, 1): -np.inf}),
                           ValueError, "is not finite"),
    "expansion_json_nan": (
        lambda: ChaosExpansion.from_json('[{"alpha": [1, 0], "c": NaN}]', G2, 2),
        ValueError, "is not finite"),
    # 200 axes loaded, C(204, 4) = 70 058 751 entries up to degree 4
    "expansion_vector_budget": (
        lambda: ChaosExpansion(SpectralGaussian(np.ones(200)), 4,
                               {(0,) * j + (1,) + (0,) * (199 - j): 1.0
                                for j in range(200)}),
        SizeTooLarge, "BLOCK_MAX_ENTRIES = 4194304"),
    # evolution
    "rate_integral_dense": (lambda: _dense_family().rate_integral(0.0, 1.0),
                            ValueError, "only for diagonal families"),
    "model_dimensions": (
        lambda: OUModel(ONE, NoiseFamily.diagonal_constant([1.0, 1.0])),
        ValueError, "dimensions differ"),
    "q_t_inf_no_noise_sups": (
        lambda: OUModel(ONE, NOISE, mode_decay=[-1.0]).q_t_inf(0.0),
        NoDecay, "per-mode noise sups"),
    "q_t_inf_no_lambda0": (
        lambda: OUModel(_dense_family(), _dense_noise(1.0)).q_t_inf(0.0),
        NoDecay, "no negative decay rate"),
    "q_t_inf_no_noise_bound": (
        lambda: OUModel(_dense_family(), _dense_noise(None),
                        lambda0=-1.0).q_t_inf(0.0),
        NoDecay, "uniform noise bound"),
    "q_t_inf_tiny_lambda0": (
        lambda: OUModel(_dense_family(), _dense_noise(1.0),
                        lambda0=-1e-300).q_t_inf(0.0),
        NoDecay, "did not reach tolerance"),
    "pst_apply_reversed": (
        lambda: pst_apply(_model(), lambda p: p[:, 0], 1.0, 0.0, np.zeros(1)),
        ValueError, "need s <= t"),
    "pst_contraction_reversed": (lambda: pst_contraction(_model(), 1.0, 0.0),
                                 ValueError, "need s <= t"),
    "decay_ratio_p1": (
        lambda: decay_ratio(_model(), lambda p: p[:, 0], 1.0, 0.0, 1.0),
        ValueError, "need p > 1"),
    "bignamini_equal_times": (
        lambda: bignamini_check(_model(), 0.5, 0.5, 1.0, 1.0, 0.0),
        ValueError, "need s < t"),
    # gaussian
    "sample_zero": (lambda: G2.sample(0), ValueError, "need n >= 1"),
    "cm_inner_length": (lambda: cm_inner(G2, [1.0], [1.0, 0.0]),
                        ValueError, "h has dimension 1, expected 2"),
    "range_ratio_rows": (lambda: range_ratio_norm(np.eye(2), np.eye(3)),
                         ValueError, "outer dimensions differ"),
    # numerics
    "mc_estimate_one_sample": (
        lambda: mc_estimate(lambda p: p[:, 0],
                            lambda gen, size: gen.standard_normal((size, 1)),
                            1, 0),
        ValueError, "need at least 2 samples"),
    "gauss_expect_cols_rows": (
        lambda: gauss_expect(lambda p: p[:, 0], np.zeros(2), np.eye(3),
                             QuadScheme.gauss_hermite(2)),
        ValueError, "one row per coordinate of mean"),
    # presets
    "malliavin_const_dim": (
        lambda: build_preset("malliavin_const",
                             {"noise_consts": [1, 1], "dim": 3}),
        ValueError, "d must match the number of noise modes"),
    # secondquant
    "contraction_list_measure": (
        lambda: CMContraction([1.0], G1, [[0.5]]),
        TypeError, "must be SpectralGaussian measures"),
    "contraction_infinite_entry": (
        lambda: CMContraction(G1, G1, [[np.inf]]),
        ValueError, "entries must be finite"),
    "compose_mismatch": (
        lambda: HALF.compose(CMContraction(G1, G1, [[0.5]])),
        ValueError, "intermediate measures do not match"),
    "permanent_not_square": (lambda: permanent(np.ones((2, 3))),
                             ValueError, "square matrix"),
    "series_other_measure": (
        lambda: gamma_series_apply(HALF, ChaosExpansion(G1, 1, {(1,): 1.0})),
        ValueError, "different measure"),
    "q0_threshold_p1": (lambda: q0_threshold(HALF, 1.0),
                        ValueError, "need p > 1"),
    "hyper_witness_p1": (lambda: hyper_witness(HALF, 1.0, 2.0, [1.0, 0.0], 0.1),
                         ValueError, "need p > 1, q >= 1"),
    "hyper_witness_negative_alpha": (
        lambda: hyper_witness(HALF, 2.0, 2.0, [1.0, 0.0], -0.1),
        ValueError, "need alpha >= 0"),
    "lq_norm_gamma_q_half": (lambda: lq_norm_gamma(HALF, lambda p: p[:, 0], 0.5),
                             ValueError, "need q >= 1"),
    "eigen_system_two_spaces": (
        lambda: eigen_system(CMContraction(G2, SpectralGaussian([2.0, 1.0]),
                                           0.5 * np.eye(2))),
        NotSelfAdjoint, "single space"),
    "gamma_eigen_length": (lambda: gamma_eigen(HALF, (1,)),
                           ValueError, "does not match the dimension"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_bad_argument_raises_its_typed_refusal(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
