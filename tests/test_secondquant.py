import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_contraction, random_measure
from ouchaos import secondquant
from ouchaos.chaos import (ChaosExpansion, enumerate_indices, enumerate_up_to,
                           eval_expansion, exp_functional_coeffs, phi_alpha,
                           project)
from ouchaos.cli import DEFAULT_MODEL
from ouchaos.errors import (NotContraction, NotSelfAdjoint,
                            NotStrictContraction, PreconditionViolated,
                            SchemeTooCoarse, SizeTooLarge, Unbounded)
from ouchaos.evolution import pst_contraction
from ouchaos.gaussian import SpectralGaussian, expect
from ouchaos.numerics import QuadScheme
from ouchaos.presets import build_preset
from ouchaos.secondquant import (CMContraction, degree_block, eigen_system,
                                 gamma_eigen, gamma_integral_apply,
                                 gamma_matrix_element, gamma_series_apply,
                                 NESTED_MAX_EVALS, hs_norm_gamma,
                                 hyper_witness, lq_norm_gamma,
                                 mehler_factors, permanent, polar_factors,
                                 q0_threshold, x_extension)

STD1 = SpectralGaussian([1.0])
STD2 = SpectralGaussian([1.0, 1.0])


def brute_permanent(a):
    n = len(a)
    return sum(math.prod(a[i][s[i]] for i in range(n))
               for s in itertools.permutations(range(n)))


def test_permanent_small():
    assert permanent(np.eye(2)) == pytest.approx(1.0)
    assert permanent([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(2.0)
    assert permanent(np.zeros((0, 0))) == 1.0


def test_permanent_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((5, 5))
        assert permanent(a) == pytest.approx(brute_permanent(a.tolist()), abs=1e-10)


def test_permanent_size_cap():
    with pytest.raises(SizeTooLarge):
        permanent(np.eye(13))


def test_contraction_shape_and_kernel_zeroing():
    mu = SpectralGaussian([1.0, 0.0])
    nu = SpectralGaussian([2.0])
    t = CMContraction(mu, nu, [[0.5, 0.7]])
    assert t.matrix.tolist() == [[0.5, 0.0]]
    with pytest.raises(ValueError):
        CMContraction(mu, nu, np.eye(2))


def test_op_norm_examples():
    assert CMContraction.identity(STD2).op_norm == pytest.approx(1.0)
    assert CMContraction(STD2, STD2, np.diag([0.5, 0.3])).op_norm == pytest.approx(0.5)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3))
    g3 = SpectralGaussian([1.0, 2.0, 3.0])
    t = CMContraction(g3, g3, m)
    assert t.op_norm ** 2 == pytest.approx(
        float(np.linalg.eigvalsh(m.T @ m).max()), abs=1e-10)


def test_contraction_json_round_trip():
    mu = SpectralGaussian([1.0, 4.0])
    nu = SpectralGaussian([2.0])
    t = CMContraction(mu, nu, [[0.25, -0.1]])
    back = CMContraction.from_json(t.to_json())
    assert back.mu == mu and back.nu == nu
    assert back.matrix == pytest.approx(t.matrix)


def test_x_extension_examples():
    assert x_extension(CMContraction.identity(STD2)).matrix == pytest.approx(np.eye(2))
    t = CMContraction(SpectralGaussian([4.0]), SpectralGaussian([1.0]), [[0.5]])
    assert x_extension(t).matrix == pytest.approx(np.array([[0.25]]))


def test_x_extension_composes():
    rng = np.random.default_rng(8)
    mu = random_measure(rng, 3)
    sig = random_measure(rng, 2)
    nu = random_measure(rng, 3)
    t = random_contraction(rng, mu, sig)
    s = random_contraction(rng, sig, nu)
    lhs = x_extension(s.compose(t)).matrix
    rhs = x_extension(s).matrix @ x_extension(t).matrix
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_x_extension_unbounded():
    mu = SpectralGaussian([1e-30, 1e-26])
    nu = SpectralGaussian([1.0, 1.0])
    with pytest.raises(Unbounded):
        x_extension(CMContraction(mu, nu, np.eye(2)))


def test_gamma_matrix_element_degree_one():
    t = CMContraction(STD2, STD2, [[0.4, 0.1], [0.0, 0.3]])
    assert gamma_matrix_element(t, (1, 0), (1, 0)) == pytest.approx(0.4)


def test_gamma_matrix_element_diagonal_eigenvalues():
    t = CMContraction(STD1, STD1, [[0.5]])
    assert gamma_matrix_element(t, (2,), (2,)) == pytest.approx(0.25)
    g2 = STD2
    t2 = CMContraction(g2, g2, np.diag([0.5, 0.2]))
    assert gamma_matrix_element(t2, (1, 2), (1, 2)) == pytest.approx(0.5 * 0.04)


def test_gamma_matrix_element_degree_mismatch_and_cap():
    t = CMContraction.identity(STD1)
    assert gamma_matrix_element(t, (2,), (1,)) == 0.0
    with pytest.raises(SizeTooLarge):
        gamma_matrix_element(t, (13,), (13,))


def test_gamma_matrix_element_integral_oracle():
    # the normalization test: series matrix elements against the Mehler form
    rng = np.random.default_rng(21)
    mu = SpectralGaussian([1.0, 0.5])
    nu = SpectralGaussian([2.0, 1.0])
    t = random_contraction(rng, mu, nu, norm_cap=0.9)
    scheme = QuadScheme.gauss_hermite(24)
    for alpha in enumerate_indices(2, 2):
        for beta in enumerate_indices(2, 2):
            via_integral = expect(
                nu,
                lambda p, a=alpha, b=beta: np.array(
                    [gamma_integral_apply(t, lambda y, a=a: phi_alpha(mu, a, y),
                                          x, scheme) for x in np.atleast_2d(p)]
                ) * phi_alpha(nu, b, p),
                scheme)
            assert via_integral == pytest.approx(
                gamma_matrix_element(t, alpha, beta), abs=1e-8)


@pytest.mark.parametrize("dims", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 3)])
def test_degree_block_matches_ryser_elements(dims):
    # symmetric-power blocks against one Ryser permanent per entry, with a
    # kernel direction in mu whenever it has more than one coordinate
    rng = np.random.default_rng(sum(dims))
    mu = random_measure(rng, dims[0], degenerate=dims[0] > 1)
    nu = random_measure(rng, dims[1])
    t = random_contraction(rng, mu, nu)
    for n in range(7):
        ryser = np.array([[gamma_matrix_element(t, a, b)
                           for a in enumerate_indices(mu.dim, n)]
                          for b in enumerate_indices(nu.dim, n)])
        assert degree_block(t, n) == pytest.approx(ryser, abs=1e-12)


def test_degree_block_kernel_rows_vanish():
    nu = SpectralGaussian([1.0, 0.0])
    t = CMContraction(STD2, nu, [[0.3, -0.5], [0.7, 0.2]])
    for n in range(1, 4):
        block = degree_block(t, n)
        for k, beta in enumerate(enumerate_indices(2, n)):
            if beta[1] > 0:
                assert not block[k].any()
            else:
                assert block[k] == pytest.approx(
                    [gamma_matrix_element(t, a, beta)
                     for a in enumerate_indices(2, n)], abs=1e-14)


def test_degree_block_rejects_negative_degree_and_oversized_tables():
    with pytest.raises(ValueError):
        degree_block(CMContraction.identity(STD2), -1)
    # C(19, 12)^2 = 2.5e9 entries: refused before any table is built
    wide = SpectralGaussian([1.0] * 8)
    with pytest.raises(SizeTooLarge):
        degree_block(CMContraction.identity(wide), 12)
    with pytest.raises(SizeTooLarge):
        gamma_series_apply(CMContraction.identity(wide),
                           ChaosExpansion(wide, 12, {(0,) * 8: 1.0}))


def test_series_at_degree_ten():
    # beyond the reach of per-entry permanents: the exponential law and the
    # adjoint pairing at degree 10 between spaces of different dimension
    rng = np.random.default_rng(73)
    mu = random_measure(rng, 3)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    z = 0.8 * rng.standard_normal(3)
    lhs = gamma_series_apply(t, exp_functional_coeffs(mu, z, 10))
    rhs = exp_functional_coeffs(nu, t.matrix @ z, 10)
    for alpha in enumerate_up_to(2, 10):
        assert lhs[alpha] == pytest.approx(rhs[alpha], abs=1e-12)
    f = ChaosExpansion(mu, 10, {a: rng.standard_normal()
                                for a in enumerate_up_to(3, 10)})
    g = ChaosExpansion(nu, 10, {a: rng.standard_normal()
                                for a in enumerate_up_to(2, 10)})
    tf = gamma_series_apply(t, f)
    tg = gamma_series_apply(t.adjoint, g)
    lhs_ip = sum(tf[a] * g[a] for a in enumerate_up_to(2, 10))
    rhs_ip = sum(f[a] * tg[a] for a in enumerate_up_to(3, 10))
    assert lhs_ip == pytest.approx(rhs_ip, abs=1e-10)


def test_series_degree_cap():
    # degree 13 is past the Ryser size cap but well inside the table budget
    rng = np.random.default_rng(13)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    z = np.array([0.6, -0.4])
    image = gamma_series_apply(t, exp_functional_coeffs(mu, z, 13))
    want = exp_functional_coeffs(nu, t.matrix @ z, 13)
    for alpha in enumerate_indices(2, 13):
        assert image[alpha] == pytest.approx(want[alpha], abs=1e-12)
    # C(22, 13)^2 entries in the degree-13 block of a 10-mode measure
    std10 = SpectralGaussian(np.ones(10))
    with pytest.raises(SizeTooLarge):
        gamma_series_apply(CMContraction.identity(std10),
                           ChaosExpansion(std10, 13, {(13,) + (0,) * 9: 1.0}))


def test_gamma_series_identity_and_zero():
    e = ChaosExpansion(STD2, 3, {(0, 0): 1.0, (1, 0): 0.5, (2, 1): -0.7})
    out = gamma_series_apply(CMContraction.identity(STD2), e)
    assert out.coeffs == pytest.approx(e.coeffs)
    killed = gamma_series_apply(CMContraction(STD2, STD2, np.zeros((2, 2))), e)
    assert killed.coeffs == {(0, 0): 1.0}


def test_gamma_series_rejects_expansion_beyond_norm():
    t = CMContraction(STD1, STD1, [[1.5]])
    with pytest.raises(NotContraction):
        gamma_series_apply(t, ChaosExpansion(STD1, 1, {(1,): 1.0}))


def test_exponential_law():
    rng = np.random.default_rng(5)
    mu = random_measure(rng, 3)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    z = rng.standard_normal(3)
    lhs = gamma_series_apply(t, exp_functional_coeffs(mu, z, 5))
    rhs = exp_functional_coeffs(nu, t.matrix @ z, 5)
    for alpha in enumerate_up_to(2, 5):
        assert lhs[alpha] == pytest.approx(rhs[alpha], abs=1e-10)


def test_integral_identity_is_pointwise_identity():
    f = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2
    x = np.array([0.3, -1.2])
    val = gamma_integral_apply(CMContraction.identity(STD2), f, x,
                               QuadScheme.gauss_hermite(6))
    assert val == pytest.approx(float(f(x[None, :])[0]), abs=1e-12)


def test_integral_scalar_acts_on_white_noise():
    t = CMContraction(STD1, STD1, [[0.35]])
    val = gamma_integral_apply(t, lambda p: p[:, 0], np.array([2.0]),
                               QuadScheme.gauss_hermite(8))
    assert val == pytest.approx(0.35 * 2.0, abs=1e-12)


def test_integral_matches_series_on_polynomials():
    rng = np.random.default_rng(11)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    f = lambda p: p[:, 0] ** 4 - 2.0 * p[:, 0] * p[:, 1] + 0.3 * p[:, 1] ** 2
    e = project(mu, f, 4, scheme=QuadScheme.gauss_hermite(12))
    series_image = gamma_series_apply(t, e)
    for x in nu.sample(5, seed=2):
        direct = gamma_integral_apply(t, f, x, QuadScheme.gauss_hermite(12))
        assert direct == pytest.approx(eval_expansion(series_image, x), abs=1e-8)


def test_integral_monte_carlo_matches_series():
    rng = np.random.default_rng(13)
    mu = random_measure(rng, 2)
    t = random_contraction(rng, mu, mu)
    f = lambda p: p[:, 0] ** 2 + p[:, 1]
    e = gamma_series_apply(t, project(mu, f, 2, scheme=QuadScheme.gauss_hermite(8)))
    x = mu.sample(1, seed=1)[0]
    exact = eval_expansion(e, x)
    est = gamma_integral_apply(t, f, x, QuadScheme.monte_carlo(400_000, seed=9))
    assert est == pytest.approx(exact, abs=0.02)


def test_mass_transport():
    rng = np.random.default_rng(19)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    f = lambda p: p[:, 0] ** 3 + 0.5 * p[:, 1] ** 2 - p[:, 0] + 2.0
    scheme = QuadScheme.gauss_hermite(12)
    lhs = expect(nu, lambda p: np.array(
        [gamma_integral_apply(t, f, x, scheme) for x in np.atleast_2d(p)]), scheme)
    assert lhs == pytest.approx(expect(mu, f, scheme), abs=1e-9)


def test_mehler_consistency_with_classical_ou():
    # T = e^{-t} I reproduces the classical Ornstein-Uhlenbeck kernel
    from ouchaos.numerics import gauss_expect
    tval = 0.7
    c = math.exp(-tval)
    t = CMContraction.scalar(STD2, c)
    f = lambda p: np.exp(p[:, 0]) + p[:, 1] ** 4
    scheme = QuadScheme.gauss_hermite(40)
    for x in STD2.sample(3, seed=4):
        ou = gauss_expect(f, c * x, math.sqrt(1.0 - c * c) * np.eye(2), scheme)
        assert gamma_integral_apply(t, f, x, scheme) == pytest.approx(ou, rel=1e-12)


def test_adjoint_law():
    rng = np.random.default_rng(23)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    f = ChaosExpansion(mu, 5, {a: rng.standard_normal()
                               for a in enumerate_up_to(2, 5)})
    g = ChaosExpansion(nu, 5, {a: rng.standard_normal()
                               for a in enumerate_up_to(2, 5)})
    tf = gamma_series_apply(t, f)
    tg = gamma_series_apply(t.adjoint, g)
    lhs = sum(tf[a] * g[a] for a in enumerate_up_to(2, 5))
    rhs = sum(f[a] * tg[a] for a in enumerate_up_to(2, 5))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_composition_law():
    rng = np.random.default_rng(29)
    mu = random_measure(rng, 2)
    sig = random_measure(rng, 3)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, sig)
    s = random_contraction(rng, sig, nu)
    e = ChaosExpansion(mu, 4, {a: rng.standard_normal()
                               for a in enumerate_up_to(2, 4)})
    direct = gamma_series_apply(s.compose(t), e)
    staged = gamma_series_apply(s, gamma_series_apply(t, e))
    for alpha in enumerate_up_to(2, 4):
        assert direct[alpha] == pytest.approx(staged[alpha], abs=1e-10)


def test_scalar_split_forms():
    # Gamma(cL) factors through the scalar quantization on either side
    rng = np.random.default_rng(31)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    ell = random_contraction(rng, mu, nu)
    c = 0.6
    scaled = CMContraction(mu, nu, c * ell.matrix)
    e = ChaosExpansion(mu, 4, {a: rng.standard_normal()
                               for a in enumerate_up_to(2, 4)})
    via_mu = gamma_series_apply(ell, gamma_series_apply(
        CMContraction.scalar(mu, c), e))
    via_nu = gamma_series_apply(CMContraction.scalar(nu, c),
                                gamma_series_apply(ell, e))
    direct = gamma_series_apply(scaled, e)
    for alpha in enumerate_up_to(2, 4):
        assert direct[alpha] == pytest.approx(via_mu[alpha], abs=1e-10)
        assert direct[alpha] == pytest.approx(via_nu[alpha], abs=1e-10)


def test_degreewise_norm_is_norm_power():
    rng = np.random.default_rng(37)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    for n in range(5):
        block = degree_block(t, n)
        assert np.linalg.norm(block, 2) == pytest.approx(t.op_norm ** n, abs=1e-6)


def test_polar_factors_examples():
    theta = 0.3
    rot = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    pf = polar_factors(CMContraction(STD2, STD2, rot))
    assert pf.B.matrix == pytest.approx(np.eye(2), abs=1e-12)
    assert pf.C.matrix == pytest.approx(np.array(rot), abs=1e-12)
    pf2 = polar_factors(CMContraction(STD2, STD2, np.diag([0.5, 0.0])))
    assert pf2.B.matrix == pytest.approx(np.diag([0.5, 0.0]), abs=1e-12)
    assert pf2.C.matrix == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)


def test_polar_factors_random():
    rng = np.random.default_rng(41)
    mu = random_measure(rng, 3)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    pf = polar_factors(t)
    assert pf.C.matrix @ pf.B.matrix == pytest.approx(t.matrix, abs=1e-10)
    sing = pf.C.singular_values
    assert all(abs(s) < 1e-10 or abs(s - 1.0) < 1e-10 for s in sing)
    assert pf.C.op_norm == pytest.approx(1.0)
    # B is self-adjoint nonnegative
    assert pf.B.matrix == pytest.approx(pf.B.matrix.T)
    assert np.linalg.eigvalsh(pf.B.matrix).min() >= -1e-12


def test_polar_factors_read_the_kept_decomposition(monkeypatch):
    rng = np.random.default_rng(43)
    t = random_contraction(rng, random_measure(rng, 3), random_measure(rng, 2))
    fresh = polar_factors(CMContraction(t.mu, t.nu, t.matrix))
    t.op_norm
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    pf = polar_factors(t)
    assert calls == []
    assert np.array_equal(pf.B.matrix, fresh.B.matrix)
    assert np.array_equal(pf.C.matrix, fresh.C.matrix)


def test_q0_threshold_examples():
    assert q0_threshold(CMContraction.identity(STD1), 2.0) == pytest.approx(2.0)
    t = CMContraction(STD1, STD1, [[0.5]])
    assert q0_threshold(t, 2.0) == pytest.approx(5.0)
    tt = 0.8
    nelson = CMContraction(STD1, STD1, [[math.exp(-tt)]])
    for p in (1.5, 2.0, 4.0):
        assert q0_threshold(nelson, p) == pytest.approx(
            1.0 + (p - 1.0) * math.exp(2.0 * tt))
    assert q0_threshold(CMContraction(STD1, STD1, [[0.0]]), 2.0) == math.inf


def test_lq_norm_gamma_constant_and_zero():
    rng = np.random.default_rng(43)
    mu = random_measure(rng, 2)
    t = random_contraction(rng, mu, mu)
    one = lambda p: np.ones(len(p))
    assert lq_norm_gamma(t, one, 3.0) == pytest.approx(1.0, abs=1e-12)
    zero_t = CMContraction(mu, mu, np.zeros((2, 2)))
    f = lambda p: p[:, 0] ** 2 - 0.3 * p[:, 1] + 1.0
    mean = expect(mu, f, QuadScheme.gauss_hermite(8))
    assert lq_norm_gamma(zero_t, f, 2.0) == pytest.approx(abs(mean), abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_lq_contraction_bound(p):
    rng = np.random.default_rng(47)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    f = lambda p_: (p_[:, 0] + 0.5) ** 2 + 0.1  # nonnegative, keeps L^1 exact
    scheme = QuadScheme.gauss_hermite(16)
    image_norm = lq_norm_gamma(t, f, p, scheme=scheme)
    source_norm = expect(mu, lambda q_: f(q_) ** p, scheme) ** (1.0 / p)
    assert image_norm <= source_norm * (1.0 + 1e-8)


def test_lq_norm_gamma_refuses_past_its_budget():
    # 20^4 outer nodes times 20^4 inner nodes is 1.6e10 evaluations
    rng = np.random.default_rng(53)
    mu = random_measure(rng, 4)
    t = random_contraction(rng, mu, mu)
    calls = []

    def f(p):
        calls.append(len(p))
        return p[:, 0]

    assert 20 ** 8 > NESTED_MAX_EVALS
    with pytest.raises(SchemeTooCoarse, match="NESTED_MAX_EVALS"):
        lq_norm_gamma(t, f, 1.5, QuadScheme.gauss_hermite(20))
    assert not calls


def test_lq_norm_gamma_monte_carlo_inner_rule():
    # the inner Mehler average of a linear f by sampling stays within a few
    # standard errors of the exact one
    rng = np.random.default_rng(59)
    mu = random_measure(rng, 2)
    t = random_contraction(rng, mu, mu)
    f = lambda p: p[:, 0] - 0.5 * p[:, 1] + 0.3
    scheme = QuadScheme.gauss_hermite(6)
    exact = lq_norm_gamma(t, f, 2.0, scheme)
    sampled = lq_norm_gamma(t, f, 2.0, scheme,
                            inner_scheme=QuadScheme.monte_carlo(20_000, seed=3))
    assert sampled == pytest.approx(exact, rel=0.05)
    assert sampled != exact


def test_lq_norm_gamma_honours_an_inner_tolerance():
    # 1 000 draws cannot reach a standard error of 1e-8; the inner average
    # must refuse as gamma_integral_apply does on the same rule
    mu = SpectralGaussian([1.0, 0.5])
    t = CMContraction(mu, mu, [[0.6, 0.1], [0.0, 0.5]])
    f = lambda p: p[:, 0] ** 2 + p[:, 1]
    inner = QuadScheme.monte_carlo(1_000, tolerance=1e-8)
    with pytest.raises(SchemeTooCoarse):
        gamma_integral_apply(t, f, np.array([0.3, -0.2]), inner)
    with pytest.raises(SchemeTooCoarse):
        lq_norm_gamma(t, f, 1.5, QuadScheme.gauss_hermite(6), inner_scheme=inner)


def test_hyper_witness_zero_alpha():
    t = CMContraction(STD1, STD1, [[0.5]])
    w = hyper_witness(t, 2.0, 3.0, [1.0], 0.0)
    assert w.lq_finite
    xs = STD1.sample(4, seed=0)
    assert w.gamma_image(xs) == pytest.approx(np.ones(4))
    assert w.lp_norm == pytest.approx(1.0)


def test_hyper_witness_divergence_flag():
    # norm 0.5 gives q0 = 5 at p = 2; just above must diverge for alpha at
    # the top of the window, just below must stay finite
    t = CMContraction(STD1, STD1, [[0.5]])
    h = [1.0]
    eps = 0.01
    alpha = 1.0 / (2.0 * (2.0 + eps) * 1.0)
    above = hyper_witness(t, 2.0, 5.0 + 0.1, h, alpha)
    assert not above.lq_finite
    assert above.lq_norm == math.inf
    below = hyper_witness(t, 2.0, 5.0 - 0.1, h, alpha)
    assert below.lq_finite
    assert below.lq_norm <= below.lp_norm


def test_hyper_witness_variances_split():
    rng = np.random.default_rng(53)
    mu = random_measure(rng, 3)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu)
    h = mu.sample(1, seed=8)[0]
    from ouchaos.gaussian import cm_inner
    w = hyper_witness(t, 2.0, 2.0, h, 0.01)
    v = cm_inner(mu, h, h)
    assert w.sigma2 + w.tau2 == pytest.approx(v, rel=1e-10)


def test_hyper_witness_finite_norm_monte_carlo():
    t = CMContraction(STD1, STD1, [[0.5]])
    eps = 0.01
    alpha = 1.0 / (2.0 * (2.0 + eps))
    w = hyper_witness(t, 2.0, 4.9, [1.0], alpha)
    xs = STD1.sample(200_000, seed=77)
    q = 4.9
    est = float(np.mean(w.gamma_image(xs) ** q)) ** (1.0 / q)
    assert np.isfinite(est)
    assert 1.0 < est <= w.lp_norm


def test_hyper_witness_precondition():
    t = CMContraction(STD1, STD1, [[0.5]])
    with pytest.raises(PreconditionViolated):
        hyper_witness(t, 2.0, 2.0, [1.0], 0.25)  # 2*alpha*p*v = 1 exactly


def test_hyper_witness_image_matches_integral_form():
    rng = np.random.default_rng(59)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu, norm_cap=0.8)
    h = mu.sample(1, seed=3)[0] * 0.4
    w = hyper_witness(t, 2.0, 2.0, h, 0.05)
    scheme = QuadScheme.gauss_hermite(60)
    for x in nu.sample(3, seed=10):
        direct = gamma_integral_apply(t, w.witness, x, scheme)
        assert direct == pytest.approx(float(w.gamma_image(x)), rel=1e-6)


def test_hs_norm_zero_operator():
    t = CMContraction(STD2, STD2, np.zeros((2, 2)))
    out = hs_norm_gamma(t, 5)
    assert out["partial"] == pytest.approx(1.0)
    assert out["closed_form"] == pytest.approx(1.0)
    assert out["tail_bound"] == 0.0


def test_hs_norm_half_diagonal():
    t = CMContraction(STD2, STD2, np.diag([0.5, 0.5]))
    out = hs_norm_gamma(t, 60)
    assert out["closed_form"] == pytest.approx(4.0 / 3.0)
    assert out["partial"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert out["paper_form"] == pytest.approx((1.0 - 0.5 ** 4) ** -2)


def test_hs_partial_approaches_closed_form():
    rng = np.random.default_rng(61)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu, norm_cap=0.6)
    out = hs_norm_gamma(t, 40)
    assert out["partial"] == pytest.approx(out["closed_form"], abs=1e-6)
    assert out["partial"] <= out["closed_form"] + 1e-12
    assert out["tail_bound"] < 1e-8


def test_hs_partial_matches_literal_matrix_elements():
    # singular-basis evaluation against the raw permanental Frobenius mass
    rng = np.random.default_rng(67)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    t = random_contraction(rng, mu, nu, norm_cap=0.7)
    n_cap = 3
    literal = sum(np.sum(degree_block(t, n) ** 2) for n in range(n_cap + 1))
    out = hs_norm_gamma(t, n_cap)
    assert out["partial"] ** 2 == pytest.approx(float(literal), abs=1e-10)


def _exact_tail(s1, max_degree, d):
    """sum_{n > N} C(n + d - 1, n) s1^(2n) in rationals: the whole negative
    binomial series (1 - s1^2)^(-d) minus its terms up to N."""
    q = Fraction(s1) ** 2
    head = sum(math.comb(n + d - 1, n) * q ** n for n in range(max_degree + 1))
    return (1 - q) ** -d - head


@pytest.mark.parametrize("s1, max_degree, d",
                         [(0.5, 40, 3), (0.9, 40, 3), (0.99, 40, 10),
                          (0.9999, 40, 60)])
def test_hs_tail_bound_is_the_exact_series_tail(s1, max_degree, d):
    # the top singular value s1 in every one of d directions; 60 directions
    # at 0.9999 give a tail near 8.7e221, which is still a float
    mu = SpectralGaussian(np.ones(d))
    t = CMContraction(mu, mu, s1 * np.eye(d))
    out = hs_norm_gamma(t, max_degree)
    want = _exact_tail(float(t.singular_values[0]), max_degree, d)
    assert out["tail_bound"] == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_hs_tail_bound_of_the_default_table_rows():
    # the rows of a default `ouchaos hs-table`; at t = 1 and t = 2 the
    # tail lies far below 1e-18
    model = build_preset(DEFAULT_MODEL["preset"], DEFAULT_MODEL["params"])
    for t_end in (0.1, 1.0, 2.0):
        t = pst_contraction(model, 0.0, t_end)
        s = t.singular_values
        want = _exact_tail(float(s[0]), 40, int(np.sum(s > 0.0)))
        assert hs_norm_gamma(t, 40)["tail_bound"] == pytest.approx(
            float(want), rel=1e-12, abs=0.0)


def test_hs_tail_bound_is_inf_only_beyond_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert secondquant._degree_tail(0.9999, 40, 400) == math.inf
        assert secondquant._degree_tail(0.0, 40, 3) == 0.0
        assert 0.0 < secondquant._degree_tail(1e-3, 40, 3) < 1e-200


def test_hs_products_are_inf_without_a_warning():
    # 400 singular values of 0.9999: both products pass the float range
    mu = SpectralGaussian(np.ones(400))
    t = CMContraction(mu, mu, 0.9999 * np.eye(400))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = hs_norm_gamma(t, 3)
    assert out["closed_form"] == out["paper_form"] == math.inf
    assert out["tail_bound"] == math.inf
    assert math.isfinite(out["partial"])


def test_hs_rejects_unit_norm():
    with pytest.raises(NotStrictContraction):
        hs_norm_gamma(CMContraction.identity(STD2), 10)


def test_gamma_eigen_examples():
    t = CMContraction(STD2, STD2, np.diag([0.5, 0.2]))
    assert gamma_eigen(t, (0, 0)) == 1.0
    assert gamma_eigen(t, (1, 2)) == pytest.approx(0.02)
    with pytest.raises(NotSelfAdjoint):
        gamma_eigen(CMContraction(STD2, STD2, [[0.0, 0.5], [0.0, 0.0]]), (1, 0))


def test_gamma_eigen_zero_power_convention():
    # eigenvalues are reported in descending order: (0.4, 0.0)
    t = CMContraction(STD2, STD2, np.diag([0.0, 0.4]))
    assert gamma_eigen(t, (2, 0)) == pytest.approx(0.4 ** 2)
    # 0^0 = 1: a zero eigenvalue with zero exponent must not kill the product
    assert gamma_eigen(t, (1, 0)) == pytest.approx(0.4)
    assert gamma_eigen(t, (1, 1)) == 0.0


def test_quantized_eigenvectors():
    rng = np.random.default_rng(71)
    mu = random_measure(rng, 2)
    sym = rng.standard_normal((2, 2))
    sym = 0.3 * (sym + sym.T) / 2.0
    t = CMContraction(mu, mu, sym)
    vals, v = eigen_system(t)
    assert vals[0] >= vals[1]
    for alpha in enumerate_up_to(2, 3):
        psi = gamma_series_apply(v, ChaosExpansion(mu, alpha.order, {alpha: 1.0}))
        image = gamma_series_apply(t, psi)
        lam = gamma_eigen(t, alpha)
        for beta in enumerate_up_to(2, 3):
            assert image[beta] == pytest.approx(lam * psi[beta], abs=1e-10)


def test_mehler_factors_reject_expansion():
    t = CMContraction(STD1, STD1, [[1.2]])
    with pytest.raises(NotContraction):
        mehler_factors(t)
