import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import HermiteE

from ouchaos import chaos
from ouchaos.chaos import (ChaosExpansion, MultiIndex, enumerate_indices,
                           enumerate_up_to, eval_expansion,
                           exp_functional_coeffs, hermite_phi, l2_norm,
                           monomial_coeffs, phi_alpha, project,
                           sigma_class_count)
from ouchaos.errors import (DegreeTooLarge, OffSupport, SchemeTooCoarse,
                            SizeTooLarge)
from ouchaos.gaussian import SpectralGaussian, expect, white_noise
from ouchaos.numerics import QuadScheme, gauss_rule


def test_multi_index_basics():
    a = MultiIndex((2, 0, 1))
    assert a.order == 3
    assert a.factorial == 2
    assert a.repeated() == (0, 0, 2)
    assert a == (2, 0, 1)
    assert {a: 1.0}[(2, 0, 1)] == 1.0
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_hermite_phi_small_values():
    assert hermite_phi(0, 3.7) == 1.0
    assert hermite_phi(1, 0.25) == 0.25
    assert hermite_phi(2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert hermite_phi(3, 2.0) == pytest.approx(1.0 / 3.0)


def test_hermite_phi_degree_cap():
    hermite_phi(60, 0.3)
    with pytest.raises(DegreeTooLarge):
        hermite_phi(61, 0.3)


@pytest.mark.parametrize("n", [2, 5, 11, 23])
def test_hermite_phi_matches_numpy_family(n):
    xs = np.linspace(-3, 3, 17)
    he = HermiteE([0] * n + [1])(xs)
    assert hermite_phi(n, xs) == pytest.approx(he / math.factorial(n), rel=1e-10)


def test_enumerate_indices_counts_and_order():
    assert enumerate_indices(1, 3) == [(3,)]
    assert enumerate_indices(2, 0) == [(0, 0)]
    idx = enumerate_indices(3, 2)
    assert len(idx) == 6
    assert idx == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert enumerate_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6))
def test_enumerate_indices_stars_and_bars(d, n):
    idx = enumerate_indices(d, n)
    assert len(idx) == math.comb(n + d - 1, n)
    assert all(sum(a) == n for a in idx)
    assert len(set(idx)) == len(idx)


def _old_indices(d, n):
    # reference order: the plain recursion over the last slot
    if d == 1:
        return ((n,),)
    return tuple(head + (last,) for last in range(n + 1)
                 for head in _old_indices(d - 1, n - last))


def test_indices_keep_the_graded_colex_order():
    for d in range(1, 7):
        for n in range(6):
            got = chaos._indices(d, n)
            assert got == _old_indices(d, n)
            assert all(type(alpha) is MultiIndex for alpha in got)


@pytest.mark.parametrize("d, max_degree", [(23, 3), (9, 6)])
def test_enumeration_keeps_only_the_degrees_asked_for(d, max_degree):
    before = chaos._indices.cache_info().currsize
    enumerate_up_to(d, max_degree)
    assert chaos._indices.cache_info().currsize - before <= max_degree + 1


def test_sigma_class_count():
    assert sigma_class_count((4, 0, 0)) == 1
    assert sigma_class_count((2, 1)) == 3
    assert sigma_class_count((1, 1, 1)) == 6
    with pytest.raises(SizeTooLarge):
        sigma_class_count((21,))


def test_phi_alpha_values():
    g = SpectralGaussian([1.0])
    assert phi_alpha(g, (0,), [5.0]) == 1.0
    assert phi_alpha(g, (2,), [1.0]) == pytest.approx(0.0, abs=1e-15)
    # sqrt(2) phi_2(xi) = (xi^2-1)/sqrt(2)
    assert phi_alpha(g, (2,), [2.0]) == pytest.approx(3.0 / math.sqrt(2.0))
    g4 = SpectralGaussian([4.0])
    assert phi_alpha(g4, (1,), [2.0]) == pytest.approx(1.0)


def test_phi_alpha_rejects_kernel_load():
    g = SpectralGaussian([1.0, 0.0])
    with pytest.raises(OffSupport):
        phi_alpha(g, (0, 1), [0.0, 0.0])


def test_eval_expansion_rejects_kernel_load():
    g = SpectralGaussian([1.0, 0.0])
    e = ChaosExpansion(g, 2, {(1, 0): 0.5, (1, 1): 2.0})
    with pytest.raises(OffSupport):
        eval_expansion(e, np.zeros((3, 2)))


def test_phi_alpha_gram_identity():
    g = SpectralGaussian([1.0, 0.25])
    alphas = enumerate_up_to(2, 3)
    scheme = QuadScheme.gauss_hermite(40)
    gram = np.empty((len(alphas), len(alphas)))
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            gram[i, j] = expect(
                g, lambda p, a=a, b=b: phi_alpha(g, a, p) * phi_alpha(g, b, p),
                scheme)
    assert gram == pytest.approx(np.eye(len(alphas)), abs=1e-10)


def test_project_constant():
    g = SpectralGaussian([1.0, 1.0])
    e = project(g, lambda p: np.ones(len(p)), 2)
    assert e[(0, 0)] == pytest.approx(1.0)
    assert all(c == pytest.approx(0.0, abs=1e-12) or a == (0, 0)
               for a, c in e.coeffs.items())


def test_project_coordinate_scaled():
    g = SpectralGaussian([4.0])
    e = project(g, lambda p: p[:, 0], 3)
    assert e[(1,)] == pytest.approx(2.0, abs=1e-12)
    assert e[(3,)] == pytest.approx(0.0, abs=1e-12)


def test_project_square():
    g = SpectralGaussian([1.0])
    e = project(g, lambda p: p[:, 0] ** 2, 2, expect_polynomial=True)
    assert e[(0,)] == pytest.approx(1.0, abs=1e-12)
    assert e[(2,)] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert e.residual ** 2 == pytest.approx(0.0, abs=1e-9)


def test_project_residual_guard():
    g = SpectralGaussian([1.0])
    # degree-4 polynomial projected at N=2 leaves an honest residual
    with pytest.raises(SchemeTooCoarse):
        project(g, lambda p: p[:, 0] ** 4, 2,
                scheme=QuadScheme.gauss_hermite(12), expect_polynomial=True)


def test_project_parseval_for_polynomials():
    g = SpectralGaussian([1.0, 2.0])
    f = lambda p: 1.0 + p[:, 0] * p[:, 1] + 0.5 * p[:, 1] ** 3
    e = project(g, f, 4, scheme=QuadScheme.gauss_hermite(8), expect_polynomial=True)
    mass = expect(g, lambda p: f(p) ** 2, QuadScheme.gauss_hermite(8))
    assert l2_norm(e) ** 2 == pytest.approx(mass, abs=1e-9)


def test_project_monte_carlo_agrees():
    g = SpectralGaussian([1.0])
    e_mc = project(g, lambda p: p[:, 0] ** 2, 2,
                   scheme=QuadScheme.monte_carlo(400_000, seed=5))
    assert e_mc[(2,)] == pytest.approx(math.sqrt(2.0), abs=0.02)


def test_project_refuses_an_oversized_grid_before_enumerating():
    # 5^60 grid points; enumerating the 39 711 indices of degree <= 3 in 60
    # coordinates alone would take over a second
    gamma = SpectralGaussian(1.0 / np.arange(1, 61) ** 2)
    calls = []

    def f(p):
        calls.append(len(p))
        return p[:, 0] ** 2 * p[:, 1]

    start = time.perf_counter()
    with pytest.raises(SchemeTooCoarse):
        project(gamma, f, 3, QuadScheme.gauss_hermite(5))
    assert time.perf_counter() - start < 0.5
    assert not calls


def test_project_skips_kernel_directions():
    g = SpectralGaussian([1.0, 0.0])
    e = project(g, lambda p: p[:, 0], 2)
    assert e[(1, 0)] == pytest.approx(1.0, abs=1e-12)
    assert all(a[1] == 0 for a in e.coeffs)


def test_project_monte_carlo_is_the_weighted_rule_sum():
    # the kernel direction x_1 is pruned from the draws and from the basis
    g = SpectralGaussian([1.5, 0.0, 0.6])
    scheme = QuadScheme.monte_carlo(70_000, seed=3)
    f = lambda p: np.exp(0.3 * p[:, 0] - 0.2 * p[:, 2])
    e = project(g, f, 2, scheme)
    pts, w = gauss_rule(scheme, g.sqrt_cols())
    assert np.all(pts[:, 1] == 0.0)
    fv = f(pts)
    for alpha in enumerate_up_to(3, 2):
        if alpha[1] == 0:
            want = np.dot(w, fv * phi_alpha(g, alpha, pts))
            assert e[alpha] == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert all(a[1] == 0 for a in e.coeffs)


def orthonormal_hermite(e, xi):
    """He_e(xi)/sqrt(e!) from numpy's own HermiteE series."""
    return HermiteE.basis(e)(xi) / math.sqrt(math.factorial(e))


def per_term_sum(gamma, terms, pts):
    """Sum of c * Phi_alpha over the (alpha, c) in terms, one term at a time:
    the reference for the table evaluator behind eval_expansion."""
    xi = np.atleast_2d(pts) * gamma.inv_scale
    out = np.zeros(len(xi))
    for alpha, c in terms:
        phi = np.full(len(xi), c)
        for j, e in enumerate(alpha):
            if e:
                phi = phi * orthonormal_hermite(e, xi[:, j])
        out += phi
    return out


def per_index_projection(gamma, f, max_degree, nodes):
    """c_alpha = sum_i w_i f(x_i) Phi_alpha(x_i) over the tensor grid, one
    pass over the grid per multi-index: the reference for the sum-factorised
    projection."""
    pts, w = gauss_rule(QuadScheme.gauss_hermite(nodes), gamma.sqrt_cols())
    fv = f(pts)
    out = {}
    for alpha in enumerate_up_to(gamma.dim, max_degree):
        if any(e and not s for e, s in zip(alpha, gamma.support)):
            out[alpha] = 0.0
        else:
            out[alpha] = float(np.dot(w, per_term_sum(gamma, [(alpha, 1.0)], pts) * fv))
    return out


ORACLE_MEASURES = [[1.2], [0.7, 1.3], [1.5, 0.4, 0.9], [0.6, 1.1, 0.8, 1.4],
                   [1.0, 1e-14, 0.0, 2.0]]


@pytest.mark.parametrize("lam", ORACLE_MEASURES, ids=lambda lam: f"dim{len(lam)}")
@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("fine", [False, True], ids=["truncating", "fine"])
def test_project_on_a_grid_matches_the_per_index_loop(lam, degree, fine):
    g = SpectralGaussian(lam)
    rng = np.random.default_rng(len(lam) * 10 + degree)
    a, b, c = rng.uniform(-0.5, 0.5, (3, g.dim))
    f = lambda p: np.cos(p @ a) + (p @ b) ** 3 + p[:, 0] * (p @ c)
    # fewer nodes than degree + 1 leave some partial indices to cut off
    nodes = degree + 3 if fine else max(1, degree // 2)
    e = project(g, f, degree, QuadScheme.gauss_hermite(nodes))
    want = per_index_projection(g, f, degree, nodes)
    gap = max(abs(e[alpha] - w) for alpha, w in want.items())
    assert gap <= 1e-14


def test_sum_factorised_takes_per_axis_node_counts():
    nodes = (2, 5, 3)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(nodes)
    tables = [chaos._weighted_basis(n, 4) for n in nodes]
    want = [np.einsum("i,j,k,ijk->", tables[0][a0], tables[1][a1], tables[2][a2],
                      values) for a0, a1, a2 in enumerate_up_to(3, 4)]
    got = chaos._sum_factorised(values.reshape(-1), nodes, 4)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def table_evaluator_cases():
    g = SpectralGaussian([1.3, 0.0, 0.6, 2.0])
    rng = np.random.default_rng(11)
    alphas = [a for a in enumerate_up_to(4, 5) if a[1] == 0]
    coeffs = dict(zip(alphas, rng.uniform(-1.0, 1.0, len(alphas))))
    return g, ChaosExpansion(g, 5, coeffs), g.sample(40, seed=5)


def test_table_evaluator_matches_the_per_term_loop():
    g, e, pts = table_evaluator_cases()
    assert eval_expansion(e, pts) == pytest.approx(
        per_term_sum(g, e.coeffs.items(), pts), rel=1e-14, abs=1e-14)
    assert eval_expansion(e, pts[3]) == pytest.approx(
        per_term_sum(g, e.coeffs.items(), pts[3])[0], rel=1e-14, abs=1e-14)
    for alpha in [(0, 0, 0, 0), (2, 0, 0, 3), (0, 0, 5, 0), (1, 0, 1, 1)]:
        assert phi_alpha(g, alpha, pts) == pytest.approx(
            per_term_sum(g, [(alpha, 1.0)], pts), rel=1e-14, abs=1e-14)
        assert phi_alpha(g, alpha, pts[0]) == pytest.approx(
            per_term_sum(g, [(alpha, 1.0)], pts[0])[0], rel=1e-14, abs=1e-14)
    xs = pts[:, 0]
    for n in range(6):
        assert hermite_phi(n, xs) == pytest.approx(
            HermiteE.basis(n)(xs) / math.factorial(n), rel=1e-14, abs=1e-14)
        assert hermite_phi(n, xs[1]) == pytest.approx(
            HermiteE.basis(n)(xs[1]) / math.factorial(n), rel=1e-14, abs=1e-14)


def test_table_evaluator_chunks_give_the_small_batch_values(monkeypatch):
    g, e, pts = table_evaluator_cases()
    small = np.concatenate([eval_expansion(e, pts[i:i + 4])
                            for i in range(0, len(pts), 4)])
    # a budget of three points' worth of terms splits the batch in 14 chunks
    monkeypatch.setattr(chaos, "BLOCK_MAX_ENTRIES", 3 * len(e.coeffs))
    chunked = eval_expansion(e, pts)
    assert np.array_equal(chunked, small)
    assert np.array_equal(chunked, [eval_expansion(e, p) for p in pts])


def test_table_evaluator_checks_every_term():
    g = SpectralGaussian([1.0, 0.0])
    with pytest.raises(DegreeTooLarge):
        phi_alpha(g, (61, 0), [0.1, 0.0])
    with pytest.raises(DegreeTooLarge):
        eval_expansion(ChaosExpansion(g, 61, {(1, 0): 1.0, (61, 0): 0.5}),
                       np.zeros((2, 2)))
    # a kernel load is reported before any degree beyond the cap
    with pytest.raises(OffSupport):
        eval_expansion(ChaosExpansion(g, 61, {(61, 0): 0.5, (0, 1): 1.0}),
                       np.zeros((2, 2)))


def test_exp_functional_coeffs_one_dim():
    g = SpectralGaussian([1.0])
    e = exp_functional_coeffs(g, [1.0], 3)
    assert e[(0,)] == pytest.approx(1.0)
    assert e[(1,)] == pytest.approx(1.0)
    assert e[(2,)] == pytest.approx(1.0 / math.sqrt(2.0))
    assert e[(3,)] == pytest.approx(1.0 / math.sqrt(6.0))


def test_exp_functional_coeffs_zero():
    g = SpectralGaussian([1.0, 1.0])
    e = exp_functional_coeffs(g, [0.0, 0.0], 4)
    assert e.coeffs == {(0, 0): 1.0}


def test_exp_functional_coeffs_match_projection():
    from ouchaos.gaussian import exp_functional
    g = SpectralGaussian([1.0, 0.5])
    z = np.array([0.7, -0.4])
    closed = exp_functional_coeffs(g, z, 4)
    projected = project(g, lambda p: exp_functional(g, z, p), 4,
                        scheme=QuadScheme.gauss_hermite(40))
    for alpha in enumerate_up_to(2, 4):
        assert projected[alpha] == pytest.approx(closed[alpha], abs=1e-9)


def test_exp_functional_tail_shrinks():
    g = SpectralGaussian([1.0])
    z = np.array([0.9])
    full = math.exp(float(z @ z))
    tails = [full - l2_norm(exp_functional_coeffs(g, z, n)) ** 2 for n in (2, 5, 9)]
    assert tails[0] > tails[1] > tails[2] > 0


def test_monomial_coeffs_degree_one():
    g = SpectralGaussian([1.0, 1.0])
    e = monomial_coeffs(g, [np.array([1.0, 0.0])])
    assert e.coeffs == {(1, 0): 1.0}


def test_monomial_coeffs_square():
    g = SpectralGaussian([1.0])
    e = monomial_coeffs(g, [np.array([1.0]), np.array([1.0])])
    assert e.coeffs == {(2,): pytest.approx(math.sqrt(2.0))}


def test_monomial_coeffs_match_projection():
    g = SpectralGaussian([1.0, 2.0])
    rng = np.random.default_rng(17)
    hs = [rng.standard_normal(2) for _ in range(3)]
    closed = monomial_coeffs(g, hs)
    f = lambda p: np.prod([white_noise(g, h, p) for h in hs], axis=0)
    projected = project(g, f, 3, scheme=QuadScheme.gauss_hermite(12))
    for alpha in enumerate_indices(2, 3):
        assert projected[alpha] == pytest.approx(closed[alpha], abs=1e-9)
    # degree grading: nothing outside the top slice
    assert all(a.order == 3 for a in closed.coeffs)


def permutation_monomial_coeffs(gamma, hs):
    """The rearrangement sum monomial_coeffs used to evaluate directly."""
    coeffs = {}
    for alpha in enumerate_indices(gamma.dim, len(hs)):
        if any(e > 0 and not gamma.support[j] for j, e in enumerate(alpha)):
            continue
        total = 0.0
        for tau in sorted(set(itertools.permutations(alpha.repeated()))):
            term = 1.0
            for k, pos in enumerate(tau):
                term *= hs[k][pos]
            total += term
        c = math.sqrt(alpha.factorial) * total
        if c != 0.0:
            coeffs[alpha] = c
    return coeffs


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6, 8])
def test_monomial_coeffs_match_rearrangement_sum(n):
    rng = np.random.default_rng(n)
    g = SpectralGaussian([1.0, 0.0, 2.0, 0.5])
    hs = [rng.standard_normal(4) for _ in range(n)]
    got = monomial_coeffs(g, hs).coeffs
    want = permutation_monomial_coeffs(g, hs)
    assert set(got) == set(want)
    for alpha, c in want.items():
        assert got[alpha] == pytest.approx(c, rel=1e-12, abs=1e-12)


def test_monomial_coeffs_factor_cap():
    g = SpectralGaussian([1.0])
    with pytest.raises(SizeTooLarge):
        monomial_coeffs(g, [np.array([1.0])] * 9)


def test_eval_expansion_and_norm():
    g = SpectralGaussian([1.0])
    empty = ChaosExpansion(g, 2, {})
    assert eval_expansion(empty, [0.3]) == 0.0
    assert l2_norm(empty) == 0.0
    e = ChaosExpansion(g, 1, {(0,): 1.0, (1,): 1.0})
    assert eval_expansion(e, [0.0]) == pytest.approx(1.0)
    assert eval_expansion(e, np.array([[0.0], [2.0]])) == pytest.approx([1.0, 3.0])


def test_l2_norm_of_exponential():
    g = SpectralGaussian([1.0])
    e = exp_functional_coeffs(g, [1.0], 30)
    assert l2_norm(e) == pytest.approx(math.sqrt(math.e), abs=1e-8)


def test_expansion_validates_plain_tuple_keys():
    g = SpectralGaussian([1.0, 1.0])
    with pytest.raises(ValueError):
        ChaosExpansion(g, 2, {(1, -1): 0.5})
    with pytest.raises(ValueError):
        ChaosExpansion(g, 2, {(1, 0, 0): 0.5})
    e = ChaosExpansion(g, 2, {(1, 0): 0.5, MultiIndex((0, 2)): -1.25})
    assert all(type(a) is MultiIndex for a in e.coeffs)
    assert e[(1, 0)] == 0.5 and e[MultiIndex((0, 2))] == -1.25
    with pytest.raises(ValueError):
        e[(1, -1)]


def test_expansion_json_round_trip():
    g = SpectralGaussian([1.0, 1.0])
    e = ChaosExpansion(g, 2, {(1, 0): 0.5, (0, 2): -1.25})
    back = ChaosExpansion.from_json(e.to_json(), g, 2)
    assert back.coeffs == e.coeffs


def test_expansion_reconstructs_function():
    g = SpectralGaussian([1.0, 3.0])
    f = lambda p: p[:, 0] ** 2 * p[:, 1] - p[:, 1]
    e = project(g, f, 3, scheme=QuadScheme.gauss_hermite(8))
    pts = g.sample(6, seed=2)
    assert eval_expansion(e, pts) == pytest.approx(f(pts), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=4))
def test_exp_coeff_slices_have_closed_norm(n):
    # degree-n mass of E_z is ||z||^{2n}/n!
    g = SpectralGaussian([1.0, 1.0])
    z = np.array([0.6, -0.3])
    e = exp_functional_coeffs(g, z, n)
    mass = sum(c * c for a, c in e.coeffs.items() if a.order == n)
    assert mass == pytest.approx(float(z @ z) ** n / math.factorial(n), rel=1e-12)
