"""The vector-backed expansions against the dict routes they replaced.

Each reference below is the dict-building body that ``project``,
``gamma_series_apply``, ``exp_functional_coeffs`` and ``monomial_coeffs``
had before expansions held one coefficient vector.  The library must hand
out the same keys, in the same order, with the same float bits.
"""

import itertools
import math

import numpy as np
import pytest

from ouchaos import chaos
from ouchaos.chaos import (ChaosExpansion, exp_functional_coeffs, l2_norm,
                           monomial_coeffs, project)
from ouchaos.evolution import decay_ratio, pst_contraction
from ouchaos.gaussian import SpectralGaussian
from ouchaos.numerics import QuadScheme, _rule_batches, eval_batch
from ouchaos.presets import build_preset
from ouchaos.secondquant import CMContraction, gamma_series_apply


def project_by_dict(gamma, f, max_degree, scheme):
    live = np.flatnonzero(gamma.support)
    alphas = [a for n in range(max_degree + 1)
              for a in chaos._indices(gamma.dim, n, tuple(live.tolist()))]
    factors = [[(a[j], i) for i, j in enumerate(live) if a[j]] for a in alphas]
    sums = np.zeros(len(alphas))
    sq_mass = 0.0
    for x, w in _rule_batches(scheme, gamma.sqrt_cols()):
        fv = eval_batch(f, x)
        sq_mass += float(np.dot(w, fv * fv))
        if scheme.kind == "monte_carlo":
            table = chaos._basis_table(x[:, live].T / gamma.scale[live, None],
                                       max_degree)
            for i, pairs in enumerate(factors):
                v = fv
                for e, j in pairs:
                    v = v * table[e, j]
                sums[i] += np.dot(w, v)
        else:
            sums = chaos._sum_factorised(fv, (scheme.nodes,) * len(live),
                                         max_degree)
    coeffs = dict(zip(alphas, sums.tolist()))
    residual_sq = sq_mass - sum(c * c for c in coeffs.values())
    return ({a: c for a, c in coeffs.items() if c != 0.0},
            math.sqrt(max(residual_sq, 0.0)))


def gamma_series_by_dict(t_op, coeffs, max_degree):
    out = {}
    for n, block in enumerate(chaos._symmetric_powers(t_op.matrix, max_degree)):
        v = np.array([coeffs.get(a, 0.0) for a in chaos._indices(t_op.mu.dim, n)])
        if not v.any():
            continue
        image = block @ v
        out.update((b, c) for b, c in zip(chaos._indices(t_op.nu.dim, n),
                                          image.tolist()) if c != 0.0)
    return out


def exp_by_dict(gamma, z, max_degree):
    z = np.asarray(z, dtype=float)
    live = np.flatnonzero(gamma.support & (z != 0.0)).tolist()
    out = {}
    for n in range(max_degree + 1):
        for alpha in chaos._indices(gamma.dim, n, tuple(live)):
            c = 1.0
            for j in live:
                c *= z[j] ** alpha[j]
            out[alpha] = float(c / math.sqrt(alpha.factorial))
    return {a: c for a, c in out.items() if c != 0.0}


def monomial_by_dict(gamma, hs):
    d, poly = gamma.dim, np.ones((1, 1))
    for k, h in enumerate(hs, start=1):
        live = np.where(gamma.support, h, 0.0)
        poly = chaos._times_linear_forms(poly, *chaos._index_tables(d, k),
                                         live[:, None])
    roots = np.array([math.sqrt(a.factorial) for a in chaos._indices(d, len(hs))])
    values = (poly[:, 0] * roots).tolist()
    return {a: c for a, c in zip(chaos._indices(d, len(hs)), values) if c != 0.0}


def bits(coeffs):
    """Keys in order, with the exact bits of each coefficient."""
    return [(tuple(a), float(c).hex()) for a, c in coeffs.items()]


def measure(d, kernel):
    lam = np.linspace(1.5, 0.5, d)
    if kernel:
        lam[d // 2] = 0.0
    return SpectralGaussian(lam)


def polynomial(d, max_degree, seed):
    """A random f of degree max_degree in d variables, plus an exponential
    that loads the coefficients above it."""
    rng = np.random.default_rng(seed)
    powers = [p for p in itertools.product(range(max_degree + 1), repeat=d)
              if sum(p) <= max_degree] if d <= 4 else [
        tuple(int(i == j) * e for i in range(d))
        for j in range(d) for e in range(max_degree + 1)]
    powers = np.array(powers)
    c = rng.uniform(-1.0, 1.0, len(powers))
    w = rng.uniform(-0.3, 0.3, d)
    return lambda x: (np.prod(x[:, None, :] ** powers[None], axis=2) @ c
                      + np.exp(x @ w))


# (d, max_degree, kernel axis, scheme)
PROJECTIONS = [
    (1, 5, False, QuadScheme.gauss_hermite(7)),
    (2, 5, False, QuadScheme.gauss_hermite(7)),
    (3, 4, True, QuadScheme.gauss_hermite(6)),
    (4, 3, False, QuadScheme.gauss_hermite(5)),
    (8, 2, True, QuadScheme.gauss_hermite(4)),
    (3, 3, False, QuadScheme.monte_carlo(3_000, seed=4)),
    (5, 2, True, QuadScheme.monte_carlo(2_000, seed=5)),
    (8, 2, False, QuadScheme.monte_carlo(1_000, seed=6)),
]


@pytest.mark.parametrize("d, n, kernel, scheme", PROJECTIONS)
def test_project_matches_the_dict_route(d, n, kernel, scheme):
    gamma, f = measure(d, kernel), polynomial(d, n, d + n)
    want, residual = project_by_dict(gamma, f, n, scheme)
    got = project(gamma, f, n, scheme)
    assert bits(got.coeffs) == bits(want)
    assert got.residual.hex() == residual.hex()
    assert l2_norm(got).hex() == math.sqrt(sum(c * c for c in want.values())).hex()


def test_project_matches_the_dict_route_at_60_axes():
    gamma = SpectralGaussian(1.0 / np.arange(1, 61))
    rng = np.random.default_rng(60)
    w = rng.uniform(-0.2, 0.2, 60)
    f = lambda x: np.exp(x @ w) + x[:, 0] * x[:, 59] ** 2
    scheme = QuadScheme.monte_carlo(300, seed=60)
    want, residual = project_by_dict(gamma, f, 3, scheme)
    got = project(gamma, f, 3, scheme)
    assert bits(got.coeffs) == bits(want)
    assert got.residual.hex() == residual.hex()


def contraction(mu, nu, diagonal, seed):
    rng = np.random.default_rng(seed)
    if diagonal:
        m = np.zeros((nu.dim, mu.dim))
        np.fill_diagonal(m, rng.uniform(-0.9, 0.9, min(mu.dim, nu.dim)))
    else:
        m = rng.standard_normal((nu.dim, mu.dim))
        m *= 0.9 / np.linalg.norm(m, 2)
    return CMContraction(mu, nu, m)


# (d of mu, d of nu, max_degree, kernel axis in mu)
SERIES = [(1, 1, 5, False), (2, 2, 5, False), (3, 3, 4, True),
          (4, 2, 4, False), (3, 5, 3, True), (8, 8, 3, True), (8, 8, 5, False)]


@pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("d, d_out, n, kernel", SERIES)
def test_gamma_series_apply_matches_the_dict_route(d, d_out, n, kernel, diagonal):
    mu, nu = measure(d, kernel), measure(d_out, False)
    t_op = contraction(mu, nu, diagonal, d * 10 + n)
    z = np.linspace(-0.6, 0.7, d)
    z[0] = 0.0
    inputs = [exp_functional_coeffs(mu, z, n)]
    if d <= 3:
        inputs.append(project(mu, polynomial(d, n, n), n,
                              QuadScheme.gauss_hermite(n + 2)))
    for e in inputs:
        want = gamma_series_by_dict(t_op, e.coeffs, n)
        got = gamma_series_apply(t_op, e)
        assert bits(got.coeffs) == bits(want)


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("n", range(6))
def test_exp_functional_coeffs_match_the_dict_route(d, n):
    gamma = measure(d, kernel=d > 2)
    z = np.linspace(-0.9, 1.3, d)
    if d > 3:
        z[1] = 0.0
    got = exp_functional_coeffs(gamma, z, n)
    want = exp_by_dict(gamma, z, n)
    assert bits(got.coeffs) == bits(want)
    assert l2_norm(got).hex() == math.sqrt(sum(c * c for c in want.values())).hex()


def test_exp_functional_coeffs_match_the_dict_route_at_60_axes():
    gamma = measure(60, kernel=True)
    z = np.linspace(-0.5, 0.8, 60)
    got = exp_functional_coeffs(gamma, z, 3)
    assert bits(got.coeffs) == bits(exp_by_dict(gamma, z, 3))


@pytest.mark.parametrize("d, n", [(1, 5), (3, 4), (5, 3), (8, 2), (60, 3)])
def test_monomial_coeffs_match_the_dict_route(d, n):
    gamma = measure(d, kernel=d > 1)
    rng = np.random.default_rng(d + n)
    hs = list(rng.standard_normal((n, d)))
    assert bits(monomial_coeffs(gamma, hs).coeffs) == bits(monomial_by_dict(gamma, hs))


def test_a_callers_dict_comes_back_in_graded_colex_order():
    g = SpectralGaussian([1.0, 0.0, 0.5, 2.0])
    given = {(0, 0, 1, 2): 0.25, (2, 0, 0, 0): -1.0, (0, 0, 0, 0): 3.0,
             (1, 0, 0, 1): 0.5, (0, 0, 0, 1): 0.0}
    e = ChaosExpansion(g, 3, given)
    order = [a for a in chaos.enumerate_up_to(4, 3) if given.get(a)]
    assert list(e.coeffs) == order
    assert e.sorted_items() == [(a, given[a]) for a in order]
    assert all(type(a) is chaos.MultiIndex for a in e.coeffs)


def test_writes_to_coeffs_do_not_reach_the_expansion():
    g = SpectralGaussian([1.0, 0.5])
    e = exp_functional_coeffs(g, [0.3, -0.4], 2)
    norm = l2_norm(e)
    e.coeffs[(1, 0)] = 99.0
    assert l2_norm(e) == norm
    assert gamma_series_apply(CMContraction.identity(g), e)[(1, 0)] == 0.3


def test_decay_ratio_matches_the_dict_route():
    model = build_preset("heat1d", {"dim": 4})
    f = lambda p: p[:, 0] ** 2 * p[:, 1] * p[:, 3] - 0.5 * p[:, 2] + 0.2
    gamma_t = model.measure_at(0.5)
    scheme = QuadScheme.gauss_hermite(6)
    coeffs, _ = project_by_dict(gamma_t, f, 4, scheme)
    image = gamma_series_by_dict(pst_contraction(model, 0.0, 0.5), coeffs, 4)
    zero = (0,) * 4

    def centred_norm(c):
        return math.sqrt(sum(v * v for a, v in c.items() if a != zero))

    want = centred_norm(image) / centred_norm(coeffs)
    got = decay_ratio(model, f, 2.0, 0.0, 0.5, scheme, degree=4)
    assert got.hex() == want.hex()


def test_the_vector_routes_build_no_multi_index(monkeypatch):
    def refuse(*args):
        raise AssertionError("_indices called")

    model = build_preset("heat1d", {"dim": 4})
    f = lambda p: p[:, 0] ** 2 * p[:, 1] - 0.5 * p[:, 3] + 0.2
    mu = SpectralGaussian([1.0, 0.0, 0.5])
    monkeypatch.setattr(chaos, "_indices", refuse)
    assert decay_ratio(model, f, 2.0, 0.0, 0.5, degree=3) > 0.0
    e = project(mu, lambda p: p[:, 0] ** 3 - p[:, 2], 3)
    gamma_series_apply(contraction(mu, mu, False, 3), e)
    z = np.linspace(0.1, 0.5, 30)
    norm = l2_norm(exp_functional_coeffs(SpectralGaussian(np.ones(30)), z, 3))
    r2 = float(z @ z)
    assert norm == pytest.approx(
        math.sqrt(sum(r2 ** k / math.factorial(k) for k in range(4))), rel=1e-13)
