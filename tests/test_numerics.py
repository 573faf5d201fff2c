import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouchaos import numerics
from ouchaos.chaos import project
from ouchaos.errors import QuadratureFailure, SchemeTooCoarse
from ouchaos.gaussian import SpectralGaussian
from ouchaos.numerics import (QuadScheme, eval_batch,
                              gauss_expect, gauss_expect_err, gauss_rule,
                              gh_nodes, gh_tensor, mc_estimate,
                              panel_integrate, psd_sqrt, rule_size)


def test_gh_one_point_rule_is_the_mean():
    x, w = gh_nodes(1)
    assert x == pytest.approx([0.0])
    assert w == pytest.approx([1.0])


def test_gh_two_point_rule():
    x, w = gh_nodes(2)
    assert sorted(x) == pytest.approx([-1.0, 1.0])
    assert w == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("n", [3, 7, 20, 128])
def test_gh_standard_normal_moments(n):
    x, w = gh_nodes(n)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(w, x) == pytest.approx(0.0, abs=1e-12)
    assert np.dot(w, x ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(w, x ** 4) == pytest.approx(3.0, abs=1e-10)


def test_gh_node_count_bounds():
    with pytest.raises(ValueError):
        gh_nodes(0)
    with pytest.raises(ValueError):
        gh_nodes(129)


def test_gh_tensor_grid_weights_sum_to_one():
    pts, wts = gh_tensor(3, 4)
    assert pts.shape == (64, 3)
    assert np.sum(wts) == pytest.approx(1.0, abs=1e-13)
    # mixed moment E[x0^2 x1^2] = 1 for independent standard normals
    assert np.dot(wts, pts[:, 0] ** 2 * pts[:, 1] ** 2) == pytest.approx(1.0, abs=1e-12)


def test_gh_tensor_grid_size_cap():
    with pytest.raises(SchemeTooCoarse):
        gh_tensor(10, 10)


def meshgrid_tensor(dim, n):
    """Reference tensor grid gathered from meshgrid index arrays."""
    x, w = gh_nodes(n)
    axes = [g.reshape(-1) for g in
            np.meshgrid(*([np.arange(n)] * dim), indexing="ij")]
    pts = np.stack([x[i] for i in axes], axis=-1)
    wts = np.ones(len(pts))
    for i in axes:
        wts *= w[i]
    return pts, wts


@pytest.mark.parametrize("dim", range(1, 6))
def test_gh_tensor_is_the_meshgrid_grid_bit_for_bit(dim):
    for n in (1, 2, 3, 5, 12):
        got, want = gh_tensor(dim, n), meshgrid_tensor(dim, n)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
            assert a.flags.writeable


def test_gh_tensor_in_no_dimension_is_one_point():
    # a Monte Carlo rule with no live column asks for gh_tensor(0, 0)
    pts, wts = gh_tensor(0, 0)
    assert pts.shape == (1, 0) and np.array_equal(wts, [1.0])
    scheme = QuadScheme.monte_carlo(100, seed=1)
    pts, wts = gauss_rule(scheme, np.zeros((2, 1)))
    assert np.array_equal(pts, np.zeros((1, 2))) and np.array_equal(wts, [1.0])
    mean = np.array([0.5, -2.0])
    assert gauss_expect_err(lambda p: p[:, 0] * p[:, 1], mean,
                            np.zeros((2, 1)), scheme) == (-1.0, 0.0)


def test_scheme_validation():
    with pytest.raises(ValueError):
        QuadScheme(kind="midpoint")
    with pytest.raises(ValueError):
        QuadScheme.gauss_hermite(0)
    with pytest.raises(ValueError):
        QuadScheme.monte_carlo(1)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
def test_scheme_refuses_a_tolerance_that_is_not_finite_and_positive(tolerance):
    with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
        QuadScheme.monte_carlo(10, tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
        QuadScheme.gauss_hermite(4, tolerance=tolerance)


def test_gauss_expect_quadratic_exact():
    # E[(mu + sqrt(lam) xi)^2] = mu^2 + lam, exact at 2 nodes
    scheme = QuadScheme.gauss_hermite(2)
    val = gauss_expect(lambda p: p[:, 0] ** 2, np.array([0.5]),
                       np.array([[math.sqrt(2.0)]]), scheme)
    assert val == pytest.approx(0.25 + 2.0, abs=1e-13)


def test_gauss_expect_prunes_zero_columns():
    scheme = QuadScheme.gauss_hermite(3)
    cols = np.array([[1.0, 0.0], [0.0, 0.0]])
    full = gauss_expect(lambda p: np.exp(p[:, 0]), np.zeros(2),
                        cols[:, :1], scheme)
    padded = gauss_expect(lambda p: np.exp(p[:, 0]), np.zeros(2), cols, scheme)
    assert padded == full


def test_gauss_expect_deterministic_point_mass():
    scheme = QuadScheme.gauss_hermite(5)
    val = gauss_expect(lambda p: p[:, 0] + p[:, 1], np.array([2.0, 3.0]),
                       np.zeros((2, 0)), scheme)
    assert val == pytest.approx(5.0)


def test_gauss_expect_takes_a_one_point_callable_only_through_vectorize():
    def g(p):
        return float(p[0]) ** 2

    scheme = QuadScheme.gauss_hermite(4)
    with pytest.raises(TypeError):
        gauss_expect(g, np.zeros(1), np.eye(1), scheme)
    val = gauss_expect(np.vectorize(g, signature="(n)->()"), np.zeros(1),
                       np.eye(1), scheme)
    assert val == pytest.approx(1.0, abs=1e-12)


# the last three are the ways a one-point f fails on a batch; none of them
# makes eval_batch call f again point by point
@pytest.mark.parametrize("error", [RuntimeError("broken f"),
                                   SchemeTooCoarse("inner scheme"),
                                   TypeError("only 0-dimensional arrays"),
                                   IndexError("index 2 is out of bounds"),
                                   ValueError("truth value is ambiguous")])
def test_eval_batch_propagates_genuine_errors_from_the_first_call(error):
    calls = []

    def f(p):
        calls.append(len(p))
        raise error

    with pytest.raises(type(error)):
        eval_batch(f, np.zeros((5, 2)))
    assert calls == [5]


def test_eval_batch_names_a_result_of_the_wrong_shape():
    calls = []

    def f(p):
        calls.append(len(p))
        return p[0]

    # a one-point f returns d = 2 values for a batch of 5 points
    with pytest.raises(ValueError, match=r"shape \(2,\) for 5 points"):
        eval_batch(f, np.zeros((5, 2)))
    assert calls == [5]


def test_eval_batch_flattens_a_column_result_in_one_call():
    calls = []

    def f(p):
        calls.append(len(p))
        return (p[:, 0] * p[:, 1])[:, None]

    pts = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    out = eval_batch(f, pts)
    assert out.shape == (3,) and calls == [3]
    assert out.tolist() == [2.0, -3.0, 0.25]


def test_eval_batch_lets_warnings_of_f_through():
    pts = np.array([[1.0], [-1.0]])
    with pytest.warns(RuntimeWarning):
        out = eval_batch(lambda p: np.log(p[:, 0]), pts)
    assert out[0] == 0.0 and np.isnan(out[1])


def test_gauss_rule_monte_carlo_draws_are_those_of_mc_estimate():
    # 70 000 samples span two Philox batches; the zero column is pruned
    scheme = QuadScheme.monte_carlo(70_000, seed=5)
    cols = np.array([[0.8, 0.0, 0.1], [0.0, 0.0, 0.5]])
    f = lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2
    pts, w = gauss_rule(scheme, cols)
    assert pts.shape == (70_000, 2)
    assert rule_size(scheme, cols) == 70_000
    assert rule_size(QuadScheme.gauss_hermite(4), cols) == 16
    est, _ = gauss_expect_err(f, np.zeros(2), cols, scheme)
    assert np.dot(w, f(pts)) == pytest.approx(est, rel=1e-12)


def test_gauss_rule_points_are_the_philox_draws_of_each_batch():
    # 70 000 samples span two Philox batches, and the zero column is pruned;
    # the rule keeps copies of the pieces, so a second call leaves it alone
    scheme = QuadScheme.monte_carlo(70_000, seed=5)
    cols = np.array([[0.8, 0.0, 0.1], [0.0, 0.0, 0.5]])
    pts, _ = gauss_rule(scheme, cols)
    for piece, _ in numerics._rule_batches(scheme, cols):
        assert not np.shares_memory(pts, piece)
    live = cols[:, [0, 2]]
    want = []
    for k, start in enumerate(range(0, 70_000, numerics._MC_BATCH)):
        gen = np.random.Generator(np.random.Philox(key=np.uint64(5)).jumped(k))
        size = min(numerics._MC_BATCH, 70_000 - start)
        want.append(gen.standard_normal((size, 2)) @ live.T)
    assert len(want) == 2
    assert np.array_equal(pts, np.concatenate(want))


def test_one_point_monte_carlo_is_mc_estimate_on_the_same_draws():
    # 70 000 samples span two Philox batches; f sees one piece of a batch at
    # a time, eight pieces of the first batch and the second batch whole
    scheme = QuadScheme.monte_carlo(70_000, seed=9)
    mean = np.array([0.3, -0.1])
    cols = np.array([[0.8, 0.1], [0.0, 0.5]])
    sizes = []

    def f(p):
        sizes.append(len(p))
        return np.cos(p[:, 0]) * p[:, 1] ** 2

    def sampler(gen, size):
        return mean + gen.standard_normal((size, 2)) @ cols.T

    est, err = gauss_expect_err(f, mean, cols, scheme)
    assert sizes == [8192] * 8 + [4464]
    want, want_err = mc_estimate(f, sampler, 70_000, seed=9)
    assert est == pytest.approx(want, rel=1e-12)
    assert err == pytest.approx(want_err, rel=1e-12)


def test_gauss_expect_monte_carlo_matches_quadrature():
    f = lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2
    mean = np.array([0.3, -0.1])
    cols = np.array([[0.8, 0.1], [0.0, 0.5]])
    exact = gauss_expect(f, mean, cols, QuadScheme.gauss_hermite(40))
    est, err = gauss_expect_err(f, mean, cols,
                                QuadScheme.monte_carlo(200_000, seed=7))
    assert abs(est - exact) < 5 * err + 1e-12


def test_monte_carlo_is_deterministic_per_seed():
    scheme = QuadScheme.monte_carlo(50_000, seed=11)
    f = lambda p: np.sin(p[:, 0])
    a = gauss_expect(f, np.zeros(1), np.eye(1), scheme)
    b = gauss_expect(f, np.zeros(1), np.eye(1), scheme)
    assert a == b
    c = gauss_expect(f, np.zeros(1), np.eye(1),
                     QuadScheme.monte_carlo(50_000, seed=12))
    assert c != a


def test_monte_carlo_tolerance_enforced():
    scheme = QuadScheme.monte_carlo(1_000, seed=0, tolerance=1e-8)
    with pytest.raises(SchemeTooCoarse):
        gauss_expect(lambda p: p[:, 0] ** 2, np.zeros(1), np.eye(1), scheme)


@pytest.mark.parametrize("rows", [3, 60])
def test_gauss_average_tolerance_is_each_rows_standard_error(rows, monkeypatch):
    # 40 draws around 3 or 60 rows: the worst row's standard error sets the
    # threshold, also when the draws come in Philox batches of 16
    cols = np.array([[0.8, 0.0], [0.3, 0.5]])
    f = lambda p: np.exp(0.5 * p[:, 0]) + p[:, 1] ** 2
    means = np.random.default_rng(8).standard_normal((rows, 2))
    for batch in (numerics._MC_BATCH, 16):
        monkeypatch.setattr(numerics, "_MC_BATCH", batch)
        pts, _ = gauss_rule(QuadScheme.monte_carlo(40, seed=2), cols)
        vals = np.array([f(m + pts) for m in means])
        err = vals.std(axis=1, ddof=1) / math.sqrt(40)
        worst = float(np.max(err / np.maximum(1.0, np.abs(vals.mean(axis=1)))))
        out, out_err = gauss_expect_err(f, means, cols, QuadScheme.monte_carlo(
            40, seed=2, tolerance=worst * (1.0 + 1e-9)))
        assert out == pytest.approx(vals.mean(axis=1), rel=1e-14)
        assert out_err == pytest.approx(err, rel=1e-12)
        with pytest.raises(SchemeTooCoarse):
            gauss_expect_err(f, means, cols, QuadScheme.monte_carlo(
                40, seed=2, tolerance=worst * (1.0 - 1e-9)))


@pytest.mark.parametrize("rows", [3, 40, 700])
def test_gauss_average_streams_monte_carlo_batches(rows, monkeypatch):
    # 100 draws in batches of 16: f sees one piece around a block of means,
    # at most 8 192 points at a time, never the whole rule
    monkeypatch.setattr(numerics, "_MC_BATCH", 16)
    scheme = QuadScheme.monte_carlo(100, seed=4)
    cols = np.array([[0.8, 0.0], [0.3, 0.5]])
    means = np.random.default_rng(2).standard_normal((rows, 2))
    sizes = []

    def f(p):
        sizes.append(len(p))
        return np.exp(0.5 * p[:, 0]) + p[:, 1] ** 2

    out, _ = gauss_expect_err(f, means, cols, scheme)
    assert sum(sizes) == rows * 100
    assert max(sizes) <= max(16, numerics._MC_PIECE)
    pts, w = gauss_rule(scheme, cols)
    assert pts.shape == (100, 2)
    want = [np.dot(w, np.exp(0.5 * (m + pts)[:, 0]) + (m + pts)[:, 1] ** 2)
            for m in means]
    assert out == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rows", [4, 9, 20, 30, 1000])
@pytest.mark.parametrize("scheme", [QuadScheme.gauss_hermite(3),
                                    QuadScheme.monte_carlo(20, seed=3)],
                         ids=["gauss_hermite", "monte_carlo"])
def test_batch_of_means_is_one_point_calls(scheme, rows):
    # rules of 9 and 20 points, below, at and above the rule size, and 1 000
    # rows in several blocks: each row is averaged as one point is, bit for bit
    cols = np.array([[0.8, 0.0], [0.3, 0.5]])
    f = lambda p: np.exp(0.5 * p[:, 0]) + p[:, 1] ** 2
    means = np.random.default_rng(rows).standard_normal((rows, 2))
    value, err = gauss_expect_err(f, means, cols, scheme)
    assert value.shape == err.shape == (rows,)
    assert np.array_equal(gauss_expect(f, means, cols, scheme), value)
    one = np.array([gauss_expect_err(f, mean, cols, scheme) for mean in means])
    assert np.array_equal(value, one[:, 0])
    assert np.array_equal(err, one[:, 1])


@pytest.mark.parametrize("mean", [np.zeros((2, 3, 2)), np.float64(0.0)],
                         ids=["three_axes", "scalar"])
def test_gauss_expect_takes_one_mean_or_a_batch(mean):
    scheme = QuadScheme.gauss_hermite(3)
    for call in (gauss_expect, gauss_expect_err):
        with pytest.raises(ValueError, match="one point"):
            call(lambda p: p[:, 0], mean, np.eye(2), scheme)


def test_mc_estimate_leaves_a_read_only_sample_alone():
    # 70 000 samples span two Philox batches; the average only reads them
    handed = []

    def sampler(gen, size):
        draws = gen.standard_normal((size, 2))
        draws.flags.writeable = False
        handed.append((draws, draws.copy()))
        return draws

    f = lambda p: np.cos(p[:, 0]) * p[:, 1]
    got = mc_estimate(f, sampler, 70_000, seed=9)
    assert len(handed) == 2
    for draws, copy in handed:
        assert np.array_equal(draws, copy)
    assert got == mc_estimate(f, lambda gen, size: gen.standard_normal((size, 2)),
                              70_000, seed=9)


def test_mc_estimate_asks_for_one_row_per_sample():
    # a one-dimensional sampler gives a flat array of draws, not (size, 1)
    calls = []

    def f(p):
        calls.append(p.shape)
        return p ** 2

    with pytest.raises(ValueError, match=r"\(1000, d\)"):
        mc_estimate(f, lambda gen, size: gen.standard_normal(size), 1000, 0)
    with pytest.raises(ValueError, match=r"shape \(999, 1\)"):
        mc_estimate(f, lambda gen, size: gen.standard_normal((size - 1, 1)),
                    1000, 0)
    assert not calls


def test_mc_estimate_of_a_one_sample_last_batch():
    # the last Philox batch holds one draw, averaged as a rule point
    n = numerics._MC_BATCH + 1
    draws = []

    def sampler(gen, size):
        draws.append(gen.standard_normal((size, 1)))
        return draws[-1]

    est, err = mc_estimate(lambda p: p[:, 0] ** 2, sampler, n, seed=2)
    vals = np.concatenate(draws)[:, 0] ** 2
    assert [len(d) for d in draws] == [numerics._MC_BATCH, 1]
    assert est == pytest.approx(vals.mean(), rel=1e-13, abs=0.0)
    assert err == pytest.approx(vals.std(ddof=1) / math.sqrt(n), rel=1e-12,
                              abs=0.0)


def _traced_peak_mb(call):
    """Peak of the memory tracemalloc sees during call(), after one warm-up
    call has built every cached rule and table."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route", ["gauss_expect_err", "project"])
def test_monte_carlo_memory_is_bounded_by_a_piece(route):
    # whole Philox batches of 65 536 points peak at about 10 MB in these
    # calls; pieces of 8 192 points in two reused buffers under 2 MB
    if route == "gauss_expect_err":
        cols = np.diag(np.linspace(1.0, 0.5, 6))
        f = lambda p: p[:, 0] ** 2 * p[:, 1] + np.sin(p[:, 5])
        call = lambda: gauss_expect_err(
            f, np.zeros(6), cols, QuadScheme.monte_carlo(200_000, seed=1))
    else:
        g = SpectralGaussian([1.0, 0.5, 0.25])
        f = lambda p: np.exp(0.3 * p[:, 0]) * p[:, 1] + p[:, 2] ** 2
        call = lambda: project(g, f, 2, QuadScheme.monte_carlo(110_000, seed=1))
    assert _traced_peak_mb(call) < 2.5


def test_mc_stderr_shrinks_like_sqrt_n():
    def sampler(gen, size):
        return gen.standard_normal((size, 1))
    f = lambda p: p[:, 0] ** 2
    _, e_small = mc_estimate(f, sampler, 10_000, seed=3)
    _, e_big = mc_estimate(f, sampler, 160_000, seed=3)
    # 16x the samples should cut the error by about 4
    assert e_big < e_small / 2.5


def test_mc_stderr_survives_a_large_offset():
    # raw sums of f^2 cancel to nothing here; centred batch moments do not
    n = 100_000
    scheme = QuadScheme.monte_carlo(n, seed=0)
    shifted = gauss_expect_err(lambda y: 1e9 + y[:, 0], np.zeros(1), np.eye(1), scheme)
    plain = gauss_expect_err(lambda y: y[:, 0], np.zeros(1), np.eye(1), scheme)
    assert shifted[1] == pytest.approx(1.0 / math.sqrt(n), rel=0.02)
    assert shifted[1] == pytest.approx(plain[1], rel=1e-6)


def test_panel_integrate_polynomial_exact():
    val = panel_integrate(lambda t: t ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_panel_integrate_matrix_valued():
    def f(t):
        out = np.zeros((len(t), 2, 2))
        out[:, 0, 0] = np.exp(t)
        out[:, 1, 1] = t
        return out
    val = panel_integrate(f, 0.0, 2.0)
    assert val[0, 0] == pytest.approx(math.e ** 2 - 1.0, rel=1e-12)
    assert val[1, 1] == pytest.approx(2.0, abs=1e-12)
    assert val[0, 1] == 0.0


def test_panel_integrate_empty_interval():
    val = panel_integrate(lambda t: np.ones((len(t), 3)), 1.0, 1.0)
    assert val.shape == (3,)
    assert np.all(val == 0.0)


def test_panel_integrate_reversed_interval():
    with pytest.raises(ValueError):
        panel_integrate(lambda t: t, 1.0, 0.0)


def test_panel_integrate_refinement_cap():
    # midpoint rule on a steep polynomial cannot hit 1e-12 in 3 doublings
    with pytest.raises(QuadratureFailure):
        panel_integrate(lambda t: t ** 20, 0.0, 1.0, order=1, max_refine=3,
                        rtol=1e-12)


def test_panel_integrate_refines_only_near_a_kink():
    # the kink at 0.3 is off every dyadic panel edge of [-1, 1]
    nodes = []

    def f(r):
        nodes.append(len(r))
        return np.abs(r - 0.3)

    val = panel_integrate(f, -1.0, 1.0)
    assert val == pytest.approx((1.3 ** 2 + 0.7 ** 2) / 2.0, abs=1e-10)
    assert sum(nodes) < 2000


def test_panel_integrate_evaluates_each_level_in_one_call():
    calls = []

    def f(r):
        calls.append(len(r))
        return np.abs(r - 0.3)

    with pytest.raises(QuadratureFailure):
        panel_integrate(f, -1.0, 1.0, max_refine=3, rtol=1e-300)
    # the first call holds the interval and its halves, then one per level
    assert len(calls) == 4
    assert calls[0] == 3 * 8


@pytest.mark.parametrize("order", [4, 8])
@pytest.mark.parametrize("breaks", [(), (0.3,), (-0.5, 0.3, 0.6)],
                         ids=["none", "one", "three"])
def test_panel_integrate_first_call_holds_every_starting_panel(order, breaks):
    calls = []

    def f(r):
        calls.append(len(r))
        return np.abs(r - 0.3)

    panel_integrate(f, -1.0, 1.0, order=order, breaks=breaks)
    # each starting panel and its two halves
    assert calls[0] == 3 * order * (len(breaks) + 1)


def test_panel_integrate_with_a_break_on_the_kink_is_exact_at_once():
    calls = []

    def f(r):
        calls.append(len(r))
        return np.abs(r - 0.3)

    val = panel_integrate(f, -1.0, 1.0, breaks=(0.3,))
    assert len(calls) == 1
    assert val == pytest.approx((1.3 ** 2 + 0.7 ** 2) / 2.0, rel=0, abs=1e-14)


@pytest.mark.parametrize("a, b, breaks", [
    (-1.0, 1.0, (0.5, -0.5)),
    (-1.0, 1.0, (0.2, 0.2)),
    (-1.0, 1.0, (-1.0,)),
    (-1.0, 1.0, (1.0,)),
    (-1.0, 1.0, (1.5,)),
    (-1.0, 1.0, (math.nan,)),
    (1.0, 1.0, (1.0,)),
], ids=["unsorted", "repeated", "at-a", "at-b", "outside", "nan", "empty"])
def test_panel_integrate_refuses_breaks_not_sorted_strictly_inside(a, b, breaks):
    calls = []

    def f(r):
        calls.append(len(r))
        return r

    with pytest.raises(ValueError, match="breaks"):
        panel_integrate(f, a, b, breaks=breaks)
    assert calls == []


def test_panel_integrate_reuses_a_read_only_legendre_rule():
    def f(r):
        return np.abs(r - 0.3)[:, None] * np.array([1.0, np.pi])

    first = panel_integrate(f, -1.0, 1.0, order=6)
    assert np.array_equal(panel_integrate(f, -1.0, 1.0, order=6), first)
    xg, wg = numerics._legendre_rule(6)
    assert numerics._legendre_rule(6)[0] is xg
    want = np.polynomial.legendre.leggauss(6)
    assert np.array_equal(xg, want[0]) and np.array_equal(wg, want[1])
    for arr in (xg, wg):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert np.array_equal(numerics._legendre_rule(6)[1], want[1])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=9))
def test_gauss_expect_matches_normal_moments(k):
    # E[xi^k] for a standard normal: 0 for odd k, (k-1)!! for even k
    scheme = QuadScheme.gauss_hermite(8)
    val = gauss_expect(lambda p: p[:, 0] ** k, np.zeros(1), np.eye(1), scheme)
    expected = 0.0 if k % 2 else math.prod(range(k - 1, 0, -2)) * 1.0
    assert val == pytest.approx(expected, abs=1e-10)


def test_psd_sqrt_roundtrip():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = psd_sqrt(a)
    assert r @ r == pytest.approx(a, abs=1e-12)
    assert r == pytest.approx(r.T)


def test_psd_sqrt_clamps_roundoff():
    a = np.diag([1.0, -1e-12])
    r = psd_sqrt(a)
    assert r[1, 1] == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1e-3]))
