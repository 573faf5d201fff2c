import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ouchaos.errors import Incomparable, OffRange
from ouchaos.gaussian import (LinearMap, SpectralGaussian,
                              cameron_martin_density, cm_inner, exp_functional,
                              expect, pinv_sqrt_apply, range_ratio_norm,
                              sqrt_apply, white_noise)
from ouchaos.numerics import _MC_BATCH, QuadScheme
from ouchaos.secondquant import CMContraction, x_extension


def test_constructor_validation():
    with pytest.raises(ValueError):
        SpectralGaussian([])
    with pytest.raises(ValueError):
        SpectralGaussian([1.0, -0.1])
    with pytest.raises(ValueError):
        SpectralGaussian([np.inf])


def test_support_mask():
    g = SpectralGaussian([1.0, 4.0, 0.0, 1e-15])
    assert g.support.tolist() == [True, True, False, False]
    assert not g.is_nondegenerate
    assert SpectralGaussian([2.0, 3.0]).is_nondegenerate
    # fully degenerate point mass has empty support
    assert SpectralGaussian([0.0, 0.0]).support.tolist() == [False, False]


@pytest.mark.parametrize("lam", [[1.0, 1e-14, 0.0, 2.0], [0.0, 0.0, 0.0]])
def test_square_root_scales(lam):
    g = SpectralGaussian(lam)
    lam = np.array(lam)
    s = g.support
    for arr in (g.scale, g.inv_scale):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    assert np.array_equal(g.scale[s], np.sqrt(lam[s]))
    assert np.array_equal(g.inv_scale[s], 1.0 / np.sqrt(lam[s]))
    assert not g.scale[~s].any() and not g.inv_scale[~s].any()


@pytest.mark.parametrize("lam", [[1.0, 1e-14, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
def test_scaled_maps_keep_the_masked_formulas_on_degenerate_measures(lam):
    """pinv_sqrt_apply, white_noise and x_extension give, bit for bit, the
    masked formulas they had before reading the measure's scales."""
    g = SpectralGaussian(lam)
    lam, s = np.array(lam), g.support
    rng = np.random.default_rng(3)
    h = np.where(s, rng.standard_normal(4), 0.0)
    z = rng.standard_normal(4)
    x = rng.standard_normal((5, 4))
    want = np.zeros(4)
    want[s] = h[s] / np.sqrt(lam[s])
    assert np.array_equal(pinv_sqrt_apply(g, h), want)
    coeff = np.zeros(4)
    coeff[s] = z[s] / np.sqrt(lam[s])
    assert np.array_equal(white_noise(g, z, x), x @ coeff)
    nu = SpectralGaussian([0.5, 2.0, 1e-13, 1.5])
    t_op = CMContraction(g, nu, 0.2 * rng.standard_normal((4, 4)))
    rt_nu = np.where(nu.support, np.sqrt(nu.eigenvalues), 0.0)
    with np.errstate(divide="ignore"):
        inv_mu = np.where(s, 1.0 / np.sqrt(np.where(s, lam, 1.0)), 0.0)
    assert np.array_equal(x_extension(t_op).matrix,
                          rt_nu[:, None] * t_op.matrix * inv_mu[None, :])


def test_json_round_trip():
    g = SpectralGaussian([1.0, 0.25, 0.0])
    assert SpectralGaussian.from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        SpectralGaussian.from_json({"dim": 2, "eigenvalues": [1.0]})


def test_cm_inner_unit_eigenvalue():
    g = SpectralGaussian([1.0, 4.0])
    assert cm_inner(g, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_cm_inner_scales_by_eigenvalue():
    g = SpectralGaussian([1.0, 4.0])
    assert cm_inner(g, [0.0, 2.0], [0.0, 2.0]) == pytest.approx(1.0)


def test_cm_inner_rejects_kernel_direction():
    g = SpectralGaussian([1.0, 0.0])
    with pytest.raises(OffRange):
        cm_inner(g, [0.0, 1.0], [0.0, 1.0])


def test_pinv_sqrt_examples():
    g = SpectralGaussian([4.0, 1.0])
    assert pinv_sqrt_apply(g, [2.0, 0.0]) == pytest.approx([1.0, 0.0])
    gd = SpectralGaussian([4.0, 0.0])
    assert pinv_sqrt_apply(gd, [4.0, 0.0]) == pytest.approx([2.0, 0.0])
    with pytest.raises(OffRange):
        pinv_sqrt_apply(gd, [0.0, 1.0])


def test_pinv_sqrt_inverts_sqrt_up_to_kernel():
    g = SpectralGaussian([2.0, 0.5, 0.0])
    x = np.array([1.0, -3.0, 7.0])
    # Q^{1/2} kills the kernel component, so the round trip drops it too
    assert pinv_sqrt_apply(g, sqrt_apply(g, x)) == pytest.approx([1.0, -3.0, 0.0])


def test_white_noise_pointwise():
    assert white_noise(SpectralGaussian([1.0]), [1.0], [0.5]) == pytest.approx(0.5)
    assert white_noise(SpectralGaussian([4.0]), [1.0], [2.0]) == pytest.approx(1.0)


def test_white_noise_ignores_kernel_part_of_z():
    g = SpectralGaussian([1.0, 0.0])
    assert white_noise(g, [1.0, 5.0], [2.0, 3.0]) == pytest.approx(2.0)
    # a short z is an error, not a broadcast over every coordinate
    with pytest.raises(ValueError):
        white_noise(g, [1.0], [2.0, 3.0])


def test_white_noise_empirical_variance():
    g = SpectralGaussian([1.0, 9.0])
    xs = g.sample(1_000_000, seed=42)
    vals = white_noise(g, [1.0, 1.0], xs)
    var = float(np.var(vals, ddof=1))
    sigma = math.sqrt(2.0) * 2.0 / math.sqrt(len(vals))  # var of variance est., ~2 var^2/n
    assert abs(var - 2.0) < 3 * (2.0 * math.sqrt(2.0 / len(vals)))


def test_sampling_moments():
    g = SpectralGaussian([1.0, 4.0])
    xs = g.sample(1_000_000, seed=7)
    n = len(xs)
    mean = xs.mean(axis=0)
    assert abs(mean[0]) < 3 / math.sqrt(n)
    assert abs(mean[1]) < 3 * 2 / math.sqrt(n)
    cov = np.cov(xs.T)
    assert abs(cov[0, 0] - 1.0) < 3 * math.sqrt(2.0 / n)
    assert abs(cov[1, 1] - 4.0) < 3 * 4.0 * math.sqrt(2.0 / n)
    assert abs(cov[0, 1]) < 3 * 2.0 / math.sqrt(n)


def test_sampling_degenerate_and_deterministic():
    g = SpectralGaussian([0.0, 0.0])
    assert np.all(g.sample(3, seed=5) == 0.0)
    g2 = SpectralGaussian([1.0, 2.0])
    assert np.array_equal(g2.sample(100, seed=9), g2.sample(100, seed=9))


def test_sample_draws_each_batch_from_its_jumped_substream():
    g = SpectralGaussian([2.0, 0.5])
    scale = np.sqrt([2.0, 0.5])
    n = _MC_BATCH + 5
    xs = g.sample(n, seed=11)
    # the formula sample used when all of its draws came from one stream
    one_stream = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    old = one_stream.standard_normal((n, g.dim)) * scale[None, :]
    assert np.array_equal(xs[:_MC_BATCH], old[:_MC_BATCH])
    second = np.random.Generator(np.random.Philox(key=np.uint64(11)).jumped(1))
    assert np.array_equal(xs[_MC_BATCH:],
                          second.standard_normal((5, g.dim)) * scale[None, :])


def test_exp_functional_values():
    g = SpectralGaussian([1.0])
    assert exp_functional(g, [0.0], [3.0]) == pytest.approx(1.0)
    assert exp_functional(g, [1.0], [1.0]) == pytest.approx(math.exp(0.5))


def test_exp_functional_unit_mean():
    g = SpectralGaussian([1.0, 2.0])
    z = np.array([1.0, 1.0])
    val = expect(g, lambda p: exp_functional(g, z, p), QuadScheme.gauss_hermite(30))
    assert val == pytest.approx(1.0, abs=1e-12)
    xs = g.sample(1_000_000, seed=3)
    vals = exp_functional(g, z, xs)
    assert abs(vals.mean() - 1.0) < 3 * vals.std(ddof=1) / math.sqrt(len(vals))


def test_cameron_martin_density_values():
    g = SpectralGaussian([1.0])
    assert cameron_martin_density(g, [0.0], [2.0]) == pytest.approx(1.0)
    assert cameron_martin_density(g, [1.0], [0.0]) == pytest.approx(math.exp(-0.5))


def test_cameron_martin_change_of_variables():
    # E[f(x+h)] = E[f(x) density(x)] for f(x) = x^2, h = 1: both sides are 2
    g = SpectralGaussian([1.0])
    h = np.array([1.0])
    scheme = QuadScheme.gauss_hermite(20)
    shifted = expect(g, lambda p: (p[:, 0] + 1.0) ** 2, scheme)
    weighted = expect(g, lambda p: p[:, 0] ** 2 * cameron_martin_density(g, h, p),
                      scheme)
    assert shifted == pytest.approx(2.0, abs=1e-12)
    assert weighted == pytest.approx(2.0, abs=1e-10)


def test_cameron_martin_density_rejects_kernel_shift():
    g = SpectralGaussian([1.0, 0.0])
    with pytest.raises(OffRange):
        cameron_martin_density(g, [0.0, 1.0], [0.0, 0.0])


def test_range_ratio_norm_examples():
    eye = LinearMap(np.eye(2))
    assert range_ratio_norm(eye, eye) == pytest.approx(1.0)
    assert range_ratio_norm(np.diag([1.0, 0.0]), np.diag([2.0, 1.0])) == pytest.approx(0.5)
    with pytest.raises(Incomparable):
        range_ratio_norm(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))


def test_range_ratio_norm_zero_numerator():
    assert range_ratio_norm(np.zeros((2, 2)), np.diag([1.0, 0.0])) == 0.0


def test_range_ratio_norm_bounds_adjoint_ratio():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 3))
    c = range_ratio_norm(a, b)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert np.linalg.norm(a.T @ x) <= c * np.linalg.norm(b.T @ x) + 1e-10


def test_linear_map_basics():
    m = LinearMap([[0.0, 2.0], [0.0, 0.0]])
    assert m.op_norm == pytest.approx(2.0)
    assert m.adjoint.matrix.tolist() == [[0.0, 0.0], [2.0, 0.0]]
    assert m([1.0, 3.0]) == pytest.approx([6.0, 0.0])
    with pytest.raises(ValueError):
        LinearMap([[np.nan]])


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (3,), elements=st.floats(-5, 5)).filter(
    lambda z: np.linalg.norm(z) > 1e-3))
def test_white_noise_variance_by_gaussian_algebra(z):
    g = SpectralGaussian([0.5, 2.0, 0.0])
    scheme = QuadScheme.gauss_hermite(6)
    var = expect(g, lambda p: white_noise(g, z, p) ** 2, scheme)
    expected = float(np.sum(np.asarray(z)[g.support] ** 2))
    assert var == pytest.approx(expected, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (2,), elements=st.floats(-3, 3)))
def test_exp_functional_mean_one_property(z):
    g = SpectralGaussian([1.0, 0.5])
    val = expect(g, lambda p: exp_functional(g, z, p), QuadScheme.gauss_hermite(60))
    assert val == pytest.approx(1.0, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_range_ratio_norm_orthogonal_invariance(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    base = range_ratio_norm(a, b)
    rotated = range_ratio_norm(q @ a, q @ b)
    assert rotated == pytest.approx(base, rel=1e-9)
