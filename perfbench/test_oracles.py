"""The benchmark's reference values against small cases worked by hand.

    python3 -m pytest perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles


def test_quadratic_moments_of_a_square():
    # y ~ N(0.5, 2): E[y^2] = mu^2 + s2, Var[y^2] = 4 mu^2 s2 + 2 s2^2
    mean, var = oracles.quadratic_moments(0.0, [0.0], [[1.0]], [0.5], [[2.0]])
    assert mean == pytest.approx(2.25, rel=1e-15)
    assert var == pytest.approx(10.0, rel=1e-15)


def test_quadratic_moments_of_a_line():
    mean, var = oracles.quadratic_moments(1.0, [2.0], [[0.0]], [0.0], [[3.0]])
    assert (mean, var) == pytest.approx((1.0, 12.0), rel=1e-15)


def test_quadratic_moments_of_a_correlated_product():
    # y1 y2 with unit variances and correlation rho: mean rho, variance 1 + rho^2
    rho = 0.3
    mean, var = oracles.quadratic_moments(
        0.0, [0.0, 0.0], [[0.0, 0.5], [0.5, 0.0]], [0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    assert mean == pytest.approx(rho, rel=1e-15)
    assert var == pytest.approx(1.0 + rho ** 2, rel=1e-15)


def test_exponential_moments_of_a_standard_normal():
    mean, var = oracles.exponential_moments([1.0], [0.0], [[1.0]])
    assert mean == pytest.approx(math.exp(0.5), rel=1e-15)
    assert var == pytest.approx(math.e ** 2 - math.e, rel=1e-14)


def test_exponential_law_coefficients():
    coeffs = oracles.exp_law_coeffs([0.5, 2.0], 3)
    assert len(coeffs) == 10
    assert coeffs[(0, 0)] == 1.0
    assert coeffs[(1, 1)] == pytest.approx(1.0, rel=1e-15)
    assert coeffs[(2, 0)] == pytest.approx(0.25 / math.sqrt(2.0), rel=1e-15)
    assert coeffs[(0, 3)] == pytest.approx(8.0 / math.sqrt(6.0), rel=1e-15)


def test_exponential_product_variances():
    # Var(E_z) = e^{z^2} - 1 and E[E_z^2 xi^2] = e^{z^2} (1 + 4 z^2)
    var = oracles.exp_product_variances([0.5], [(0,), (1,)])
    assert var[0] == pytest.approx(math.exp(0.25) - 1.0, rel=1e-14)
    assert var[1] == pytest.approx(2.0 * math.exp(0.25) - 0.25, rel=1e-14)


def test_constant_rate_v():
    v = oracles.constant_rate_v([-1.0, -4.0], 0.25, 0.75)
    assert v == pytest.approx([math.exp(-0.5), math.exp(-2.0)], rel=1e-15)


def test_arctan_primitive():
    want = math.pi / 4.0 - 0.5 * math.log(2.0)
    assert float(oracles.arctan_primitive(1.0)) == pytest.approx(want, rel=1e-15)
    assert float(oracles.arctan_primitive(-1.0)) == pytest.approx(-want, rel=1e-15)
    assert float(oracles.arctan_primitive(0.0)) == 0.0


@pytest.mark.parametrize("t", [-0.7, 0.0, 0.3])
def test_stationary_variance_with_oscillating_noise(t):
    # constant rate lam, noise c2 + sin(k r): with a = -2 lam and b = k t,
    # q = c2^2/a + 2 c2 (a sin b - k cos b)/(a^2 + k^2)
    #     + 1/(2a) - (a cos 2b + 2k sin 2b) / (2 (a^2 + 4 k^2))
    lam, c2, k = -1.0, 2.0, 2.0
    a, b = -2.0 * lam, k * t
    want = (c2 ** 2 / a + 2.0 * c2 * (a * math.sin(b) - k * math.cos(b)) / (a * a + k * k)
            + 0.5 / a - (a * math.cos(2 * b) + 2 * k * math.sin(2 * b))
            / (2.0 * (a * a + 4 * k * k)))
    got = oracles.stationary_variance(lambda r, t_: lam * (t_ - r),
                                      lambda r: c2 + np.sin(k * r), t, lam)
    assert got == pytest.approx(want, rel=1e-13)


def test_diag_arctan_v_is_one_on_the_diagonal():
    assert oracles.diag_arctan_v(1.0, 2.0, 2, 0.4, 0.4) == pytest.approx([1.0, 1.0], rel=1e-15)


def test_hs_closed_form():
    assert oracles.hs_closed_form([0.5, 0.5]) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert oracles.hs_closed_form([0.6]) == pytest.approx(1.25, rel=1e-15)
    assert oracles.hs_closed_form([0.0]) == 1.0
