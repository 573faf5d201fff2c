"""Reference values the benchmark checks the program against.

Everything here is computed with numpy alone, never through ``ouchaos``:
closed forms for Gaussian moments, exponential-law chaos coefficients and
the Cameron-Martin contraction V(t,s) of the presets, and an independent
Gauss-Legendre quadrature for the stationary variances of ``diag_arctan``.
A wrong oracle would hide a fault or invent one, so ``test_oracles.py``
pins each of these against small cases worked out by hand.
"""

import itertools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss, hermeval
from numpy.polynomial.legendre import leggauss


def multi_indices(d, max_degree):
    """All multi-indices of length d with |alpha| <= max_degree."""
    return [a for a in itertools.product(range(max_degree + 1), repeat=d)
            if sum(a) <= max_degree]


# -- Gaussian moments ---------------------------------------------------------

def quadratic_moments(c0, b, a, mean, cov):
    """Mean and variance of c0 + b.y + y.A.y for y ~ N(mean, cov), A symmetric."""
    b, a, mean, cov = (np.asarray(v, dtype=float) for v in (b, a, mean, cov))
    m = c0 + b @ mean + mean @ a @ mean + np.trace(a @ cov)
    g = b + 2.0 * a @ mean
    ac = a @ cov
    return float(m), float(g @ cov @ g + 2.0 * np.trace(ac @ ac))


def exponential_moments(w, mean, cov):
    """Mean and variance of exp(w.y) for y ~ N(mean, cov)."""
    w, mean, cov = (np.asarray(v, dtype=float) for v in (w, mean, cov))
    shift, v = float(w @ mean), float(w @ cov @ w)
    m = math.exp(shift + 0.5 * v)
    return m, math.exp(2.0 * shift + v) * math.expm1(v)


# -- chaos coefficients --------------------------------------------------------

def exp_law_coeffs(z, max_degree):
    """Chaos coefficients prod_j z_j^{alpha_j} / sqrt(alpha!) of the
    normalized exponential functional E_z, for |alpha| <= max_degree."""
    z = np.asarray(z, dtype=float)
    out = {}
    for a in multi_indices(len(z), max_degree):
        c = 1.0
        for zj, e in zip(z, a):
            c *= zj ** e / math.sqrt(math.factorial(e))
        out[a] = c
    return out


def exp_product_variances(z, alphas, nodes=20):
    """Var(E_z Phi_alpha) under the measure, one value per alpha.

    E_z^2 = e^{|z|^2} E_{2z}, and E_{2z} shifts the Gaussian by 2z
    (Cameron-Martin), so E[E_z^2 Phi_alpha^2] = e^{|z|^2} prod_j
    E[He_{alpha_j}(xi + 2 z_j)^2] / alpha_j!, each a one-dimensional
    polynomial moment that Gauss-Hermite integrates exactly.
    """
    z = np.asarray(z, dtype=float)
    x, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    coeffs = exp_law_coeffs(z, max(sum(a) for a in alphas))
    out = []
    for a in alphas:
        second = math.exp(float(z @ z))
        for zj, e in zip(z, a):
            he = hermeval(x + 2.0 * zj, [0.0] * e + [1.0])
            second *= float(w @ he ** 2) / math.factorial(e)
        out.append(second - coeffs[tuple(a)] ** 2)
    return np.array(out)


# -- Cameron-Martin contraction of the presets --------------------------------

def constant_rate_v(rates, s, t):
    """Diagonal of V(t,s) for constant per-mode rates and constant noise:
    the stationary variances do not move, so V_kk = exp(a_k (t - s))."""
    return np.exp(np.asarray(rates, dtype=float) * (t - s))


def arctan_primitive(tau):
    """F with F' = arctan|tau| and F(0) = 0, elementwise."""
    tau = np.asarray(tau, dtype=float)
    mag = np.abs(tau)
    return np.sign(tau) * (mag * np.arctan(mag) - 0.5 * np.log1p(mag * mag))


def stationary_variance(log_growth, noise, t, rate_floor, order=20, step=0.25):
    """q(t) = int_{-inf}^t exp(2 log_growth(r, t)) noise(r)^2 dr.

    log_growth(r, t) <= rate_floor (t - r) with rate_floor < 0 bounds the
    integrand; the lower limit is cut where that bound falls below e^{-60}.
    Panels of width ``step`` are aligned to multiples of it, so r = 0 (where
    the arctan rates have a kink) is always a panel edge.
    """
    lo = t - 30.0 / abs(rate_floor)
    edges = np.arange(math.floor(lo / step), math.ceil(t / step) + 1) * step
    edges = np.unique(np.clip(edges, lo, t))
    xg, wg = leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    r = (mid[:, None] + half[:, None] * xg[None, :]).reshape(-1)
    w = (half[:, None] * wg[None, :]).reshape(-1)
    vals = np.exp(2.0 * log_growth(r, t)) * noise(r) ** 2
    return float(w @ vals)


def diag_arctan_v(c1, c2, dim, s, t):
    """Diagonal of V(t,s) for the diag_arctan preset:
    a_k = -k^2 (arctan|r| + c1), b_k = sin(k r) + c2."""
    out = []
    for k in range(1, dim + 1):
        def log_growth(r, t_, k=k):
            return -k * k * (arctan_primitive(t_) - arctan_primitive(r)
                             + c1 * (t_ - r))

        def noise(r, k=k):
            return np.sin(k * r) + c2

        q_s = stationary_variance(log_growth, noise, s, -k * k * c1)
        q_t = stationary_variance(log_growth, noise, t, -k * k * c1)
        out.append(math.exp(float(log_growth(s, t))) * math.sqrt(q_s / q_t))
    return np.array(out)


def hs_closed_form(singular_values):
    """Hilbert-Schmidt norm of Gamma(T): prod_k (1 - s_k^2)^{-1/2}."""
    s = np.asarray(singular_values, dtype=float)
    return float(np.prod((1.0 - s * s) ** -0.5))
