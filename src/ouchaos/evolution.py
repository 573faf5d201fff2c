"""Non-autonomous Ornstein-Uhlenbeck evolution.

The model is a strongly continuous evolution family U(t,s) driven by a
time-dependent noise intensity B(t).  The two covariance integrals

    Q(t,s) = int_s^t U(t,r) B(r)B(r)* U(t,r)* dr,
    Q(t,-inf) = lim_{s -> -inf} Q(t,s),

define the transition kernel of P_{s,t} and the evolution system of measures
gamma_t = N(0, Q(t,-inf)).  The infinite lower limit is truncated by an
analytic exponential tail certificate, never by eyeballing convergence.
A diagonal family evaluates all of its modes in one call (``diagonal``
stacks per-mode callables into it).  Models built from constant per-mode
rates and noise (both families made by ``diagonal_constant``) get Q(t,s) in
closed form; other diagonal models integrate all modes in one vector-valued
panel sweep, and everything else goes through dense matrix quadrature.

P_{s,t} is exposed both as a Gaussian average and through second
quantization: the restriction of U(t,s) to the Cameron-Martin space of
gamma_s has an adjoint L: H_t -> H_s which is a contraction, and
P_{s,t} = Gamma(L) between L^2(gamma_t) and L^2(gamma_s).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .chaos import _check_block, project
from .errors import HypothesisFailed, NoDecay, NotContraction
from .gaussian import SpectralGaussian, expect, range_ratio_norm
from .numerics import (QuadScheme, _kept, gauss_expect, panel_integrate,
                       psd_sqrt)
from .secondquant import (CMContraction, _nested_rules,
                          gamma_integral_apply, gamma_series_apply,
                          lq_norm_gamma, q0_threshold)

TRACE_TOL = 1e-10
# bisection levels of the covariance panel quadrature
PANEL_MAX_REFINE = 16
STATIONARY_OFFDIAG_TOL = 1e-10


class EvolutionFamily:
    """Evolution operator u(t, s); diagonal families carry one callable for
    all int_s^t a_k, and constant ones their rates lambda_k as ``constants``."""

    def __init__(self, u_fn, dim, rates=None, rate_integral=None):
        self._u_fn = u_fn
        self.dim = int(dim)
        self.rates = rates
        if rate_integral is None and rates is not None:
            rate_integral = _stacked([_adaptive_integral(a) for a in rates])
        self._rate_integral = rate_integral
        self.constants = None

    @classmethod
    def diagonal(cls, rates, rate_integrals=None):
        """Family diag(exp(int_s^t a_k)).  rate_integrals[k](s, t) must return
        int_s^t a_k and accept array-valued s.  Without them each integral
        is refined by panel quadrature per s, which is slow, and across a
        kink of a_k (arctan|t|) the covariance sweep over them raises
        QuadratureFailure or is off by ~1e-7: give them for such rates."""
        return cls(None, len(rates), rates=list(rates),
                   rate_integral=None if rate_integrals is None
                   else _stacked(rate_integrals))

    @classmethod
    def diagonal_constant(cls, lams):
        lams = np.asarray(lams, dtype=float)
        self = cls(None, len(lams),
                   rate_integral=lambda s, t: lams * (t - s)[..., None])
        self.constants = lams
        return self

    @property
    def is_diagonal(self):
        return self._rate_integral is not None

    def rate_integral(self, s, t):
        """Vector of int_s^t a_k, with s scalar or array (then shape (m, d))."""
        if not self.is_diagonal:
            raise ValueError("rate integrals exist only for diagonal families")
        s_arr = np.asarray(s, dtype=float)
        return _shaped(self._rate_integral(s_arr, t), s_arr.shape + (self.dim,))

    def __call__(self, t, s):
        if self.is_diagonal:
            return np.diag(np.exp(self.rate_integral(s, t)))
        return np.asarray(self._u_fn(t, s), dtype=float)


class NoiseFamily:
    """Noise intensity b(t); diagonal families carry one callable for all
    b_k(t), and constant ones their values b_k as ``constants``."""

    def __init__(self, b_fn, dim, values=None, bound=None):
        self._b_fn = b_fn
        self.dim = int(dim)
        self._values = values
        self.bound = bound
        self.constants = None

    @classmethod
    def diagonal(cls, funcs, bound=None):
        """Family diag(b_k(t)) from per-mode callables funcs[k](t)."""
        return cls(None, len(funcs), values=_stacked(funcs), bound=bound)

    @classmethod
    def diagonal_constant(cls, values):
        """Family diag(b_k) with constant b_k, bounded by max |b_k|."""
        values = np.asarray(values, dtype=float)
        self = cls(None, len(values), values=lambda t: np.broadcast_to(
            values, t.shape + values.shape), bound=float(np.abs(values).max()))
        self.constants = values
        return self

    @property
    def is_diagonal(self):
        return self._values is not None

    def diag_values(self, t):
        """b_k(t) for scalar or array t (then shape (m, d))."""
        t_arr = np.asarray(t, dtype=float)
        return _shaped(self._values(t_arr), t_arr.shape + (self.dim,))

    def __call__(self, t):
        if self.is_diagonal:
            return np.diag(self.diag_values(t))
        return np.asarray(self._b_fn(t), dtype=float)


def _shaped(values, shape):
    # a broadcast costs microseconds, several per panel level, so values
    # that already have the shape pass as they are
    out = np.asarray(values, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _stacked(per_mode):
    """Per-mode callables as one, their values broadcast and stacked."""
    def call(*args):
        return np.stack(np.broadcast_arrays(
            *[np.asarray(g(*args), dtype=float) for g in per_mode]), axis=-1)
    return call


def _graded_breaks(s, t, rung=1.0, kinks=()):
    """The points t - rung 2^k, k = 0, 1, ..., and the kinks strictly
    inside (s, t), in increasing order and each once."""
    breaks, edge, step = set(), t, rung
    while s < t - step < edge:
        edge = t - step
        breaks.add(edge)
        step *= 2.0
    return sorted(breaks.union(k for k in kinks if s < k < t))


def _adaptive_integral(rate):
    """int_s^t a by panel quadrature, one s at a time."""
    def a(r):
        return np.asarray(rate(r), dtype=float)

    def one(lo, t):
        return (float(panel_integrate(a, lo, t)) if lo < t
                else -float(panel_integrate(a, t, lo)))
    return np.vectorize(one)


class OUModel:
    """Evolution family plus noise, with the decay data needed for honest
    truncation of the stationary covariance integral.

    mode_decay: per-mode sup_t a_k (all < 0) for diagonal models;
    mode_noise_sup: per-mode sup_t |b_k|.  Generic models instead supply
    lambda0 (a negative exponential rate with ||U(t,s)|| <= envelope *
    exp(lambda0 (t-s))) and rely on the noise bound.  kinks: the times at
    which a or b is not smooth (finite, else ValueError); every covariance
    sweep cuts its panels there.
    """

    def __init__(self, family, noise, mode_decay=None, mode_noise_sup=None,
                 lambda0=None, envelope=1.0, kinks=()):
        if family.dim != noise.dim:
            raise ValueError("family and noise dimensions differ")
        self.kinks = tuple(float(k) for k in kinks)
        if not all(math.isfinite(k) for k in self.kinks):
            raise ValueError("kinks must be finite")
        self.family = family
        self.noise = noise
        self.mode_decay = None if mode_decay is None else np.asarray(mode_decay, float)
        self.mode_noise_sup = (None if mode_noise_sup is None
                               else np.asarray(mode_noise_sup, float))
        if lambda0 is None and self.mode_decay is not None:
            lambda0 = float(self.mode_decay.max())
        self.lambda0 = lambda0
        self.envelope = float(envelope)
        # the first rung h of q_ts's ladder is at most one decay length of
        # the fastest mode's integrand exp(2 lambda_k (t-r)); a power of two,
        # so the rungs from 1 on are the same floats as the unit ladder's
        fastest = (0.0 if self.mode_decay is None
                   else 2.0 * float(np.abs(self.mode_decay).max(initial=0.0)))
        self._rung = (math.ldexp(1.0, math.frexp(1.0 / fastest)[1] - 1)
                      if 1.0 < fastest < math.inf else 1.0)

    @property
    def dim(self):
        return self.family.dim

    @property
    def is_diagonal(self):
        return self.family.is_diagonal and self.noise.is_diagonal

    def u(self, t, s):
        return self.family(t, s)

    # -- covariance integrals ------------------------------------------------

    def _q_diag(self, s, t, breaks):
        """Per-mode q_k(t,s) for diagonal models: in closed form for constant
        rates and noise, else one vector-valued panel sweep from the
        starting panels cut at ``breaks``."""
        lam, b = self.family.constants, self.noise.constants
        if lam is not None and b is not None:
            # b^2 int_s^t exp(2 lam (t-r)) dr, which is b^2 (t-s) at lam = 0
            two_lam = 2.0 * lam
            flat = two_lam == 0.0
            growth = np.expm1(two_lam * (t - s)) / np.where(flat, 1.0, two_lam)
            return b * b * np.where(flat, t - s, growth)

        def integrand(r):
            growth = self.family.rate_integral(r, t)        # (m, d)
            noise = self.noise.diag_values(r)                # (m, d)
            return np.exp(2.0 * growth) * noise ** 2
        return panel_integrate(integrand, s, t, max_refine=PANEL_MAX_REFINE,
                               rtol=TRACE_TOL, breaks=breaks)

    def _q_dense(self, s, t, breaks):
        def integrand(r_nodes):
            out = np.empty((len(r_nodes), self.dim, self.dim))
            for i, r in enumerate(r_nodes):
                ur = self.family(t, r)
                br = self.noise(r)
                out[i] = ur @ br @ br.T @ ur.T
            return out
        return panel_integrate(integrand, s, t, max_refine=PANEL_MAX_REFINE,
                               rtol=TRACE_TOL, breaks=breaks)

    @_kept
    def q_ts(self, s, t):
        """Covariance of the transition kernel on [s, t]; symmetric PSD and
        read-only, since it is kept per (s, t).

        A panel sweep starts from [s, t] cut at the model's kinks and at
        the points t - h 2^k, k = 0, 1, ..., inside it: the integrand decays
        exponentially away from t, h is the largest power of two at most
        min(1, 1/(2 max|mode_decay|)), so the first rung resolves the
        fastest mode, and the rungs from 1 on are the cuts the tail
        certificate climbs.  Without mode_decay, h = 1."""
        if s > t:
            raise ValueError("need s <= t")
        breaks = _graded_breaks(s, t, self._rung, self.kinks)
        if self.is_diagonal:
            return np.diag(self._q_diag(s, t, breaks))
        q = self._q_dense(s, t, breaks)
        return 0.5 * (q + q.T)

    @_kept
    def _q_root(self, s, t):
        """Symmetric square root of q_ts(s, t), kept read-only per (s, t)."""
        return psd_sqrt(self.q_ts(s, t))

    def _tail_certificate(self, delta):
        """Upper bound on the trace of the omitted integral over (-inf, t-delta]."""
        if self.is_diagonal and self.mode_decay is not None:
            if self.mode_noise_sup is None:
                raise NoDecay("diagonal tail needs per-mode noise sups")
            lam = self.mode_decay
            if lam.max() >= 0.0:
                raise NoDecay("per-mode decay rates must be negative")
            return float(np.sum(self.mode_noise_sup ** 2 *
                                np.exp(2.0 * lam * delta) / (2.0 * np.abs(lam))))
        if self.lambda0 is None or self.lambda0 >= 0.0:
            raise NoDecay("no negative decay rate supplied")
        if self.noise.bound is None:
            raise NoDecay("generic tail needs a uniform noise bound")
        k2 = self.noise.bound ** 2 * self.envelope ** 2
        return float(self.dim * k2 * math.exp(2.0 * self.lambda0 * delta)
                     / (2.0 * abs(self.lambda0)))

    @_kept
    def _tail_cut(self, tol):
        """The certified cut (delta, cert) with cert < tol: the first delta
        in 1, 2, 4, ... whose tail certificate is below tol, kept per tol
        since it does not depend on t."""
        delta = 1.0
        for _ in range(200):
            cert = self._tail_certificate(delta)
            if cert < tol:
                return delta, cert
            delta *= 2.0
        raise NoDecay("tail certificate did not reach tolerance")

    @_kept
    def q_t_inf(self, t, tol=1e-10):
        """Stationary covariance Q(t, -inf) and its certified trace tail < tol."""
        delta, cert = self._tail_cut(tol)
        return self.q_ts(t - delta, t), cert

    @_kept
    def measure_at(self, t):
        """Evolution-system measure gamma_t = N(0, Q(t,-inf)), kept per t.

        The covariance must be diagonal in canonical coordinates (it is for
        diagonal models); otherwise the spectral representation used
        everywhere else does not apply and the call is refused.
        """
        q, _ = self.q_t_inf(t)
        diag = np.diag(q).copy()
        off = q - np.diag(diag)
        if np.abs(off).max(initial=0.0) > STATIONARY_OFFDIAG_TOL * max(
                diag.max(initial=0.0), 1e-300):
            raise ValueError("stationary covariance is not diagonal")
        return SpectralGaussian(np.clip(diag, 0.0, None))

    def __repr__(self):
        kind = "diagonal" if self.is_diagonal else "dense"
        return f"OUModel(dim={self.dim}, {kind})"


def pst_apply(model, f, s, t, x, scheme=None):
    """Transition average P_{s,t} f(x) = E[f(y)], y ~ N(u(t,s)x, Q(t,s)).

    x is one point (d,), giving a float, or a batch (m, d), giving (m,);
    the rule is built once for the whole batch.
    """
    if s > t:
        raise ValueError("need s <= t")
    return gauss_expect(f, x @ model.u(t, s).T, model._q_root(s, t), scheme)


@_kept
def pst_contraction(model, s, t):
    """The adjoint restriction L = (U(t,s)|_{H_s})*: H_t -> H_s as a
    CMContraction from gamma_t to gamma_s, with matrix V^T for
    V = Q(t,-inf)^{-1/2} u(t,s) Q(s,-inf)^{1/2}; s = t gives the identity.
    The model keeps it per (s, t), so its factorisations are shared."""
    if s > t:
        raise ValueError("need s <= t")
    gamma_t = model.measure_at(t)
    gamma_s = model.measure_at(s)
    v = gamma_t.inv_scale[:, None] * model.u(t, s) * gamma_s.scale[None, :]
    contraction = CMContraction(gamma_t, gamma_s, v.T)
    if contraction.op_norm > 1.0 + 1e-10:
        raise NotContraction(
            f"||V|| = {contraction.op_norm:.12f} at (s,t)=({s},{t}); "
            "covariance quadrature or the model hypotheses are broken")
    return contraction


def pst_via_second_quant(model, f, s, t, x, scheme=None):
    """P_{s,t} f(x) through the second quantization of pst_contraction;
    x is one point or a batch, as for :func:`pst_apply`."""
    return gamma_integral_apply(pst_contraction(model, s, t), f, x, scheme)


def hyper_threshold(model, s, t, p):
    """Sharp exponent q0 = 1 + (p-1) ||U(t,s)||_{CM}^{-2} for P_{s,t}."""
    return q0_threshold(pst_contraction(model, s, t), p)


def mean_functional(model, f, t, scheme=None):
    """m_t(f), the average of f against gamma_t."""
    return expect(model.measure_at(t), f, scheme)


def decay_ratio(model, f, p, s, t, scheme=None, degree=None):
    """||P_{s,t} f - m_t(f)||_{L^p(gamma_s)} / ||f - m_t(f)||_{L^p(gamma_t)};
    0 when f is constant on the support of gamma_t.

    At p = 2 with ``degree`` (the polynomial degree of f) given, the ratio
    is exact from the chaos expansion of f: Parseval turns both norms into
    sums over the coefficients with alpha != 0, and P_{s,t} = Gamma(L) acts
    on them through :func:`gamma_series_apply`, whose degree-``degree``
    block is checked against chaos.BLOCK_MAX_ENTRIES (SizeTooLarge) before
    f is evaluated.  The scheme then only sets how f is projected; an f of
    higher degree raises SchemeTooCoarse under Gauss-Hermite.  Otherwise
    the numerator is the L^p(gamma_s) norm of Gamma(L)(f - m_t(f)) from
    :func:`lq_norm_gamma`, L the contraction of :func:`pst_contraction`,
    refused with SchemeTooCoarse before f is evaluated when it would
    exceed NESTED_MAX_EVALS evaluations of f.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    if p == 2 and degree is not None:
        return _chaos_decay_ratio(model, f, s, t, scheme, degree)
    contraction = pst_contraction(model, s, t)
    _nested_rules(contraction, scheme)  # refuses before m_t evaluates f
    m_t = mean_functional(model, f, t, scheme)

    def centred(y):
        return np.asarray(f(y)) - m_t

    num = lq_norm_gamma(contraction, centred, p, scheme)
    den = expect(model.measure_at(t), lambda y: np.abs(centred(y)) ** p,
                 scheme) ** (1.0 / p)
    return _ratio(num, den, m_t)


def _ratio(num, den, m_t):
    # a constant f leaves only the round-off of m_t in the denominator
    if den <= 1e-12 * abs(m_t):
        return 0.0
    return num / den


def _chaos_decay_ratio(model, f, s, t, scheme, degree):
    # the Gamma(L) block budget refuses before f is projected
    _check_block(model.dim, model.dim, degree)
    gamma_t = model.measure_at(t)
    if scheme is None:
        scheme = QuadScheme.gauss_hermite(degree + 2)
    exact = scheme.kind == "tensor_gauss_hermite"
    if exact:
        # degree + 1 nodes make the projection exact; one more lets the
        # Parseval residual see an f of higher degree than declared
        scheme = replace(scheme, nodes=max(degree + 2, scheme.nodes))
    expansion = project(gamma_t, f, degree, scheme, expect_polynomial=exact)
    image = gamma_series_apply(pst_contraction(model, s, t), expansion)
    zero = (0,) * model.dim

    def centred_norm(e):
        return math.sqrt(sum(c * c for a, c in e.coeffs.items() if a != zero))

    return _ratio(centred_norm(image), centred_norm(expansion), expansion[zero])


def bignamini_check(model, s, t, bound_const, rate, power, verify_premise=False):
    """Check the Cameron-Martin norm bound
    ||U(t,s)||_{L(H_s, H_t)-induced} < min{1, M e^{-omega (t-s)} / (t-s)^alpha}.

    Reports the computed norm and both margins; raises HypothesisFailed with
    the offending (s, t) when a branch is violated.  With verify_premise the
    noise-space norm ||Q(t)^{-1/2} u(t,s) Q(s)^{1/2}|| is also held to the
    same envelope.
    """
    if s >= t:
        raise ValueError("need s < t")
    norm = pst_contraction(model, s, t).op_norm
    gap = t - s
    envelope = bound_const * math.exp(-rate * gap) / gap ** power
    report = {
        "s": s, "t": t, "cm_norm": norm,
        "unit_margin": 1.0 - norm,
        "envelope": envelope,
        "envelope_margin": envelope - norm,
    }
    if verify_premise:
        bs = model.noise(s)
        bt = model.noise(t)
        h_norm = range_ratio_norm(model.u(t, s) @ psd_sqrt(bs @ bs.T),
                                  psd_sqrt(bt @ bt.T))
        report["h_norm"] = h_norm
        if h_norm > envelope * (1.0 + 1e-8):
            raise HypothesisFailed(
                f"noise-space norm {h_norm:.6g} exceeds the envelope "
                f"{envelope:.6g} at (s,t)=({s},{t})")
    # constant-rate models attain the envelope exactly, so the comparison
    # carries a float-level slack instead of the printed strict inequality
    if norm >= 1.0 or norm > envelope * (1.0 + 1e-10):
        raise HypothesisFailed(
            f"Cameron-Martin norm {norm:.6g} violates min(1, {envelope:.6g}) "
            f"at (s,t)=({s},{t})")
    return report
