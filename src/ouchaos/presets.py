"""Ready-made non-autonomous OU models.

Three families with closed-form rate integrals and explicit decay data:
a diagonal drift modulated by arctan with oscillating noise, the scalar
drift model of Malliavin calculus, and the 1-D Dirichlet Laplacian with
smoothed constant noise.  The constant-coefficient models (heat1d,
malliavin_const and the command line's inline models) come from one
constructor whose covariance Q(t,s) is in closed form.
"""

import math

import numpy as np

from .errors import ConfigInvalid, HypothesisFailed
from .evolution import (EvolutionFamily, NoiseFamily, OUModel,
                        _adaptive_integral, pst_contraction)

__all__ = ["diag_arctan_preset", "malliavin_preset", "heat1d_preset",
           "build_preset", "PRESET_NAMES"]

# times at which malliavin_preset estimates sups and checks monotonicity
_PROBE = np.linspace(-12.0, 12.0, 961)


def _arctan_primitive(tau):
    # odd antiderivative of arctan|tau| vanishing at 0
    tau = np.asarray(tau, dtype=float)
    mag = np.abs(tau)
    return np.sign(tau) * (mag * np.arctan(mag) - 0.5 * np.log1p(tau ** 2))


def _oscillating_noise(t, ks, c2):
    # sin(k t) + c2 for every k in ks along a last axis, set to zero on the
    # null set {-m pi : m >= 0}
    t = np.asarray(t, dtype=float)
    vals = np.sin(t[..., None] * ks) + c2
    m = np.round(-t / np.pi)
    return np.where(((m >= 0) & (t == -m * np.pi))[..., None], 0.0, vals)


def diag_arctan_preset(c1, c2, d):
    """Diagonal model with a_k(t) = -k^2 (arctan|t| + c1) and
    b_k(t) = sin(kt) + c2, k = 1..d.

    b_k vanishes on {-m pi : m >= 0}.  The modification is Lebesgue-null,
    so no covariance changes, but the pointwise noise range collapses
    there; the rest of the line keeps |b_k| in [c2 - 1, c2 + 1], which
    with c1 > 0 gives a uniform exponential decay envelope at rate c1.
    """
    c1, c2, d = float(c1), float(c2), int(d)
    if c1 <= 0.0:
        raise ValueError("c1 must be positive")
    if c2 <= 1.0:
        raise ValueError("c2 must exceed 1")
    if d < 1:
        raise ValueError("d must be at least 1")
    ks = np.arange(1, d + 1).astype(float)
    k2 = ks ** 2
    rates = [(lambda t, k=k:
              -k ** 2 * (np.arctan(np.abs(np.asarray(t, dtype=float))) + c1))
             for k in ks]

    def rate_integral(s, t):
        inner = _arctan_primitive(t) - _arctan_primitive(s) + c1 * (t - s)
        return -k2 * inner[..., None]

    family = EvolutionFamily(None, d, rates=rates, rate_integral=rate_integral)
    noise = NoiseFamily(None, d, values=lambda t: _oscillating_noise(t, ks, c2),
                        bound=1.0 + c2)
    lam = -k2 * c1
    # growth comparison a_k >= m_growth * lam_k and noise band [low, high]
    # a.e. combine into the Cameron-Martin decay prefactor
    m_growth = 1.0 + 0.5 * math.pi / c1
    high, low = 1.0 + c2, c2 - 1.0
    prefactor = m_growth * high ** 2 * max(
        1.0 / (low ** 2 * (1.0 - math.exp(-2.0 * m_growth * c1))),
        math.exp(2.0 * c1) / (m_growth * high ** 2))
    # arctan|t| has its kink at 0
    return OUModel(family, noise, mode_decay=lam,
                   mode_noise_sup=np.full(d, high),
                   envelope=math.sqrt(prefactor), kinks=(0.0,))


def malliavin_preset(a, b_modes, d, a_integral=None, a_sup=None,
                     monotone_const=1.0, noise_sups=None, check_grid=None):
    """Scalar drift A(t) = a(t) I with diagonal noise modes b_modes.

    a_sup is sup_t a(t) and must be negative (estimated on a coarse grid
    when omitted).  monotone_const is a constant C with
    |b_k(s)| <= C |b_k(t)| for s <= t, which gives the Cameron-Martin
    bound ||U(t,s)|| <= min{1, C e^{a_sup (t-s)}}.  Both the monotonicity
    premise and the bound are spot-checked on a grid; failures raise
    HypothesisFailed.  Constant-rate models attain the bound exactly, so
    the comparison carries a float-level slack.
    """
    d = int(d)
    if d != len(b_modes):
        raise ValueError("d must match the number of noise modes")
    if a_sup is None:
        a_sup = float(np.max(np.asarray(a(_PROBE), dtype=float)))
    cee = float(monotone_const)
    if noise_sups is None:
        noise_sups = [float(np.max(np.abs(np.asarray(b(_PROBE), dtype=float))))
                      for b in b_modes]

    # one evaluation of int_s^t a serves every mode
    if a_integral is None:
        a_integral = _adaptive_integral(a)
    family = EvolutionFamily(
        None, d, rates=[a] * d,
        rate_integral=lambda s, t: np.asarray(a_integral(s, t), dtype=float)[..., None])
    noise = NoiseFamily.diagonal(list(b_modes), bound=float(max(noise_sups)))
    model = OUModel(family, noise, mode_decay=np.full(d, a_sup),
                    mode_noise_sup=np.asarray(noise_sups, dtype=float),
                    envelope=cee)
    _malliavin_checks(model, a_sup, cee, check_grid)
    return model


def _malliavin_checks(model, a_sup, cee, check_grid=None):
    """Require a_sup < 0, then spot-check the noise monotonicity premise
    with constant cee and the Cameron-Martin bound
    ||U(t,s)|| <= min{1, cee e^{a_sup (t-s)}} on the (s, t) pairs of
    check_grid; failures raise HypothesisFailed."""
    if a_sup >= 0.0:
        raise HypothesisFailed("sup a = %g is not negative" % a_sup)
    if check_grid is None:
        check_grid = [(-1.0, -0.75), (-1.0, 0.0), (-1.0, 2.0),
                      (0.0, 0.5), (0.0, 3.0)]
    b_probe = np.abs(model.noise.diag_values(_PROBE))
    for (s, t) in check_grid:
        earlier = _PROBE < t
        if earlier.any():
            worst = np.max(b_probe[earlier], axis=0)
            b_t = np.abs(model.noise.diag_values(t))
            if np.any(worst > cee * b_t * (1.0 + 1e-8)):
                raise HypothesisFailed(
                    "noise monotonicity constant %g too small at t=%g"
                    % (cee, t))
        norm = pst_contraction(model, s, t).op_norm
        bound = min(1.0, cee * math.exp(a_sup * (t - s)))
        if norm > bound * (1.0 + 1e-8):
            raise HypothesisFailed(
                "||U(%g,%g)|| = %.6g exceeds min{1, C e^{a0 dt}} = %.6g"
                % (t, s, norm, bound))


def heat1d_preset(gamma_exp, d):
    """Dirichlet Laplacian on (0, pi): a_k = -k^2 constant and
    b_k = k^{-2 gamma_exp} on the sine eigenbasis, k = 1..d."""
    gamma_exp, d = float(gamma_exp), int(d)
    if not 0.0 <= gamma_exp < 1.0:
        raise ValueError("gamma_exp must lie in [0, 1)")
    if d < 1:
        raise ValueError("d must be at least 1")
    ks = np.arange(1, d + 1).astype(float)
    return _constant_model(-(ks ** 2), ks ** (-2.0 * gamma_exp))


def _constant_model(rates, consts):
    """Diagonal model with constant rates lambda_k and constant noise b_k,
    whose covariance Q(t,s) is in closed form."""
    rates = np.asarray(rates, dtype=float)
    noise = NoiseFamily.diagonal_constant(consts)
    return OUModel(EvolutionFamily.diagonal_constant(rates), noise,
                   mode_decay=rates, mode_noise_sup=np.abs(noise.constants))


PRESET_NAMES = ("diag_arctan", "malliavin_const", "heat1d")


def build_preset(name, params):
    """JSON-facing dispatcher used by the command line front-end.

    malliavin_const builds the scalar-drift model from constants
    (rate_const < 0, noise_consts per mode) since function-valued
    coefficients do not serialize.
    """
    params = dict(params)
    if name == "diag_arctan":
        return diag_arctan_preset(params.pop("c1", 1.0), params.pop("c2", 2.0),
                                  _take_dim(params, 3))
    if name == "malliavin_const":
        rate = float(params.pop("rate_const", -1.0))
        consts = params.pop("noise_consts", None)
        dim = _take_dim(params, 2 if consts is None else len(consts))
        consts = [1.0] * dim if consts is None else [float(v) for v in consts]
        if dim != len(consts):
            raise ValueError("d must match the number of noise modes")
        model = _constant_model([rate] * dim, consts)
        # no spot checks: with constant coefficients |b_k(s)| = |b_k(t)| and
        # ||U(t,s)|| = e^{rate (t-s)}, so both hold with C = 1 once rate < 0
        _malliavin_checks(model, rate, 1.0, check_grid=())
        return model
    if name == "heat1d":
        return heat1d_preset(params.pop("gamma_exp", 0.0),
                             _take_dim(params, 4))
    raise ConfigInvalid("unknown preset %r" % (name,))


def _take_dim(params, default):
    dim = int(params.pop("dim", default))
    if params:
        raise ConfigInvalid("unknown preset parameters: %s"
                            % ", ".join(sorted(params)))
    return dim
