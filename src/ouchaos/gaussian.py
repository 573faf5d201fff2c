"""Centered Gaussian measures with spectral covariance.

A measure is determined by its covariance eigenvalues in canonical
coordinates.  Zero (or numerically zero) eigenvalues span the kernel of the
covariance; Cameron-Martin operations act on the complement and refuse
vectors that stick out of it.  White-noise functionals, exponential
functionals and Cameron-Martin densities are evaluated pointwise so they can
feed both quadrature grids and Monte Carlo batches.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import Incomparable, OffRange
from .numerics import (_philox_batches, _read_only, _restore_read_only,
                       gauss_expect)

KERNEL_TOL = 1e-12
OFF_RANGE_TOL = 1e-8
RANGE_INCLUSION_TOL = 1e-10


class SpectralGaussian:
    """Centered Gaussian with covariance diag(eigenvalues)."""

    def __init__(self, eigenvalues):
        lam = np.asarray(eigenvalues, dtype=float).reshape(-1)
        if lam.size == 0:
            raise ValueError("need at least one eigenvalue")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ValueError("eigenvalues must be finite and nonnegative")
        self._lam = _read_only(lam.copy())
        # all False for the zero measure, since lam >= 0
        self._support = _read_only(lam > KERNEL_TOL * lam.max())
        self._scale = _read_only(np.where(self._support, np.sqrt(lam), 0.0))
        self._inv_scale = _read_only(_over_scale(self, 1.0))

    __setstate__ = _restore_read_only

    @property
    def dim(self):
        return self._lam.size

    @property
    def eigenvalues(self):
        return self._lam

    @property
    def support(self):
        """Boolean mask of the numerical support of the covariance."""
        return self._support

    @property
    def scale(self):
        """sqrt(lambda) on the support, 0 over the kernel."""
        return self._scale

    @property
    def inv_scale(self):
        """1/sqrt(lambda) on the support, 0 over the kernel."""
        return self._inv_scale

    @property
    def is_nondegenerate(self):
        return bool(np.all(self._support))

    def __repr__(self):
        return f"SpectralGaussian({self._lam.tolist()})"

    def __eq__(self, other):
        if not isinstance(other, SpectralGaussian):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._lam, other._lam)

    def __hash__(self):
        return hash(self._lam.tobytes())

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return json.dumps({"dim": self.dim, "eigenvalues": self._lam.tolist()})

    @classmethod
    def from_json(cls, payload):
        data = json.loads(payload) if isinstance(payload, str) else payload
        lam = data["eigenvalues"]
        if "dim" in data and data["dim"] != len(lam):
            raise ValueError("dim does not match the eigenvalue count")
        return cls(lam)

    # -- sampling ----------------------------------------------------------

    def sample(self, n, seed=0):
        """n i.i.d. draws, shape (n, dim), from the jumped Philox substreams
        that every Monte Carlo rule draws from: a pure function of (seed, n)."""
        if n < 1:
            raise ValueError("need n >= 1")
        xi = np.concatenate([gen.standard_normal((size, self.dim))
                             for gen, size in _philox_batches(seed, n)])
        return xi * self._scale[None, :]

    def sqrt_cols(self):
        """Columns of Q^{1/2} restricted to the support (for quadrature)."""
        return np.diag(self._scale)


def _check_in_range(gamma, v, what):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != gamma.dim:
        raise ValueError(f"{what} has dimension {v.size}, expected {gamma.dim}")
    off = np.linalg.norm(v[~gamma.support])
    if off > OFF_RANGE_TOL * np.linalg.norm(v):
        raise OffRange(f"{what} has mass {off:.3e} over the covariance kernel")
    return v


def _over_scale(gamma, v):
    """v_j/sqrt(lambda_j) on the support, zero over the kernel."""
    return np.divide(v, gamma.scale, out=np.zeros(gamma.dim), where=gamma.support)


def cm_inner(gamma, h, k):
    """Cameron-Martin inner product sum(h_j k_j / lambda_j) over the support."""
    h = _check_in_range(gamma, h, "h")
    k = _check_in_range(gamma, k, "k")
    s = gamma.support
    return float(np.sum(h[s] * k[s] / gamma.eigenvalues[s]))


def cm_norm(gamma, h):
    return float(np.sqrt(cm_inner(gamma, h, h)))


def pinv_sqrt_apply(gamma, h):
    """Apply the pseudo-inverse square root of the covariance: h_j/sqrt(lambda_j)
    on the support, zero over the kernel."""
    return _over_scale(gamma, _check_in_range(gamma, h, "h"))


def sqrt_apply(gamma, v):
    """Apply Q^{1/2} (kernel components are annihilated)."""
    return np.asarray(v, dtype=float).reshape(-1) * gamma.scale


def white_noise(gamma, z, x):
    """W_z(x) = sum over the support of x_k z_k / sqrt(lambda_k).

    Kernel components of z are ignored.  Accepts a single point (dim,) or a
    batch (n, dim); under x ~ gamma the value is centered Gaussian with
    variance equal to the squared norm of the supported part of z.
    """
    z = np.asarray(z, dtype=float).reshape(gamma.dim)
    return np.asarray(x, dtype=float) @ _over_scale(gamma, z)


def exp_functional(gamma, z, x):
    """exp(W_z(x) - ||supported part of z||^2 / 2); integrates to 1 against gamma."""
    z = np.asarray(z, dtype=float).reshape(-1)
    half_var = 0.5 * float(np.sum(z[gamma.support] ** 2))
    return np.exp(white_noise(gamma, z, x) - half_var)


def cameron_martin_density(gamma, h, x):
    """Density of the shifted measure N(h, Q) against gamma at x.

    h must lie in the Cameron-Martin space numerically (no kernel mass).
    """
    h = _check_in_range(gamma, h, "h")
    return exp_functional(gamma, pinv_sqrt_apply(gamma, h), x)


def expect(gamma, f, scheme=None):
    """Integral of f against gamma using the given scheme; f is called on
    batches of points only, and None means ``QuadScheme.default_for``
    of gamma's dimension (see :func:`numerics.gauss_expect`)."""
    return gauss_expect(f, np.zeros(gamma.dim), gamma.sqrt_cols(), scheme)


class LinearMap:
    """Plain matrix acting between canonical coordinate spaces."""

    def __init__(self, matrix):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        self.matrix = _read_only(m.copy())

    __setstate__ = _restore_read_only

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def adjoint(self):
        return LinearMap(self.matrix.T)

    @property
    def op_norm(self):
        if min(self.matrix.shape) == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix, 2))

    def __call__(self, v):
        return self.matrix @ np.asarray(v, dtype=float)


def _as_matrix(L):
    return L.matrix if isinstance(L, LinearMap) else np.atleast_2d(np.asarray(L, dtype=float))


def range_ratio_norm(L1, L2, tol=RANGE_INCLUSION_TOL):
    """Smallest C with ||L1^T x|| <= C ||L2^T x|| for every x.

    Equals the operator norm of pinv(L2) @ L1 once Range(L1) is contained in
    Range(L2); raises Incomparable when the inclusion fails numerically.
    """
    a = _as_matrix(L1)
    b = _as_matrix(L2)
    if a.shape[0] != b.shape[0]:
        raise ValueError("outer dimensions differ")
    scale_a = np.linalg.norm(a, 2) if a.size else 0.0
    if scale_a == 0.0:
        return 0.0
    u, sig, _ = np.linalg.svd(b, full_matrices=False)
    rank = int(np.sum(sig > tol * (sig[0] if sig.size else 0.0)))
    u = u[:, :rank]
    residual = a - u @ (u.T @ a)
    if np.linalg.norm(residual, 2) > tol * scale_a:
        raise Incomparable("Range(L1) is not contained in Range(L2)")
    return float(np.linalg.norm(np.linalg.pinv(b) @ a, 2))
