"""Second quantization of Cameron-Martin contractions.

A contraction T between the Cameron-Martin spaces of two spectral Gaussians
is stored through its matrix M in the Cameron-Martin orthonormal bases; the
same matrix is the canonical-coordinate matrix of Q_nu^{-1/2} T Q_mu^{1/2}.
The lifted operator acts degreewise on chaos expansions through the
symmetric tensor powers of M, and pointwise through a Mehler-type average

    (Gamma(T) f)(x) = E[f(A x + S y)],   y ~ mu,

with A the bounded extension of T* and S the extension of (I - T*T)^{1/2}.
Both routes are kept separate so they can certify each other.  The module
also carries the hypercontractivity threshold with its sharp witness, polar
factorization, the eigensystem for self-adjoint T and the Hilbert-Schmidt
diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotContraction, NotSelfAdjoint, NotStrictContraction,
                     PreconditionViolated, SchemeTooCoarse, SizeTooLarge,
                     Unbounded)
from .chaos import ChaosExpansion, MultiIndex, _indices, _symmetric_powers
from .gaussian import (LinearMap, SpectralGaussian, cm_inner, pinv_sqrt_apply,
                       white_noise)
from .numerics import (QuadScheme, _kept, _read_only, _restore_read_only,
                       gauss_expect, psd_sqrt, rule_size)

PERMANENT_MAX_SIZE = 12
CONTRACTION_SLACK = 1e-12
STRICTNESS_GAP = 1e-12
EXTENSION_CAP = 1e12
CLAMP_REJECT = 1e-10
# f-evaluations one nested Mehler quadrature may spend, outer points times
# inner points (12^4 x 12^4 = 4.3e8 of them take about 3 s)
NESTED_MAX_EVALS = 10 ** 9


class CMContraction:
    """Operator between Cameron-Martin spaces, stored in CM orthonormal bases."""

    def __init__(self, mu, nu, matrix):
        if not isinstance(mu, SpectralGaussian) or not isinstance(nu, SpectralGaussian):
            raise TypeError("mu and nu must be SpectralGaussian measures")
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.shape != (nu.dim, mu.dim):
            raise ValueError(f"matrix shape {m.shape} != ({nu.dim}, {mu.dim})")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        # kernel directions carry no Cameron-Martin mass on either side
        self.matrix = _read_only(m * nu.support[:, None] * mu.support[None, :])
        self.mu = mu
        self.nu = nu

    __setstate__ = _restore_read_only

    @classmethod
    def identity(cls, mu):
        return cls(mu, mu, np.eye(mu.dim))

    @classmethod
    def scalar(cls, mu, c):
        return cls(mu, mu, c * np.eye(mu.dim))

    @_kept
    def _decomposition(self):
        return np.linalg.svd(self.matrix)

    @property
    def singular_values(self):
        return self._decomposition()[1]

    @property
    def op_norm(self):
        s = self.singular_values
        return float(s[0]) if s.size else 0.0

    @property
    def adjoint(self):
        return CMContraction(self.nu, self.mu, self.matrix.T)

    def compose(self, other):
        """self after other (other acts first)."""
        if other.nu != self.mu:
            raise ValueError("intermediate measures do not match")
        return CMContraction(other.mu, self.nu, self.matrix @ other.matrix)

    def apply_cm(self, h):
        """Image in X of a Cameron-Martin vector h of mu."""
        return self.nu.scale * (self.matrix @ pinv_sqrt_apply(self.mu, h))

    def require_contraction(self):
        if self.op_norm > 1.0 + CONTRACTION_SLACK:
            raise NotContraction(f"operator norm {self.op_norm:.6f} exceeds 1")
        return self

    def to_json(self):
        return json.dumps({"mu": json.loads(self.mu.to_json()),
                           "nu": json.loads(self.nu.to_json()),
                           "M": self.matrix.tolist()})

    @classmethod
    def from_json(cls, payload):
        data = json.loads(payload) if isinstance(payload, str) else payload
        return cls(SpectralGaussian.from_json(data["mu"]),
                   SpectralGaussian.from_json(data["nu"]), data["M"])

    def __repr__(self):
        return f"CMContraction({self.mu.dim}->{self.nu.dim}, norm={self.op_norm:.4g})"


def op_norm(T):
    return T.op_norm


def x_extension(T):
    """Canonical-coordinate matrix of the bounded extension of T to X:
    Q_nu^{1/2} M Q_mu^{-1/2} on the support of mu, zero on its kernel."""
    out = T.nu.scale[:, None] * T.matrix * T.mu.inv_scale[None, :]
    if np.any(np.abs(out) > EXTENSION_CAP):
        raise Unbounded("no continuous extension at this truncation")
    return LinearMap(out)


def permanent(a):
    """Permanent by the Ryser formula with Gray-code subset updates."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("permanent needs a square matrix")
    if n > PERMANENT_MAX_SIZE:
        raise SizeTooLarge(f"permanent of size {n} exceeds the budget "
                           f"PERMANENT_MAX_SIZE = {PERMANENT_MAX_SIZE}")
    if n == 0:
        return 1.0
    row_sums = np.zeros(n)
    total = 0.0
    sign = 1.0
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        j = int(new_gray ^ gray).bit_length() - 1
        if new_gray & (1 << j):
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        gray = new_gray
        sign = -sign
        total += sign * float(np.prod(row_sums))
    return total if n % 2 == 0 else -total


def gamma_matrix_element(T, alpha, beta):
    """<Gamma_n(T) Phi_alpha, Phi_beta> = perm(A) / sqrt(alpha! beta!),
    A_{kl} = M[i_beta_k, i_alpha_l] with rows/columns repeated by multiplicity.
    Elements between different degrees vanish."""
    alpha = MultiIndex(alpha)
    beta = MultiIndex(beta)
    n = alpha.order
    if n != beta.order:
        return 0.0
    if n > PERMANENT_MAX_SIZE:
        raise SizeTooLarge(f"degree-{n} permanent exceeds the budget "
                           f"PERMANENT_MAX_SIZE = {PERMANENT_MAX_SIZE}")
    if n == 0:
        return 1.0
    rows = beta.repeated()
    cols = alpha.repeated()
    a = T.matrix[np.ix_(rows, cols)]
    return permanent(a) / math.sqrt(alpha.factorial * beta.factorial)


def gamma_series_apply(T, expansion):
    """Degreewise action of the second quantization on a chaos expansion;
    SizeTooLarge when its top block exceeds chaos.BLOCK_MAX_ENTRIES."""
    T.require_contraction()
    if expansion.measure != T.mu:
        raise ValueError("expansion lives on a different measure than T")
    coeffs = {}
    for n, block in enumerate(_symmetric_powers(T.matrix, expansion.max_degree)):
        v = np.array([expansion.coeffs.get(a, 0.0) for a in _indices(T.mu.dim, n)])
        if not v.any():
            continue
        image = block @ v
        coeffs.update((b, c) for b, c in zip(_indices(T.nu.dim, n), image.tolist())
                      if c != 0.0)
    return ChaosExpansion(T.nu, expansion.max_degree, coeffs)


def degree_block(T, n):
    """Matrix of the degree-n block in the graded colex bases."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    for block in _symmetric_powers(T.matrix, n):
        pass
    return block


@_kept
def mehler_factors(T):
    """Mean map A = extension of T* and covariance columns of the noise part:
    Gamma(T)f(x) = E[f(Ax + cols @ xi)] with xi standard normal.  Both are
    computed once per T and returned read-only."""
    T.require_contraction()
    m = T.matrix
    gram_defect = np.eye(T.mu.dim) - m.T @ m
    try:
        root = psd_sqrt(gram_defect, neg_tol=CLAMP_REJECT)
    except ValueError as exc:
        raise NotContraction(str(exc)) from exc
    a = x_extension(T.adjoint).matrix
    return a, T.mu.scale[:, None] * root


def gamma_integral_apply(T, f, x, scheme=None):
    """Pointwise Mehler-type average of f at x.

    x is one point (d,), giving a float, or a batch (m, d), giving (m,);
    the rule is built once for the whole batch.  Degree-preserving and
    mass-preserving; agrees with the series form on chaos expansions.
    scheme None is resolved by :func:`gauss_expect`.
    """
    a, cols = mehler_factors(T)
    return gauss_expect(f, x @ a.T, cols, scheme)


@dataclass(frozen=True)
class PolarFactors:
    B: CMContraction
    C: CMContraction


def polar_factors(T):
    """T = C B with B = (T*T)^{1/2} nonnegative on H_mu and C a partial
    isometry vanishing on the kernel of B."""
    u, s, vt = T._decomposition()
    k = len(s)
    rank_tol = 1e-12 * (s[0] if k and s[0] > 0.0 else 1.0)
    b = vt.T @ np.diag(np.pad(s, (0, T.mu.dim - k))) @ vt
    c = u[:, :k] @ np.diag((s > rank_tol).astype(float)) @ vt[:k, :]
    return PolarFactors(B=CMContraction(T.mu, T.mu, b),
                        C=CMContraction(T.mu, T.nu, c))


def q0_threshold(T, p):
    """Largest exponent q with Gamma(T) bounded from L^p(mu) to L^q(nu):
    q0 = 1 + (p-1)/||T||^2, infinite for T = 0."""
    if p <= 1:
        raise ValueError("need p > 1")
    norm = T.op_norm
    if norm == 0.0:
        return math.inf
    return 1.0 + (p - 1.0) / norm ** 2


def lq_norm_gamma(T, f, q, scheme=None, inner_scheme=None):
    """L^q(nu) norm of Gamma(T) f, estimated by the scheme.

    The outer integral runs over nu; Gamma(T) f is the inner Mehler average
    over the rule of ``inner_scheme`` (by default the scheme itself under
    Gauss-Hermite, else QuadScheme.default_for), taken for a whole outer
    batch at once.  In Monte Carlo mode the standard-error guard of each
    scheme applies to its own estimates, outer and inner.
    Raises SchemeTooCoarse, before f is evaluated, when outer points times
    inner points exceed NESTED_MAX_EVALS.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    a, cols, scheme, inner_scheme = _nested_rules(T, scheme, inner_scheme)

    def abs_power(batch):
        return np.abs(gauss_expect(f, batch @ a.T, cols, inner_scheme)) ** q

    mass = gauss_expect(abs_power, np.zeros(T.nu.dim), T.nu.sqrt_cols(), scheme)
    return max(mass, 0.0) ** (1.0 / q)


def _nested_rules(T, scheme=None, inner_scheme=None):
    """Mehler factors and the outer and inner schemes of lq_norm_gamma,
    after checking that their nested rule stays within NESTED_MAX_EVALS."""
    a, cols = mehler_factors(T)
    if scheme is None:
        scheme = QuadScheme.default_for(T.nu.dim)
    if inner_scheme is None:
        if scheme.kind == "tensor_gauss_hermite":
            inner_scheme = scheme
        else:
            inner_scheme = QuadScheme.default_for(T.mu.dim)
    outer = rule_size(scheme, T.nu.sqrt_cols())
    inner = rule_size(inner_scheme, cols)
    if outer * inner > NESTED_MAX_EVALS:
        raise SchemeTooCoarse(
            f"nested Mehler quadrature of {outer} x {inner} evaluations of f "
            f"exceeds the budget NESTED_MAX_EVALS = {NESTED_MAX_EVALS:.0e}")
    return a, cols, scheme, inner_scheme


@dataclass(frozen=True)
class HyperWitness:
    """Sharp integrability witness for the hypercontractivity threshold."""
    witness: object          # f(x) = exp(alpha W_h(x)^2), callable
    gamma_image: object      # closed form of Gamma(T) f, callable
    lq_finite: bool
    sigma2: float            # variance of the noise part of W after transport
    tau2: float              # variance of the mean part under nu
    lp_norm: float           # exact ||f||_{L^p(mu)}
    lq_norm: float           # exact ||Gamma f||_{L^q(nu)}, inf when divergent


def hyper_witness(T, p, q, h, alpha):
    """Build the Gaussian-square witness f = exp(alpha <Q_mu^{-1/2}h, .>^2).

    Requires 2 alpha p ||h||^2 < 1 so that f is in L^p(mu); reports whether
    the image stays in L^q(nu) via the exact one-dimensional criterion
    (divergence iff 2 q alpha tau^2 >= 1 - 2 alpha sigma^2, equivalently
    2 alpha (q-1) ||Th||^2 >= 1 - 2 alpha ||h||^2).
    """
    T.require_contraction()
    if p <= 1 or q < 1:
        raise ValueError("need p > 1, q >= 1")
    if alpha < 0:
        raise ValueError("need alpha >= 0")
    h = np.asarray(h, dtype=float).reshape(-1)
    v = cm_inner(T.mu, h, h)
    if 2.0 * alpha * p * v >= 1.0:
        raise PreconditionViolated("witness is not in L^p at this alpha")
    h_hat = pinv_sqrt_apply(T.mu, h)
    th = T.apply_cm(h)
    tau2 = cm_inner(T.nu, th, th)
    sigma2 = max(v - tau2, 0.0)
    a_map = x_extension(T.adjoint).matrix
    mu, nu = T.mu, T.nu

    def witness(x):
        w = white_noise(mu, h_hat, x)
        return np.exp(alpha * w * w)

    denom = 1.0 - 2.0 * alpha * sigma2

    def gamma_image(x):
        x = np.asarray(x, dtype=float)
        mean_part = white_noise(mu, h_hat, x @ a_map.T)
        return denom ** -0.5 * np.exp(alpha * mean_part ** 2 / denom)

    lq_finite = 2.0 * q * alpha * tau2 < denom
    lp_norm = (1.0 - 2.0 * p * alpha * v) ** (-0.5 / p)
    if lq_finite:
        lq_norm = denom ** -0.5 * (1.0 - 2.0 * q * alpha * tau2 / denom) ** (-0.5 / q)
    else:
        lq_norm = math.inf
    return HyperWitness(witness=witness, gamma_image=gamma_image,
                        lq_finite=lq_finite, sigma2=sigma2, tau2=tau2,
                        lp_norm=lp_norm, lq_norm=lq_norm)


def hs_norm_gamma(T, max_degree):
    """Hilbert-Schmidt diagnostics of Gamma(T) on L^2.

    partial: degree-truncated sum sqrt(sum_{|alpha| <= N} ||Gamma Phi_alpha||^2),
    evaluated in the singular basis (the degree blocks conjugate by the
    orthogonal quantizations of the SVD rotations, which leaves the
    Frobenius mass invariant).
    closed_form: prod_k (1 - s_k^2)^{-1/2} over singular values of M.
    paper_form: prod_k (1 - s_k^4)^{-1} (the printed variant, kept for
    comparison; see the ledger).  Both are inf, with no warning, beyond the
    float range.
    tail_bound: sum_{n > N} s_1^{2n} #Lambda_n, a certified remainder
    (:func:`_degree_tail`).
    """
    s = T.singular_values
    s1 = float(s[0]) if s.size else 0.0
    if s1 >= 1.0 - STRICTNESS_GAP:
        raise NotStrictContraction(f"top singular value {s1:.12f} is not below 1")
    # every factor is >= 1, so a product that overflows is inf
    with np.errstate(over="ignore"):
        closed = float(np.prod((1.0 - s ** 2) ** -0.5))
        paper = float(np.prod((1.0 - s ** 4) ** -1.0))
    # truncated product of geometric series by degree-graded convolution
    weights = np.zeros(max_degree + 1)
    weights[0] = 1.0
    for sk in s:
        if sk == 0.0:
            continue
        geom = sk ** (2.0 * np.arange(max_degree + 1))
        weights = np.convolve(weights, geom)[:max_degree + 1]
    partial = math.sqrt(float(np.sum(weights)))
    tail = _degree_tail(s1, max_degree, max(int(np.sum(s > 0.0)), 1))
    return {"partial": partial, "closed_form": closed, "paper_form": paper,
            "tail_bound": tail}


def _degree_tail(s1, max_degree, d):
    """sum_{n > N} C(n + d - 1, n) q^n with q = s1^2 and N = max_degree:
    the degree-n indices over d live directions, each weighted by q^n.

    It is evaluated in logs through the d-term identity
    sum_{j=N+1}^{N+d} C(N + d, j) q^j (1 - q)^(N - j), the negative binomial
    tail as a binomial sum, and is inf only when the sum exceeds the float
    range.
    """
    if s1 == 0.0:
        return 0.0
    n = max_degree
    log_q = 2.0 * math.log(s1)
    log_gap = math.log1p(-s1) + math.log1p(s1)  # log(1 - q) without cancelling
    logs = [math.log(math.comb(n + d, j)) + j * log_q + (n - j) * log_gap
            for j in range(n + 1, n + d + 1)]
    top = max(logs)
    log_tail = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    try:
        return math.exp(log_tail)
    except OverflowError:
        return math.inf


def eigen_system(T):
    """Eigenvalues (descending) and the orthogonal eigenvector rotation V of a
    self-adjoint contraction; the quantized eigenfunctions are
    Gamma(V) Phi_alpha with eigenvalue prod t_j^(alpha_j)."""
    if T.mu != T.nu:
        raise NotSelfAdjoint("operator must act on a single space")
    m = T.matrix
    if not np.allclose(m, m.T, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise NotSelfAdjoint("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order], CMContraction(T.mu, T.mu, vecs[:, order])


def gamma_eigen(T, alpha):
    """Eigenvalue prod t_j^{alpha_j} of the quantized operator (0^0 = 1)."""
    vals, _ = eigen_system(T)
    alpha = MultiIndex(alpha)
    if len(alpha) != T.mu.dim:
        raise ValueError("multi-index length does not match the dimension")
    out = 1.0
    for t, e in zip(vals, alpha):
        if e > 0:
            out *= float(t) ** e
    return out
