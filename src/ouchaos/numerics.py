"""Shared integration and randomness kernels.

Everything downstream funnels Gaussian expectations through one rule and
one accumulator: :func:`_rule_batches` yields the rule of
:func:`gauss_rule` piece by piece, and :func:`_gauss_average` averages f
over any stream of weighted pieces for a batch of means, with each mean's
standard error, so quadrature exactness and Monte Carlo determinism are
controlled in a single place.  :func:`gauss_expect` hands it the rule for
one mean or a batch, :func:`mc_estimate` a caller's own sampler's batches.
Gauss-Hermite rules are the probabilists' ones (weight
``exp(-x^2/2)/sqrt(2*pi)``), matching the Hermite family used by the chaos
module.  Monte Carlo uses the counter-based Philox generator with one
substream per fixed-size batch, so results depend only on the seed and the
sample count, never on scheduling.  The rule draws each batch in pieces of
8 192 points through two reused buffers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureFailure, SchemeTooCoarse

GH_MAX_NODES = 128
# hard cap on tensor-grid size before the scheme must switch to Monte Carlo
_GRID_CAP = 4_000_000
_MC_BATCH = 1 << 16
# Monte Carlo rules are streamed in pieces of this many points; divides _MC_BATCH
_MC_PIECE = 1 << 13


@dataclass(frozen=True)
class QuadScheme:
    """Declarative integration scheme.

    kind is ``tensor_gauss_hermite`` (uses ``nodes``) or ``monte_carlo``
    (uses ``samples`` and ``seed``).  ``tolerance`` is optional: when set,
    Monte Carlo estimates raise :class:`SchemeTooCoarse` if the standard
    error exceeds it, and chaos projections use it to validate polynomial
    residuals.
    """

    kind: str
    nodes: int = 0
    samples: int = 0
    seed: int = 0
    tolerance: float | None = None

    def __post_init__(self):
        if self.kind not in ("tensor_gauss_hermite", "monte_carlo"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "tensor_gauss_hermite" and not 1 <= self.nodes <= GH_MAX_NODES:
            raise ValueError("tensor_gauss_hermite needs 1 <= nodes <= 128")
        if self.kind == "monte_carlo" and self.samples < 2:
            raise ValueError("monte_carlo needs at least 2 samples")

    @classmethod
    def gauss_hermite(cls, nodes, tolerance=None):
        return cls(kind="tensor_gauss_hermite", nodes=nodes, tolerance=tolerance)

    @classmethod
    def monte_carlo(cls, samples, seed=0, tolerance=None):
        return cls(kind="monte_carlo", samples=samples, seed=seed, tolerance=tolerance)

    @classmethod
    def default_for(cls, dim, degree=10):
        """Tensor Gauss-Hermite with degree + 2 nodes per axis for dim <= 4,
        Monte Carlo fallback at seed 0 above that."""
        if dim <= 4:
            return cls.gauss_hermite(min(degree + 2, GH_MAX_NODES))
        return cls.monte_carlo(200_000)


def gh_nodes(n):
    """Nodes and weights of the n-point probabilists' Gauss-Hermite rule.

    The weights sum to one, so the rule integrates against the standard
    normal density and is exact for polynomials of degree 2n - 1.  The
    arrays are fresh copies of the rule :func:`_hermite_rule` keeps.
    """
    x, w = _hermite_rule(n)
    return x.copy(), w.copy()


@functools.lru_cache(maxsize=GH_MAX_NODES)
def _hermite_rule(n):
    """The rule of :func:`gh_nodes`, built once per node count and shared
    read-only by every caller."""
    if not 1 <= n <= GH_MAX_NODES:
        raise ValueError("gauss-hermite rule needs 1 <= n <= 128")
    x, w = hermegauss(n)
    return _read_only((x, w / math.sqrt(2.0 * math.pi)))


def _read_only(value):
    """value, with every array in it or in its nested tuples made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _kept(fn):
    """Run fn(owner, *args) once per owner and per float arguments; keep the
    result read-only, for every caller to share, in the owner's __dict__,
    under fn's qualified name so that the owner still pickles."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def kept(owner, *args, **kwargs):
        key = (name, *map(float, args), *kwargs.items())
        memo = owner.__dict__.setdefault("_kept", {})
        if key not in memo:
            memo[key] = _read_only(fn(owner, *args, **kwargs))
        return memo[key]
    return kept


def _restore_read_only(owner, state):
    """__setstate__ for an owner of read-only arrays: pickling does not keep
    the flag, so every array of the restored __dict__ and every value that
    :func:`_kept` keeps on the owner is made read-only again."""
    owner.__dict__.update(state)
    for value in state.values():
        _read_only(value)
    for value in state.get("_kept", {}).values():
        _read_only(value)


def gh_tensor(dim, n):
    """Tensor-product Gauss-Hermite grid: points of shape (n**dim, dim),
    the last axis varying fastest, and the matching product weights."""
    if dim == 0:
        return np.zeros((1, 0)), np.ones(1)
    if n ** dim > _GRID_CAP:
        raise SchemeTooCoarse(
            f"tensor grid {n}^{dim} exceeds the size cap; use monte_carlo")
    x, w = _hermite_rule(n)
    pts = np.empty((n,) * dim + (dim,))
    wts = np.ones(())
    for k in range(dim):
        pts[..., k] = x.reshape((n,) + (1,) * (dim - 1 - k))
        wts = np.multiply.outer(wts, w)
    return pts.reshape(-1, dim), wts.reshape(-1)


def eval_batch(f, pts):
    """Evaluate f on a batch of points, accepting both vectorized callables
    (f(pts) -> (m,)) and scalar ones (f(p) -> float).

    f is called point by point only when the batch call returns the wrong
    shape or raises TypeError, IndexError or a plain ValueError, the ways a
    scalar callable fails on a batch; every other exception, the library's
    typed errors included, propagates from the batch call.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m = len(pts)
    try:
        out = np.asarray(f(pts), dtype=float)
    except Exception as exc:
        if not (isinstance(exc, (TypeError, IndexError)) or type(exc) is ValueError):
            raise
        out = None
    if out is not None and out.shape == (m,):
        return out
    if out is not None and out.shape == (m, 1):
        return out[:, 0]
    return np.array([float(f(p)) for p in pts], dtype=float)


def _philox_batches(seed, n):
    """(generator, size) for each batch of n draws: batch k holds at most
    _MC_BATCH draws from the jumped substream Philox(seed).jumped(k)."""
    for k, start in enumerate(range(0, n, _MC_BATCH)):
        bg = np.random.Philox(key=np.uint64(seed)).jumped(k)
        yield np.random.Generator(bg), min(_MC_BATCH, n - start)


def mc_estimate(f, sampler, n, seed):
    """Monte Carlo mean of f over draws from ``sampler``.

    sampler(generator, size) must return an array of ``size`` samples.
    Samples are drawn in fixed-size batches, each from its own jumped
    Philox substream, so the estimate is a pure function of (seed, n).
    The batches, with weights 1/n, go through :func:`_gauss_average` as
    the sampler returned them (they are only read), and its standard error
    merges centred second moments batch by batch.  Returns (mean, stderr).
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    weight = np.full(min(n, _MC_BATCH), 1.0 / n)
    pieces = ((sampler(gen, size), weight[:size])
              for gen, size in _philox_batches(seed, n))
    # one zero mean, which broadcasts over the samples' coordinates
    value, err = _gauss_average(f, np.zeros((1, 1)), pieces,
                                QuadScheme.monte_carlo(n, seed))
    return float(value[0]), float(err[0])


def _merge_moments(mean, m2, done, batch_mean, batch_m2, size):
    """Chan, Golub and LeVeque's pairwise update: the mean and centred second
    moment of ``done`` values merged with those of a batch of ``size``."""
    delta = batch_mean - mean
    share = size / (done + size)
    return mean + delta * share, m2 + (batch_m2 + delta * delta * done * share)


def _live_columns(cols):
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    return cols[:, np.linalg.norm(cols, axis=0) > 0.0]


def rule_size(scheme, cols):
    """Number of points in gauss_rule(scheme, cols), found without building it."""
    m = _live_columns(cols).shape[1]
    if m == 0:
        return 1
    return scheme.samples if scheme.kind == "monte_carlo" else scheme.nodes ** m


def gauss_rule(scheme, cols):
    """Points and weights of the scheme's rule for N(0, cols @ cols.T).

    Zero columns of the d x m factor are pruned first.  Gauss-Hermite gives
    the tensor grid over the remaining columns; Monte Carlo gives the
    Philox draws, batch by batch as :func:`mc_estimate` takes them, with
    weights 1/n.  Points have shape (n, d).  This is the rule that
    :func:`gauss_expect` and ``chaos.project`` stream piece by piece.
    """
    # Monte Carlo pieces share the buffers of _rule_batches; keep copies
    pieces = [(pts.copy(), wts) for pts, wts in _rule_batches(scheme, cols)]
    if len(pieces) == 1:
        return pieces[0]
    pts, wts = zip(*pieces)
    return np.concatenate(pts), np.concatenate(wts)


def _rule_batches(scheme, cols):
    """The rule of :func:`gauss_rule` in pieces: the whole tensor grid, or
    each Philox batch of draws in pieces of 8 192 points (_MC_PIECE), all
    of them sharing one array of weights 1/n.

    A batch is drawn from its own generator piece after piece, which gives
    the same draws as one call for the whole batch.  Every Monte Carlo
    piece is a view into the same two buffers, one of draws and one of
    mapped points, refilled for the next piece: a consumer must copy what
    it keeps.  Reusing two small
    buffers spares the allocator two batch-sized arrays per batch, and
    keeps the temporaries of f small."""
    cols = _live_columns(cols)
    m = cols.shape[1]
    if scheme.kind == "monte_carlo" and m > 0:
        piece = min(_MC_PIECE, scheme.samples)
        weight = np.full(piece, 1.0 / scheme.samples)
        draws = np.empty((piece, m))
        pts = np.empty((piece, len(cols)))
        for gen, size in _philox_batches(scheme.seed, scheme.samples):
            for start in range(0, size, piece):
                k = min(piece, size - start)
                gen.standard_normal(out=draws[:k])
                np.matmul(draws[:k], cols.T, out=pts[:k])
                yield pts[:k], weight[:k]
    else:
        pts, wts = gh_tensor(m, scheme.nodes)
        yield pts @ cols.T, wts


def _gauss_average(f, means, pieces, scheme):
    """The weighted average of f(mean + disp) over the (disp, weight) pieces
    of one rule for every row of ``means`` (m, d), and each row's standard
    error; two arrays of shape (m,).  The only code that sums, merges
    centred moments and applies the tolerance.

    The pieces, those of :func:`_rule_batches` or of :func:`mc_estimate`,
    are taken one at a time, so a Monte Carlo rule is never held whole, and
    are only read.  f gets the piece around a block of consecutive means,
    as many as fit in 8 192 points (_MC_PIECE) and at least one, laid out
    coordinate-major in one buffer so that f reads each coordinate
    contiguously.  Each row's sum and centred moments come from that row
    alone, so a mean's value and standard error do not depend on the batch
    it arrives in.  Under Monte Carlo the standard error comes from each
    row's centred second moment, merged piece by piece; under Gauss-Hermite
    it is 0.  With a tolerance, SchemeTooCoarse is raised when any row's
    standard error exceeds ``tolerance * max(1, |value|)``.
    """
    rows = len(means)
    sampled = scheme.kind == "monte_carlo"
    out = np.zeros(rows)
    run = np.zeros(rows)
    m2 = np.zeros(rows)
    shifts = means.T[:, :, None]
    buf = np.empty(0)
    done = 0
    for disp, w in pieces:
        size = len(w)
        step = max(1, _MC_PIECE // size)
        coords = np.ascontiguousarray(np.transpose(disp))[:, None, :]
        dim = len(coords)
        need = dim * min(step, rows) * size
        if buf.size < need:
            buf = np.empty(need)
        for start in range(0, rows, step):
            block = slice(start, min(start + step, rows))
            k = block.stop - start
            pts = np.add(shifts[:, block], coords,
                         out=buf[:dim * k * size].reshape(dim, k, size))
            vals = eval_batch(f, pts.reshape(dim, -1).T).reshape(k, size)
            # one dot product per row, bit for bit that of np.dot(w, row)
            out[block] += np.matmul(vals[:, None, :], w)[:, 0]
            if sampled:
                batch_mean = np.mean(vals, axis=1)
                run[block], m2[block] = _merge_moments(
                    run[block], m2[block], done, batch_mean,
                    np.sum((vals - batch_mean[:, None]) ** 2, axis=1), size)
        done += size
    err = np.sqrt(m2 / max((done - 1) * done, 1))
    if scheme.tolerance is not None:
        bad = err > scheme.tolerance * np.maximum(1.0, np.abs(out))
        if bad.any():
            raise SchemeTooCoarse(
                f"standard error {err[bad].max():.3e} above tolerance "
                f"{scheme.tolerance:.3e}")
    return out, err


def gauss_expect(f, mean, cols, scheme):
    """E[f(mean + cols @ xi)] with xi a standard normal vector, for one
    mean (d,), giving a float, or each row of a batch (m, d), giving (m,).

    ``cols`` is a d x m factor of the covariance (cov = cols @ cols.T);
    columns that vanish are pruned before building the grid.  Gauss-Hermite
    mode trusts the rule (exact for polynomial f of degree < 2*nodes);
    Monte Carlo mode enforces ``scheme.tolerance`` on each standard error
    when a tolerance is set.
    """
    return gauss_expect_err(f, mean, cols, scheme)[0]


def gauss_expect_err(f, mean, cols, scheme):
    """Like :func:`gauss_expect` but also returns the error estimate
    (zero in quadrature mode, the standard error in Monte Carlo mode)."""
    mean = np.asarray(mean, dtype=float)
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if mean.ndim not in (1, 2):
        raise ValueError("mean must be one point (d,) or a batch (m, d)")
    if cols.shape[0] != mean.shape[-1]:
        raise ValueError("cols must have one row per coordinate of mean")
    value, err = _gauss_average(f, np.atleast_2d(mean),
                                _rule_batches(scheme, cols), scheme)
    if mean.ndim == 2:
        return value, err
    return float(value[0]), float(err[0])


def panel_integrate(f, a, b, order=8, max_refine=14, rtol=1e-10):
    """Composite Gauss-Legendre integral of a vector/matrix-valued function,
    refined locally.

    f must map an array of nodes (m,) to an array (m, ...) of integrand
    values.  Starting from the single panel [a, b], each panel's
    ``order``-point value is compared with the sum over its two halves, and
    the halves are kept as its integral.  Once the differences add up to no
    more than the error budget ``rtol * max(1, mass)``, mass being the L1
    mass of the result, the sum is returned; until then every panel whose
    difference exceeds its equal share of the budget is bisected, the others
    stay as they are, and the new panels of one level are evaluated in a
    single call of f.  A kink thus costs a few panels per level near it
    instead of doubling all of them.  Raises :class:`QuadratureFailure` when
    ``max_refine`` bisection levels do not meet the budget.
    """
    if b < a:
        raise ValueError("integration interval is reversed")
    if b == a:
        probe = np.asarray(f(np.array([a], dtype=float)), dtype=float)
        return np.zeros(probe.shape[1:])
    xg, wg = _legendre_rule(order)
    half = 0.5 * (b - a)
    sums = _panel_sums(f, np.array([a, a, a + half]),
                       np.array([b - a, half, half]), xg, wg)
    lo, width = np.array([a]), np.array([b - a])
    coarse, halves = sums[:1], sums[None, 1:]
    for level in range(max_refine + 1):
        fine = halves.sum(axis=1)
        err = np.abs(coarse - fine).reshape(len(lo), -1).sum(axis=1)
        result = fine.sum(axis=0)
        budget = rtol * max(1.0, float(np.sum(np.abs(result))))
        if err.sum() <= budget:
            return result
        if level == max_refine:
            break
        split = err > budget / len(lo)
        # a split panel's halves become panels whose own value is known
        child_lo = np.stack([lo[split], lo[split] + 0.5 * width[split]],
                            axis=1).reshape(-1)
        child_width = np.repeat(0.5 * width[split], 2)
        quarter = np.repeat(0.5 * child_width, 2)
        quarter_lo = np.stack([child_lo, child_lo + 0.5 * child_width],
                              axis=1).reshape(-1)
        child_halves = _panel_sums(f, quarter_lo, quarter, xg, wg)
        keep = ~split
        lo = np.concatenate([lo[keep], child_lo])
        width = np.concatenate([width[keep], child_width])
        coarse = np.concatenate([coarse[keep],
                                 halves[split].reshape((-1,) + halves.shape[2:])])
        halves = np.concatenate([halves[keep], child_halves.reshape(
            (len(child_lo), 2) + child_halves.shape[1:])])
    raise QuadratureFailure(
        f"panel integration on [{a}, {b}] did not converge in {max_refine} refinements")


@functools.lru_cache
def _legendre_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    return _read_only(leggauss(order))


def _panel_sums(f, lo, width, xg, wg):
    """Gauss-Legendre values over the panels [lo, lo + width], from one call
    of f on all their nodes; shape (panels, ...)."""
    half = 0.5 * width
    nodes = ((lo + half)[:, None] + half[:, None] * xg[None, :]).reshape(-1)
    vals = np.asarray(f(nodes), dtype=float)
    vals = vals.reshape((len(lo), len(xg)) + vals.shape[1:])
    return np.einsum("kj,kj...->k...", half[:, None] * wg[None, :], vals)


def psd_sqrt(mat, neg_tol=1e-10):
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues in [-neg_tol, 0) are clamped to zero; anything below that
    is treated as a genuine failure of positivity and raises ValueError.
    """
    mat = np.asarray(mat, dtype=float)
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min(initial=0.0) < -neg_tol:
        raise ValueError(f"matrix has eigenvalue {vals.min():.3e}, not psd")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.T
