"""Hermite calculus and Wiener chaos expansions.

Polynomials are kept in the normalized family phi_n = He_n/n!, whose
three-term recurrence is stable far beyond the degrees used here; the
orthonormal basis of L^2(gamma) is Phi_alpha = sqrt(alpha!) prod_j
phi_{alpha_j}(x_j/sqrt(lambda_j)) over graded multi-indices.  Expansions are
sparse maps from multi-index to coefficient, with closed forms for the two
families the rest of the library leans on: exponentials of white noise and
products of white noises.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from .errors import (DegreeTooLarge, OffSupport, SchemeTooCoarse,
                     SizeTooLarge)
from .numerics import (QuadScheme, _hermite_rule, _read_only, _rule_batches,
                       eval_batch)

HERMITE_MAX_DEGREE = 60
MONOMIAL_MAX_FACTORS = 8
SIGMA_MAX_ORDER = 20
# entries of one symmetric-power table (2^22 float64 entries are 32 MiB);
# per-entry permanents would have taken hours long before this size
BLOCK_MAX_ENTRIES = 1 << 22


class MultiIndex(tuple):
    """Multi-index of nonnegative integers; behaves as a plain tuple."""

    def __new__(cls, entries):
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be nonnegative")
        return super().__new__(cls, entries)

    @property
    def order(self):
        return sum(self)

    @property
    def factorial(self):
        out = 1
        for e in self:
            out *= math.factorial(e)
        return out

    def repeated(self):
        """Non-decreasing list of positions, each repeated by its entry:
        (2,0,1) -> (0,0,2)."""
        return tuple(j for j, e in enumerate(self) for _ in range(e))


def _colex_key(alpha):
    return (sum(alpha), tuple(reversed(alpha)))


@lru_cache(maxsize=None)
def _indices(d, n):
    """The multi-indices of order n in d >= 1 slots, in graded colex order;
    only this (d, n) is kept, each index built once from plain tuples."""
    return tuple(map(MultiIndex, _compositions(d, n)))


def _compositions(d, n):
    if d == 1:
        yield (n,)
        return
    for last in range(n + 1):
        for head in _compositions(d - 1, n - last):
            yield head + (last,)


@lru_cache(maxsize=None)
def _index_tables(d, n):
    """Integer tables over _indices(d, n), n >= 1, for multiplying a
    polynomial by a linear form in the graded colex order.

    down[i, k] is the position of alpha_k - e_i in _indices(d, n - 1), or
    the length of that list when alpha_k[i] = 0; slot[k] is the last
    nonzero slot of alpha_k and parent[k] = down[slot[k], k].
    """
    below = {alpha: k for k, alpha in enumerate(_indices(d, n - 1))}
    alphas = _indices(d, n)
    down = np.full((d, len(alphas)), len(below))
    slot = np.empty(len(alphas), dtype=int)
    for k, alpha in enumerate(alphas):
        for i, e in enumerate(alpha):
            if e > 0:
                down[i, k] = below[alpha[:i] + (e - 1,) + alpha[i + 1:]]
                slot[k] = i
    parent = down[slot, np.arange(len(alphas))]
    return _read_only((down, slot, parent))


def _times_linear_forms(prev, down, forms):
    """Coefficients over degree n of the products (sum_i forms[i, c] y_i) * p_c(y),
    given those of the polynomials p_c over degree n - 1 as the columns of
    prev; down is the table of _index_tables for degree n."""
    padded = np.vstack([prev, np.zeros((1, prev.shape[1]))])
    out = forms[0] * padded[down[0]]
    for i in range(1, len(down)):
        out += forms[i] * padded[down[i]]
    return out


def _check_block(rows, cols, degree):
    """Raise SizeTooLarge when the degree-``degree`` symmetric power of a
    rows x cols matrix exceeds BLOCK_MAX_ENTRIES entries; table sizes grow
    with the degree, so the top block bounds them all."""
    size = math.comb(degree + rows - 1, degree) * math.comb(
        degree + cols - 1, degree)
    if size > BLOCK_MAX_ENTRIES:
        raise SizeTooLarge(f"degree-{degree} block of {size} entries exceeds "
                           f"the budget BLOCK_MAX_ENTRIES = {BLOCK_MAX_ENTRIES}")


def _symmetric_powers(m, max_degree):
    """Yield, for n = 0..max_degree, the matrix of the n-th symmetric tensor
    power of m in the orthonormal bases indexed by _indices(cols, n) and
    _indices(rows, n): entry [beta, alpha] is perm(A)/sqrt(alpha! beta!).

    It is read off P_n[beta, alpha], the coefficient of y^beta in
    prod_l (sum_i m[i, l] y_i)^{alpha_l}, as P_n[beta, alpha]
    sqrt(beta!/alpha!).  Each P_n is built from P_{n-1} by multiplying
    column alpha - e_l by the linear form of column l of m, l the last
    nonzero slot of alpha.
    """
    rows, cols = m.shape
    _check_block(rows, cols, max_degree)
    p = np.ones((1, 1))
    yield p
    for n in range(1, max_degree + 1):
        _, slot, parent = _index_tables(cols, n)
        p = _times_linear_forms(p[:, parent], _index_tables(rows, n)[0],
                                m[:, slot])
        yield p * (_sqrt_factorials(rows, n)[:, None]
                   / _sqrt_factorials(cols, n)[None, :])


@lru_cache(maxsize=None)
def _sqrt_factorials(d, n):
    return _read_only(np.array([math.sqrt(alpha.factorial)
                                for alpha in _indices(d, n)]))


def _sqrt_factorial_column(top):
    """sqrt(k!) for k = 0..top."""
    return np.concatenate([_sqrt_factorials(1, k) for k in range(top + 1)])


def enumerate_indices(d, n):
    """All multi-indices of length d with |alpha| = n, in graded colex order;
    there are C(n+d-1, n) of them."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    return list(_indices(d, n))


def enumerate_up_to(d, max_degree):
    out = []
    for n in range(max_degree + 1):
        out.extend(_indices(d, n))
    return out


def sigma_class_count(alpha):
    """Number of distinct rearrangements of the repeated-index list: |alpha|!/alpha!."""
    alpha = MultiIndex(alpha)
    if alpha.order > SIGMA_MAX_ORDER:
        raise SizeTooLarge(f"order {alpha.order} exceeds the combinatorial budget")
    return math.factorial(alpha.order) // alpha.factorial


def hermite_phi(n, xi):
    """phi_n(xi) = He_n(xi)/n!, the normalized probabilists' Hermite polynomial."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > HERMITE_MAX_DEGREE:
        raise DegreeTooLarge(f"degree {n} exceeds the recurrence budget")
    xi = np.asarray(xi, dtype=float)
    row = _phi_table(xi.reshape(-1), n)[n].reshape(xi.shape)
    return row if row.ndim else float(row)


def _phi_table(xi, max_degree):
    """phi_k(xi) for k = 0..max_degree; xi of shape (m,), result (max_degree+1, m)."""
    out = np.empty((max_degree + 1, len(xi)))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = xi
    for k in range(1, max_degree):
        out[k + 1] = (xi * out[k] - out[k - 1]) / (k + 1)
    return out


def phi_alpha(gamma, alpha, x):
    """Orthonormal Hermite basis element of L^2(gamma) at x (point or batch)."""
    alpha = MultiIndex(alpha)
    if len(alpha) != gamma.dim:
        raise ValueError("multi-index length does not match the dimension")
    return _hermite_sum(gamma, [(alpha, 1.0)], x)


def _hermite_sum(gamma, terms, x):
    """Sum of c * Phi_alpha(x) over the (alpha, c) in terms; x is a point or
    a batch.

    The multi-indices form one integer table, and one table holds
    He_k/sqrt(k!) = sqrt(k!) phi_k at every loaded coordinate of every
    point, so c * Phi_alpha at all points and for all terms is c times a
    product over the coordinates of entries picked from it; the sum runs
    along each row of that points x terms matrix.  Points are taken in
    chunks that keep the matrix within BLOCK_MAX_ENTRIES entries; a row is
    summed alone, so a point's value does not depend on the chunk it falls
    in.
    """
    terms = list(terms)
    alphas = np.fromiter(itertools.chain.from_iterable(a for a, _ in terms),
                         dtype=int, count=len(terms) * gamma.dim).reshape(
                             len(terms), gamma.dim)
    coeffs = np.fromiter((c for _, c in terms), dtype=float, count=len(terms))
    loaded = np.flatnonzero(alphas.any(axis=0))
    if not gamma.support[loaded].all():
        raise OffSupport("multi-index loads a kernel direction")
    top = int(alphas.max(initial=0))
    if top > HERMITE_MAX_DEGREE:
        raise DegreeTooLarge(f"degree {top} exceeds the recurrence budget")
    picks = alphas[:, loaded]
    root = _sqrt_factorial_column(top)[:, None]
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    out = np.empty(len(x))
    step = max(1, BLOCK_MAX_ENTRIES // max(len(terms), 1))
    for start in range(0, len(x), step):
        xi = x[start:start + step, loaded] / gamma.scale[loaded]
        tables = (_phi_table(xi.reshape(-1), top) * root).reshape(
            (top + 1,) + xi.shape)
        values = np.repeat(coeffs[None, :], len(xi), axis=0)
        for i in range(len(loaded)):
            values *= tables[:, :, i].T[:, picks[:, i]]
        out[start:start + step] = values.sum(axis=1)
    return float(out[0]) if single else out


class ChaosExpansion:
    """Sparse chaos expansion: coefficients over multi-indices up to max_degree."""

    def __init__(self, measure, max_degree, coeffs, residual=None):
        self.measure = measure
        self.max_degree = int(max_degree)
        clean = {}
        for alpha, c in coeffs.items():
            if type(alpha) is not MultiIndex:
                alpha = MultiIndex(alpha)
            if len(alpha) != measure.dim:
                raise ValueError("multi-index length does not match the measure")
            if alpha.order > self.max_degree:
                raise ValueError("coefficient beyond max_degree")
            if c != 0.0:
                clean[alpha] = float(c)
        self.coeffs = clean
        self.residual = residual

    def __getitem__(self, alpha):
        if type(alpha) is not MultiIndex:
            alpha = MultiIndex(alpha)
        return self.coeffs.get(alpha, 0.0)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: _colex_key(kv[0]))

    def to_json(self):
        return json.dumps([{"alpha": list(a), "c": c} for a, c in self.sorted_items()])

    @classmethod
    def from_json(cls, payload, measure, max_degree):
        data = json.loads(payload) if isinstance(payload, str) else payload
        return cls(measure, max_degree,
                   {MultiIndex(item["alpha"]): item["c"] for item in data})


def eval_expansion(expansion, x):
    """Pointwise sum of coefficients times basis elements."""
    return _hermite_sum(expansion.measure, expansion.coeffs.items(), x)


def l2_norm(expansion):
    return math.sqrt(sum(c * c for c in expansion.coeffs.values()))


def _support_tables(gamma, pts_embedded, max_degree):
    """phi tables per supported coordinate for a batch of points in X."""
    return {j: _phi_table(pts_embedded[:, j] / gamma.scale[j], max_degree)
            for j in range(gamma.dim) if gamma.support[j]}


def _phi_from_tables(alpha, tables, m):
    out = np.full(m, math.sqrt(alpha.factorial))
    for j, e in enumerate(alpha):
        if e > 0:
            out = out * tables[j][e]
    return out


def project(gamma, f, max_degree, scheme=None, expect_polynomial=False):
    """Chaos coefficients c_alpha = integral of f * Phi_alpha against gamma.

    A Gauss-Hermite grid is projected by sum factorisation
    (:func:`_sum_factorised`); Monte Carlo draws have no tensor structure
    and are streamed in the pieces of 8 192 points that the rule hands
    out, one pass over each piece per multi-index.  With
    expect_polynomial=True the Parseval residual
    ||f||^2 - sum c_alpha^2 is computed on the same grid and must stay below
    the scheme tolerance (default 1e-9), otherwise SchemeTooCoarse is raised;
    the residual is stored on the returned expansion either way.
    """
    if scheme is None:
        scheme = QuadScheme.default_for(int(gamma.support.sum()), max_degree)
    # the first piece is drawn before indices are enumerated, so an
    # oversized grid is refused at once
    batches = _rule_batches(scheme, gamma.sqrt_cols())
    first = next(batches)
    kernel = np.flatnonzero(~gamma.support).tolist()
    alphas = [a for a in enumerate_up_to(gamma.dim, max_degree)
              if not any(a[j] for j in kernel)]
    sums = np.zeros(len(alphas))
    sq_mass = 0.0
    for x, w in itertools.chain([first], batches):
        fv = eval_batch(f, x)
        sq_mass += float(np.dot(w, fv * fv))
        if scheme.kind == "monte_carlo":
            tables = _support_tables(gamma, x, max_degree)
            for i, a in enumerate(alphas):
                sums[i] += np.dot(w, fv * _phi_from_tables(a, tables, len(x)))
        else:
            # the grid has scheme.nodes points on each supported axis, and
            # both lists of indices run in graded colex order
            sums = _sum_factorised(
                fv, (scheme.nodes,) * int(gamma.support.sum()), max_degree)
    coeffs = dict(zip(alphas, sums.tolist()))
    residual_sq = sq_mass - sum(c * c for c in coeffs.values())
    residual = math.sqrt(max(residual_sq, 0.0))
    if expect_polynomial:
        # tolerance applies to the Parseval mass mismatch; the norm itself is
        # a square root of a float cancellation and cannot do better
        tol = scheme.tolerance if scheme.tolerance is not None else 1e-9
        if residual_sq > tol * max(1.0, sq_mass):
            raise SchemeTooCoarse(
                f"polynomial reconstruction residual {residual:.3e} above budget")
    return ChaosExpansion(gamma, max_degree, coeffs, residual=residual)


def _sum_factorised(values, nodes, max_degree):
    """sum_i values[i] prod_k B_k[alpha_k, i_k] for every alpha of len(nodes)
    entries with |alpha| <= max_degree, in graded colex order, where values
    lie on the tensor Gauss-Hermite grid with nodes[k] points on axis k
    (last axis fastest) and B_k is _weighted_basis(nodes[k], max_degree):
    the chaos coefficients of the values over that grid.

    The sum factorises over the axes (Orszag 1980), so the axes are
    contracted one at a time, each by one matrix product, and after each
    only the partial indices of total degree <= max_degree are kept
    (:func:`_degree_cut`): after k axes the intermediate holds
    C(max_degree + k, k) * prod(nodes[k:]) entries.  The product for axis
    k, before the cut, holds (max_degree + 1)/nodes[k] times the entries
    of the intermediate it starts from.
    """
    rows = np.reshape(values, (1, -1))
    for k, n in enumerate(nodes):
        product = np.matmul(_weighted_basis(n, max_degree),
                            rows.reshape(len(rows), n, -1))
        rows = product.reshape(-1, product.shape[2])[_degree_cut(k, max_degree)]
    return rows[:, 0]


@lru_cache(maxsize=None)
def _degree_cut(k, max_degree):
    """Rows to keep, in order, of the product of :func:`_sum_factorised` for
    axis k.  Its rows are the partial indices p over axes 0..k-1 of degree
    <= max_degree in graded colex order, and the product puts (p, j), for
    alpha_k = j, at row p * (max_degree + 1) + j.  The kept rows are those
    with deg p + j <= max_degree, in graded colex order of the extended
    indices: by degree, then by j, then by p."""
    counts = [math.comb(d + k - 1, d) if k else int(d == 0)
              for d in range(max_degree + 1)]
    starts = np.cumsum([0] + counts)
    return _read_only(np.concatenate([
        np.arange(starts[e - j], starts[e - j + 1]) * (max_degree + 1) + j
        for e in range(max_degree + 1) for j in range(e + 1)]))


@lru_cache(maxsize=None)
def _weighted_basis(n, max_degree):
    """B[k, i] = w_i sqrt(k!) phi_k(x_i) = w_i He_k(x_i)/sqrt(k!) over the
    kept n-point Gauss-Hermite rule (x, w), for k = 0..max_degree."""
    x, w = _hermite_rule(n)
    root = _sqrt_factorial_column(max_degree)
    return _read_only(_phi_table(x, max_degree) * root[:, None] * w[None, :])


def exp_functional_coeffs(gamma, z, max_degree):
    """Chaos coefficients of the exponential functional E_z:
    c_alpha = prod_j z_j^{alpha_j} / sqrt(alpha!), over the support of gamma."""
    z = np.asarray(z, dtype=float).reshape(-1)
    live = [j for j in range(gamma.dim) if gamma.support[j] and z[j] != 0.0]
    coeffs = {MultiIndex([0] * gamma.dim): 1.0}
    for n in range(1, max_degree + 1):
        for packed in (_indices(len(live), n) if live else ()):
            alpha = [0] * gamma.dim
            for pos, e in zip(live, packed):
                alpha[pos] = e
            alpha = MultiIndex(alpha)
            c = 1.0
            for pos, e in zip(live, packed):
                c *= z[pos] ** e
            coeffs[alpha] = c / math.sqrt(alpha.factorial)
    return ChaosExpansion(gamma, max_degree, coeffs)


def monomial_coeffs(gamma, h_list):
    """Degree-n chaos slice of a product of white noises prod_j W_{h_j}.

    c_alpha = sqrt(alpha!) * sum over distinct rearrangements tau of the
    repeated-index list of alpha of prod_k h_k[tau_k], that is sqrt(alpha!)
    times the coefficient of y^alpha in prod_k (h_k . y); everything lives
    on the support of gamma, kernel components of the h_j are ignored.
    """
    hs = [np.asarray(h, dtype=float).reshape(-1) for h in h_list]
    n = len(hs)
    if n > MONOMIAL_MAX_FACTORS:
        raise SizeTooLarge(f"{n} factors exceed the rearrangement budget")
    d = gamma.dim
    poly = np.ones((1, 1))
    for k, h in enumerate(hs, start=1):
        live = np.where(gamma.support, h, 0.0)
        poly = _times_linear_forms(poly, _index_tables(d, k)[0], live[:, None])
    values = poly[:, 0] * _sqrt_factorials(d, n)
    return ChaosExpansion(gamma, n, dict(zip(_indices(d, n), values.tolist())))
