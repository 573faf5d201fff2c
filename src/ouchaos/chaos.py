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
# indices x samples of one Monte Carlo projection, each product a few
# nanoseconds of the per-index loop: seconds, as NESTED_MAX_EVALS
PROJECT_MAX_PRODUCTS = 10 ** 9


class MultiIndex(tuple):
    """Multi-index of nonnegative integers; behaves as a plain tuple."""

    def __new__(cls, entries):
        entries = tuple(entries)
        ints = tuple(map(int, entries))
        if ints != entries:
            raise ValueError("multi-index entries must be integers")
        if min(ints, default=0) < 0:
            raise ValueError("multi-index entries must be nonnegative")
        return super().__new__(cls, ints)

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
def _positions(d, n):
    """The multi-indices of order n in d slots as a (K, n) table of their
    positions (MultiIndex.repeated()), row k the one of graded colex rank k."""
    rows = list(itertools.combinations_with_replacement(range(d), n))
    rows = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    table = np.empty_like(rows)
    table[_colex_rank(rows)] = rows
    return _read_only(table)


def _colex_rank(rows):
    """sum_k C(p_k + k, k + 1) for each row p_0 <= ... <= p_{n-1}: its graded
    colex rank, by the combinatorial number system (Knuth, TAOCP 4A 7.2.1.3)."""
    rank = np.zeros(len(rows), dtype=np.intp)
    for k in range(rows.shape[1]):
        binom = top = rows[:, k] + k
        for i in range(1, k + 1):
            binom = binom * (top - i) // (i + 1)  # exact: C(top, i + 1)
        rank += binom
    return rank


@lru_cache(maxsize=None)
def _indices(d, n, axes=None):
    """The multi-indices of order n in d slots loading only the increasing
    tuple of axes (default, or all d: the same keys), in graded colex order,
    which axes[_positions(len(axes), n)] keeps since axes increase."""
    if axes is not None and len(axes) == d:
        return _indices(d, n)
    axes = np.array(range(d) if axes is None else axes, dtype=np.intp)
    positions = axes[_positions(len(axes), n)]
    counts = (positions[:, :, None] == np.arange(d)).sum(axis=1)
    # nonnegative ints already, so MultiIndex's checks are skipped
    return tuple(tuple.__new__(MultiIndex, row) for row in counts.tolist())


@lru_cache(maxsize=None)
def _index_tables(d, n):
    """Tables (slots, drop) over _positions(d, n), n >= 1, min(n, d) wide:
    slots[k] holds the distinct nonzero slots of alpha_k, increasing, and
    drop[k, j] is the row of alpha_k - e_{slots[k, j]} in degree n - 1.
    Shorter rows are padded in front with slot 0 and the row past the last
    of degree n - 1, which the caller keeps zero."""
    pos = _positions(d, n)
    slots = np.zeros((len(pos), min(n, d)), dtype=np.intp)
    drop = np.full(slots.shape, len(_positions(d, n - 1)), dtype=np.intp)
    # the last copy of each slot in a row, and its column from the right
    last = np.append(pos[:, :-1] != pos[:, 1:], np.ones((len(pos), 1), bool),
                     axis=1)
    column = min(n, d) - np.cumsum(last[:, ::-1], axis=1)[:, ::-1]
    for j in range(n):
        k = np.flatnonzero(last[:, j])
        slots[k, column[k, j]] = pos[k, j]
        drop[k, column[k, j]] = _colex_rank(np.delete(pos[k], j, axis=1))
    return _read_only((slots, drop))


def _times_linear_forms(prev, slots, drop, forms):
    """Coefficients over degree n of the products (sum_i forms[i, c] y_i) * p_c(y),
    given those of the polynomials p_c over degree n - 1 as the columns of
    prev; slots and drop are the tables of _index_tables for degree n, so
    each row sums over the nonzero slots of its index only, in min(n, d)
    passes over the rows."""
    padded = np.vstack([prev, np.zeros((1, prev.shape[1]))])
    out = forms[slots[:, 0]] * padded[drop[:, 0]]
    for j in range(1, slots.shape[1]):
        out += forms[slots[:, j]] * padded[drop[:, j]]
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
    nonzero slot of alpha: the last columns of the _index_tables of
    degree n over the columns give l and the column of alpha - e_l.
    """
    rows, cols = m.shape
    _check_block(rows, cols, max_degree)
    p = np.ones((1, 1))
    yield p
    for n in range(1, max_degree + 1):
        slots, drop = _index_tables(cols, n)
        p = _times_linear_forms(p[:, drop[:, -1]], *_index_tables(rows, n),
                                m[:, slots[:, -1]])
        yield p * (_sqrt_factorials(rows, n)[:, None]
                   / _sqrt_factorials(cols, n)[None, :])


@lru_cache(maxsize=None)
def _sqrt_factorials(d, n):
    return _read_only(np.array([math.sqrt(alpha.factorial)
                                for alpha in _indices(d, n)]))


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
        raise SizeTooLarge(f"order {alpha.order} exceeds the budget "
                           f"SIGMA_MAX_ORDER = {SIGMA_MAX_ORDER}")
    return math.factorial(alpha.order) // alpha.factorial


def hermite_phi(n, xi):
    """phi_n(xi) = He_n(xi)/n!, the normalized probabilists' Hermite polynomial."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > HERMITE_MAX_DEGREE:
        raise DegreeTooLarge(f"degree {n} exceeds the budget "
                             f"HERMITE_MAX_DEGREE = {HERMITE_MAX_DEGREE}")
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


def _basis_table(xi, top):
    """He_k(xi)/sqrt(k!) = sqrt(k!) phi_k(xi) for k = 0..top at every entry
    of xi: an array of shape (top + 1,) + xi.shape, the factors of every
    Phi_alpha the module evaluates."""
    table = _phi_table(xi.reshape(-1), top)
    table *= np.array([math.sqrt(math.factorial(k))
                       for k in range(top + 1)])[:, None]
    return table.reshape((top + 1,) + xi.shape)


def phi_alpha(gamma, alpha, x):
    """Orthonormal Hermite basis element of L^2(gamma) at x (point or batch)."""
    alpha = MultiIndex(alpha)
    if len(alpha) != gamma.dim:
        raise ValueError("multi-index length does not match the dimension")
    return _hermite_sum(gamma, [(alpha, 1.0)], x)


def _hermite_sum(gamma, terms, x):
    """Sum of c * Phi_alpha(x) over the (alpha, c) in terms; x is a point or
    a batch.

    The multi-indices form one integer table, and one table of
    :func:`_basis_table` holds He_k/sqrt(k!) at every loaded coordinate of
    every point, so c * Phi_alpha at all points and for all terms is c times a
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
        raise DegreeTooLarge(f"degree {top} exceeds the budget "
                             f"HERMITE_MAX_DEGREE = {HERMITE_MAX_DEGREE}")
    picks = alphas[:, loaded]
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    out = np.empty(len(x))
    step = max(1, BLOCK_MAX_ENTRIES // max(len(terms), 1))
    for start in range(0, len(x), step):
        xi = x[start:start + step, loaded] / gamma.scale[loaded]
        tables = _basis_table(xi, top)
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
        if len(alpha) != self.measure.dim:
            raise ValueError("multi-index length does not match the measure")
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


def project(gamma, f, max_degree, scheme=None, expect_polynomial=False):
    """Chaos coefficients c_alpha = integral of f * Phi_alpha against gamma.

    The keys are :func:`_indices` on the L supported axes, shared by every
    call.  A Gauss-Hermite grid is projected by sum factorisation
    (:func:`_sum_factorised`).  Monte Carlo draws have no tensor structure
    and are streamed in the pieces of 8 192 points that the rule hands out;
    each piece gets one :func:`_basis_table` over the supported axes, and
    each multi-index multiplies f by the table rows of its nonzero entries
    only.  That loop costs indices x samples products, so before anything is
    drawn or enumerated SizeTooLarge is raised when C(max_degree + L, L)
    indices on L supported axes times the samples exceed
    PROJECT_MAX_PRODUCTS.  With expect_polynomial=True the Parseval residual
    ||f||^2 - sum c_alpha^2 is computed on the same grid and must stay within
    the scheme tolerance (default 1e-9) of 0 on either side, times
    max(1, ||f||^2), otherwise SchemeTooCoarse is raised: a negative one
    means the coefficients carry more mass than f, which sampling error
    gives and no projection does.  Its square root, 0 for a negative one,
    is stored on the returned expansion either way.
    No standard error is formed for the coefficients, so a Monte Carlo
    scheme with a tolerance raises ValueError without expect_polynomial.
    """
    live = np.flatnonzero(gamma.support)
    if scheme is None:
        scheme = QuadScheme.default_for(len(live), max_degree)
    sampled = scheme.kind == "monte_carlo"
    if sampled and scheme.tolerance is not None and not expect_polynomial:
        raise ValueError("a Monte Carlo tolerance bounds only the residual "
                         "of expect_polynomial=True; the coefficients have "
                         "no standard error to hold to it")
    if sampled:
        products = math.comb(max_degree + len(live), max_degree) * scheme.samples
        if products > PROJECT_MAX_PRODUCTS:
            raise SizeTooLarge(
                f"Monte Carlo projection of {products} index x sample products "
                f"exceeds the budget PROJECT_MAX_PRODUCTS = {PROJECT_MAX_PRODUCTS:.0e}")
    # the first piece is drawn before indices are enumerated, so an
    # oversized grid is refused at once
    batches = _rule_batches(scheme, gamma.sqrt_cols())
    first = next(batches)
    alphas = [a for n in range(max_degree + 1)
              for a in _indices(gamma.dim, n, tuple(live.tolist()))]
    if sampled:
        # (exponent, position in live) of each index's nonzero entries
        factors = [[(a[j], i) for i, j in enumerate(live) if a[j]]
                   for a in alphas]
    sums = np.zeros(len(alphas))
    sq_mass = 0.0
    for x, w in itertools.chain([first], batches):
        fv = eval_batch(f, x)
        sq_mass += float(np.dot(w, fv * fv))
        if sampled:
            # laid out (k, axis, point), so each factor is one contiguous row
            table = _basis_table(x[:, live].T / gamma.scale[live, None],
                                 max_degree)
            for i, pairs in enumerate(factors):
                v = fv
                for e, j in pairs:
                    v = v * table[e, j]
                sums[i] += np.dot(w, v)
        else:
            # the grid has scheme.nodes points on each supported axis, and
            # both lists of indices run in graded colex order
            sums = _sum_factorised(fv, (scheme.nodes,) * len(live), max_degree)
    coeffs = dict(zip(alphas, sums.tolist()))
    residual_sq = sq_mass - sum(c * c for c in coeffs.values())
    residual = math.sqrt(max(residual_sq, 0.0))
    if expect_polynomial:
        # tolerance applies to the Parseval mass mismatch; the norm itself is
        # a square root of a float cancellation and cannot do better
        tol = scheme.tolerance if scheme.tolerance is not None else 1e-9
        budget = tol * max(1.0, sq_mass)
        if residual_sq > budget:
            raise SchemeTooCoarse(
                f"polynomial reconstruction residual {residual:.3e} above budget")
        if residual_sq < -budget:
            raise SchemeTooCoarse(
                f"Parseval residual ||f||^2 - sum c^2 = {residual_sq:.3e} "
                f"below -{budget:.3e}: the coefficients carry more mass than f")
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
    return _read_only(_basis_table(x, max_degree) * w[None, :])


def exp_functional_coeffs(gamma, z, max_degree):
    """Chaos coefficients of the exponential functional E_z:
    c_alpha = prod_j z_j^{alpha_j} / sqrt(alpha!), over the support of gamma.
    Only indices on the supported axes where z_j != 0 are nonzero, so the
    keys are :func:`_indices` on those axes; z has gamma.dim entries."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if len(z) != gamma.dim:
        raise ValueError(f"z of length {len(z)} on a measure of dimension "
                         f"{gamma.dim}")
    live = np.flatnonzero(gamma.support & (z != 0.0)).tolist()
    coeffs = {}
    for n in range(max_degree + 1):
        for alpha, root in zip(_indices(gamma.dim, n, tuple(live)),
                               _sqrt_factorials(len(live), n)):
            c = 1.0
            for j in live:
                c *= z[j] ** alpha[j]
            coeffs[alpha] = c / root
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
        raise SizeTooLarge(f"product of {n} factors exceeds the budget "
                           f"MONOMIAL_MAX_FACTORS = {MONOMIAL_MAX_FACTORS}")
    d = gamma.dim
    poly = np.ones((1, 1))
    for k, h in enumerate(hs, start=1):
        live = np.where(gamma.support, h, 0.0)
        poly = _times_linear_forms(poly, *_index_tables(d, k), live[:, None])
    values = poly[:, 0] * _sqrt_factorials(d, n)
    return ChaosExpansion(gamma, n, dict(zip(_indices(d, n), values.tolist())))
