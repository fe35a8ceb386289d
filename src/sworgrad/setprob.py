"""Probabilities of unordered samples without replacement, and leave-one-out ratios.

For a categorical p over domain D, the probability of drawing the set S of k
distinct elements (sampling one by one without replacement, order discarded)
admits three interchangeable kernels:

* ``naive``    -- sum over all k! orderings of the chain-rule product
                  (factorial cost).  It is the permutation-sum reference
                  that the tests and the benchmark's policy-gradient gate
                  read for small k.  ``oracle`` does not read it: it keeps
                  its own chain-rule sum.
* ``exact``    -- signed inclusion-exclusion over subsets c of S,
                  sum_c (-1)^{|c|} m0 / (m0 + mass(c)) with m0 = 1 - mass(S)
                  (2^k cost); sums that cancel below ``CANCELLATION_FLOOR``
                  are answered by ``integral`` instead.
* ``integral`` -- trapezoid quadrature of the smooth transformed integrand
                  alpha * v^(alpha-1) * prod_i (1 - v^beta_i) on (0, 1), with
                  alpha = exp(a) * m0 and beta_i = exp(a) * p(i).  The shift
                  a is the constant ``SHIFT`` = 5, the paper's value; it makes
                  the integrand vanish to high order at both endpoints.

Each kernel computes the restricted form p^{D \\ C}(S \\ C) for C inside S
(the complement of the sampled set is D \\ S either way, so only the product
terms change) for several exclusions at once: a query is a tuple of positions
into the free elements S \\ C that it excludes as well.  ``_restricted_logs``
is the one dispatch over the kernels.

``loo_ratios`` assembles, for each s in S, the leave-one-out ratio
R(S, s) = p^{D \\ {s}}(S \\ {s}) / p(S), with the denominator reconstructed
from the numerators via  p(S) = sum_s p(s) * p^{D \\ {s}}(S \\ {s}),
which guarantees sum_s p(s) R(S, s) = 1 up to rounding.  ``order=2``
additionally fills the matrix of second-order ratios
R^{D \\ {s}}(S, s') = p^{D \\ {s, s'}}(S \\ {s, s'}) / p^{D \\ {s}}(S \\ {s}).
``auto`` uses inclusion-exclusion (one fsum per query) up to
``_AUTO_EXACT_MAX_K`` free elements and quadrature beyond; queries whose
alternating sum cancels share one quadrature grid.

The kernels take a batch: B sets of one size, one per row of a (B, k)
index array, with one exclusion per row.  A call whose every query excludes
every free element reaches no kernel: each answer is log 1 = 0.  ``exact``
builds one (B, 2^m) subset table for them all, gathers the terms each query
keeps (``_query_positions``) once per query, keeps one ``math.fsum`` per
query and row, and sends only the rows that cancel to quadrature, one row at
a time; ``naive`` and ``integral`` run row by row.  A table of at most
``_ROW_TABLE_MAX`` entries is built on Python floats instead, row by row,
with the same float operations in the same order, so it has the same bytes
without paying numpy's per-call cost on a few entries.
``loo_ratios`` of one set is the B = 1 row of the same computation.

Indices are checked once, at the public boundary: ``loo_ratios`` and the
``p_set_*`` functions check theirs with ``_split_sets``, and ``_loo_ratios``
is the core that takes rows already checked, as the estimators' coefs
functions hold them.

``p_set_naive``, ``p_set_exact`` and ``p_set_integral`` are the one-query
forms of the same kernels: each asks for the single query that excludes
nothing more, log p^{D \\ C}(S \\ C).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import CategoricalDist, _index_row, _index_rows, log_sum_exp
from .errors import InvalidIndices, TooManyPermutations, TooManySubsets

NAIVE_MAX_K = 8
EXACT_MAX_K = 20
DEFAULT_NODES = 1000

# The quadrature shift a of the transformed integrand, fixed at the paper's
# value: DEFAULT_NODES is accurate for it, while other shifts can squeeze the
# integrand's mass into one grid interval (a = -50 gives log p(S) ~ 0 for any S).
SHIFT = 5.0

# Inclusion-exclusion terms are bounded by 1; totals below this are treated
# as catastrophic cancellation and recomputed with the integral backend.
CANCELLATION_FLOOR = 1e-13

# ``loo_ratios(backend="auto")`` uses inclusion-exclusion up to this many free
# elements and quadrature beyond, where the 2^m table costs more than the grid
# (timed at n = 64 and n = 1000, orders 1 and 2).
_AUTO_EXACT_MAX_K = 10

# Term tables of at most this many entries (rows x 2^m) are built on Python
# floats (``_row_terms``), larger ones with numpy.  A numpy table pays about
# 30 calls whatever its size; the Python one pays per entry.  Timed per
# table on a loaded 2-core host, Python floats against numpy: one row at
# m = 4 took 34 us against 89 us, at m = 6 79 against 110 and at m = 7 124
# against 125; six rows at m = 2 59 against 67, four rows at m = 4 103
# against 94.
_ROW_TABLE_MAX = 64


@dataclass(frozen=True)
class LooRatios:
    """Leave-one-out ratios for a sampled set.

    ``elements`` are the set elements in increasing order, ``ratios[i]`` is
    R(S, elements[i]), ``log_p_set`` is log p(S), and ``second_order`` (when
    requested) is the matrix R^{D \\ {elements[i]}}(S, elements[j]) with unit
    diagonal.  For a batch of B sets every field gains a leading axis of
    length B, and ``log_p_set`` is an array.
    """

    elements: np.ndarray
    ratios: np.ndarray
    log_p_set: float
    second_order: np.ndarray | None = None


def _math_exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every entry: libm's exp, which the scalar kernels always
    used.  numpy's vectorised exp differs from it in the last bit on some
    inputs, and fixed-seed outputs would move."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _log_sum_exp_rows(values: np.ndarray) -> np.ndarray:
    """``log_sum_exp`` of each row of a 2-D array whose rows each hold a
    finite value, with the same float arithmetic."""
    hi = values.max(axis=1)
    sums = np.exp(values - hi[:, None]).sum(axis=1)
    return np.array([h + math.log(s) for h, s in zip(hi.tolist(), sums.tolist())])


def _complement_log_masses(dist: CategoricalDist, C: np.ndarray) -> np.ndarray:
    """``dist.complement_log_mass`` of each row of C (distinct indices per
    row), with the same float arithmetic.  One row calls that method: it
    takes fewer numpy calls than the row-wise form, and a one-set
    ``loo_ratios`` makes up to three of these calls."""
    B, c = C.shape
    if B == 1:
        return np.array([dist.complement_log_mass(C[0])])
    if c == dist.n:
        return np.full(B, -math.inf)
    keep = np.ones((B, dist.n), dtype=bool)
    keep[np.arange(B)[:, None], C] = False
    return _log_sum_exp_rows(np.broadcast_to(dist.log_probs, keep.shape)[keep].reshape(B, -1))


def _complement_masses(dist: CategoricalDist, C: np.ndarray) -> np.ndarray:
    """The probability mass outside each row of C, as libm's exp of
    ``_complement_log_masses``."""
    return _math_exp(_complement_log_masses(dist, C))


_BACKENDS = ("auto", "naive", "exact", "integral")

# The parsed form of the default empty ``exclude``: one row of no indices.
_NO_EXCLUDE = np.empty((1, 0), dtype=int)
_NO_EXCLUDE.setflags(write=False)


def _split_sets(dist: CategoricalDist, S, C, backend: str, nodes: int):
    """The argument checks every entry point shares.  S is one set or a
    (B, k) array of sets, and C is empty, one set excluded from every row,
    or a (B, c) array.  Returns S and C as sorted rows (C keeps one row when
    it was one set, and broadcasts), the free elements S \\ C of each row,
    and whether S was one set."""
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    S, single = _index_rows(S, dist.n)
    C = _NO_EXCLUDE if isinstance(C, tuple) and not C else _index_rows(C, dist.n)[0]
    B = len(S)
    if len(C) not in (1, B):
        raise InvalidIndices(f"exclude has {len(C)} rows for {B} sets")
    rest = S
    if C.size:
        hits = S[:, :, None] == C[:, None, :]
        if not hits.any(axis=1).all():
            raise InvalidIndices("excluded set C must be contained in S")
        rest = S[~hits.any(axis=2)].reshape(B, -1)
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    return S, C, rest, single


def _naive_restricted_logs(dist, S, rest, rel_excludes):
    """Chain-rule sums over the orderings of the elements each query keeps.
    Each denominator is m0 plus the fsum of the kept probabilities not yet
    drawn: 1 minus a running sum cancels once a drawn element holds almost
    all the mass."""
    free = len(rest) - min(len(rel) for rel in rel_excludes)
    if free > NAIVE_MAX_K:
        raise TooManyPermutations(f"|S \\ C| = {free} exceeds {NAIVE_MAX_K}")
    lp = dist.log_probs
    m0 = math.exp(dist.complement_log_mass(S))
    results = []
    for rel in rel_excludes:
        kept = [s for pos, s in enumerate(rest) if pos not in rel]
        if not kept:
            results.append(0.0)
            continue
        p_kept = {s: math.exp(lp[s]) for s in kept}
        ordering_logs = []
        for perm in itertools.permutations(kept):
            p_perm = [p_kept[b] for b in perm]
            acc = 0.0
            for t, b in enumerate(perm):
                acc += float(lp[b]) - math.log(m0 + math.fsum(p_perm[t:]))
            ordering_logs.append(acc)
        results.append(min(log_sum_exp(np.array(ordering_logs)), 0.0))
    return results


def _two_sum(a, b, out=None):
    """Error-free float addition: a + b = s + err exactly; s is written to
    ``out`` when given."""
    s = np.add(a, b, out=out)
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(x, y):
    """Error-free float product via Veltkamp splitting: x*y = p + err exactly."""
    p = x * y
    c = 134217729.0 * x  # 2^27 + 1
    xh = c - (c - x)
    xl = x - xh
    c = 134217729.0 * y
    yh = c - (c - y)
    yl = y - yh
    err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, err


@functools.lru_cache(maxsize=EXACT_MAX_K + 1)
def _subset_signs(m: int) -> np.ndarray:
    """(-1)^|c| for every bitmask c over m elements, read-only."""
    signs = np.ones(1 << m)
    for j in range(m):
        size = 1 << j
        signs[size : 2 * size] = -signs[:size]
    signs.setflags(write=False)
    return signs


def _subset_masses(p_elems):
    """Subset-sum tables over bitmasks, one row per set, kept as compensated
    (hi, lo) pairs.

    hi[b, c] + lo[b, c] = sum of p_elems[b] over the bits set in mask c,
    for m >= 1 elements.  The table doubles once per element: the masks
    holding bit j are those below 2^j plus element j, added with
    ``_two_sum``'s error-free arithmetic, written in place.  The alternating
    inclusion-exclusion sum can cancel down to ~2^k epsilon times the
    largest term, so the masses (and later the quotients) carry their
    rounding residuals explicitly.
    """
    B, m = p_elems.shape
    hi, lo = np.zeros((2, B, 1 << m))
    hi[:, 1] = p_elems[:, 0]  # 0 + p: exact, with a zero residual
    for j in range(1, m):
        size = 1 << j
        _, err = _two_sum(hi[:, :size], p_elems[:, j : j + 1], out=hi[:, size : 2 * size])
        np.add(lo[:, :size], err, out=lo[:, size : 2 * size])
    return hi, lo


def _signed_quotients(m0, mass_hi, mass_lo, signs):
    """The inclusion-exclusion terms signs[c] m0 / (m0 + mass(c)) as
    compensated pairs accurate to ~eps^2, in one (B, 2, 2^m) array: [:, 0]
    holds the high parts, [:, 1] the low parts."""
    B, size = mass_hi.shape
    terms = np.empty((B, 2, size))
    q, q_lo = terms[:, 0], terms[:, 1]
    d, d_lo = _two_sum(m0, mass_hi)
    d_lo += mass_lo
    np.divide(m0, d, out=q)
    prod, prod_err = _two_prod(q, d)
    residual = np.subtract(m0, prod, out=prod)
    residual -= prod_err
    residual -= np.multiply(q, d_lo, out=d_lo)
    np.divide(residual, d, out=q_lo)
    terms *= signs
    return terms


@functools.lru_cache(maxsize=EXACT_MAX_K + 1)
def _subset_sign_list(m: int) -> tuple:
    """``_subset_signs(m)`` as a tuple of Python floats."""
    return tuple(_subset_signs(m).tolist())


def _row_terms(m0: float, p: list) -> list:
    """One row of ``_signed_quotients(m0, *_subset_masses(p), signs)`` on
    Python floats: the high parts of the 2^m terms, then the low parts.
    It runs the same IEEE operations in the same order (the doubling loop
    with TwoSum, then d = m0 + mass, q = m0 / d, the Veltkamp product, the
    residual and the sign), so every term has the same bytes.  m0 >=
    PROB_FLOOR keeps every division away from zero."""
    hi, lo = [0.0, p[0]], [0.0, 0.0]
    for b in p[1:]:
        for a, a_lo in zip(hi[:], lo[:]):
            s = a + b
            bb = s - a
            hi.append(s)
            lo.append(a_lo + ((a - (s - bb)) + (b - bb)))
    q_hi, q_lo = [], []
    for mass, mass_lo, sign in zip(hi, lo, _subset_sign_list(len(p))):
        d = m0 + mass
        bb = d - m0
        d_lo = ((m0 - (d - bb)) + (mass - bb)) + mass_lo
        q = m0 / d
        prod = q * d
        c = 134217729.0 * q
        qh = c - (c - q)
        ql = q - qh
        c = 134217729.0 * d
        dh = c - (c - d)
        dl = d - dh
        prod_err = ((qh * dh - prod) + qh * dl + ql * dh) + ql * dl
        q_hi.append(q * sign)
        q_lo.append((((m0 - prod) - prod_err) - q * d_lo) / d * sign)
    return q_hi + q_lo


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(x)) for x <= 0, stable across the whole range."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x > -math.log(2.0)
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(x[small]))
        out[~small] = np.log1p(-np.exp(x[~small]))
    return out


def _integral_grid(nodes: int):
    """Quadrature grid; the interval count is rounded up to a multiple of 8 so
    nested half-, quarter- and eighth-grids reuse the same evaluations."""
    intervals = max(nodes - 1, 8)
    intervals += (-intervals) % 8
    v = np.linspace(0.0, 1.0, intervals + 1)
    with np.errstate(divide="ignore"):
        logv = np.log(v)
    return logv


def _log_trapezoid(log_vals: np.ndarray, h: float) -> float:
    log_w = np.full(len(log_vals), math.log(h))
    log_w[0] += math.log(0.5)
    log_w[-1] += math.log(0.5)
    return log_sum_exp(log_vals + log_w)


def _log_romberg(log_vals: np.ndarray) -> float:
    """log of the integral from log-integrand values on a uniform grid.

    Richardson extrapolation over the nested trapezoid sums cancels the h^2,
    h^4 and h^6 error terms (the prescribed node count alone leaves ~1e-7
    error where the integrand peaks sharply).  The ratios are extrapolated in
    linear space relative to the finest sum, so the log-domain scale never
    leaves the exponent.
    """
    n = len(log_vals)
    h = 1.0 / (n - 1)
    log_t0 = _log_trapezoid(log_vals, h)
    if log_t0 == -math.inf or (n - 1) % 8 or n < 17:
        return log_t0
    row = [
        1.0,
        math.exp(_log_trapezoid(log_vals[::2], 2 * h) - log_t0),
        math.exp(_log_trapezoid(log_vals[::4], 4 * h) - log_t0),
        math.exp(_log_trapezoid(log_vals[::8], 8 * h) - log_t0),
    ]
    best = row[0]
    for level in range(1, 4):
        factor = 4.0**level
        row = [(factor * fine - coarse) / (factor - 1.0) for fine, coarse in zip(row, row[1:])]
        if row[0] > 0.0 and math.isfinite(row[0]):
            best = row[0]
    return log_t0 + math.log(best)


def _integral_restricted_logs(dist, S, rest, rel_excludes, nodes):
    """Shared-grid quadrature of every query.

    The full product over ``rest`` is computed once per node; each query
    divides out its excluded factors.
    """
    lp = dist.log_probs
    log_m0 = dist.complement_log_mass(S)
    log_alpha = SHIFT + log_m0
    alpha = math.exp(log_alpha)
    beta = np.exp(np.asarray([lp[s] for s in rest]) + SHIFT)

    logv = _integral_grid(nodes)
    # factor_logs[j, i] = log(1 - v_j^beta_i); -inf at v=1, 0 at v=0.
    factor_logs = _log1mexp(np.multiply.outer(logv, beta))
    with np.errstate(invalid="ignore"):
        log_pow = (alpha - 1.0) * logv
    log_pow[0] = -math.inf if alpha != 1.0 else 0.0
    total_factor = np.sum(factor_logs, axis=1)

    results = []
    for rel in rel_excludes:
        if len(rel) == len(rest):
            results.append(0.0)
            continue
        if rel:
            with np.errstate(invalid="ignore"):
                left = total_factor - factor_logs[:, list(rel)].sum(axis=1)
            left[-1] = -math.inf  # every kept factor vanishes at v=1
        else:
            left = total_factor
        if alpha >= 2.0:
            log_integral = _log_romberg(log_pow + left)
            results.append(min(log_alpha + log_integral, 0.0))
        else:
            # v^(alpha-1) is singular (alpha < 1) or too steep for the node
            # budget (alpha < 2) at v=0, and that corner carries most of the
            # mass, so integrate the complement instead:
            # p = 1 - alpha * int v^(alpha-1) (1 - prod_i (1 - v^beta_i)) dv,
            # whose integrand vanishes at v=0 and is bounded at v=1.
            with np.errstate(invalid="ignore"):
                log_g = log_pow + _log1mexp(left)
            log_g[0] = -math.inf
            x = math.exp(log_alpha + _log_romberg(log_g))
            results.append(math.log1p(-min(x, 1.0 - 1e-16)))
    return results


@functools.lru_cache(maxsize=64)
def _query_positions(m: int, rel_excludes: tuple) -> tuple:
    """(query index, positions) for each query that keeps a free element:
    where its terms sit in one row of the flattened (2, 2^m) term table,
    high parts first, then low parts.  The positions are a read-only view of
    that table's flat indices with the axis of each excluded position (axis
    m - pos) taken at 0; the views share the one index table, so at m = 20
    all queries together cost no more memory than it.  Cached for the
    tables ``auto`` builds (m <= _AUTO_EXACT_MAX_K); larger tables call
    ``__wrapped__`` and build theirs per call."""
    table = np.arange(2 << m).reshape((2,) + (2,) * m)
    table.setflags(write=False)
    positions = []
    for i, rel in enumerate(rel_excludes):
        if len(rel) < m:
            index = [slice(None)] * (m + 1)
            for pos in rel:
                index[m - pos] = 0
            positions.append((i, table[tuple(index)]))
    return tuple(positions)


@functools.lru_cache(maxsize=64)
def _row_getters(m: int, rel_excludes: tuple) -> tuple:
    """(query index, getter) for each query that keeps a free element: the
    getter takes the query's terms from a ``_row_terms`` list, at its
    ``_query_positions``."""
    return tuple(
        (i, operator.itemgetter(*where.ravel().tolist())) for i, where in _query_positions(m, rel_excludes)
    )


def _row_logs(dist, S, rest, rel_excludes, nodes):
    """``_exact_restricted_logs`` of a small table, built row by row on
    Python floats with ``_row_terms``: one math.fsum and one math.log per
    query and row, and one quadrature of each row's cancelled queries.
    Every exp is libm's, as ``_complement_masses`` and ``_math_exp`` take
    it for the numpy table."""
    getters = _row_getters(rest.shape[1], tuple(rel_excludes))
    log_m0 = _complement_log_masses(dist, S).tolist()
    logs = []
    for b, (row_log_m0, lp) in enumerate(zip(log_m0, dist.log_probs[rest].tolist())):
        terms = _row_terms(math.exp(row_log_m0), list(map(math.exp, lp)))
        row = [0.0] * len(rel_excludes)
        cancelled = []
        for i, getter in getters:
            total = math.fsum(getter(terms))
            if total < CANCELLATION_FLOOR:
                cancelled.append(i)
            else:
                row[i] = min(math.log(total), 0.0)
        if cancelled:
            requery = [rel_excludes[i] for i in cancelled]
            for i, value in zip(cancelled, _integral_restricted_logs(dist, S[b], rest[b], requery, nodes)):
                row[i] = value
        logs.append(row)
    return np.array(logs)


def _exact_restricted_logs(dist, S, rest, rel_excludes, nodes):
    """Shared-table inclusion-exclusion for every query of every row.

    Builds one signed term table over the subsets of each row of ``rest``.
    A query keeps the terms whose subset avoids its excluded positions, at
    its ``_query_positions``.  A table of at most ``_ROW_TABLE_MAX`` entries
    is built row by row on Python floats, with the same operations as the
    numpy one, and each query takes its terms with a getter (``_row_logs``).
    Otherwise each query takes its terms of every row with one gather.
    Either way each query and row keeps one math.fsum; fsum is correctly
    rounded, so the order of the terms does not matter.  A row's queries
    that cancel below the floor are answered together by one shared-grid
    quadrature of that row.
    """
    B, m = rest.shape
    if m > EXACT_MAX_K:
        raise TooManySubsets(f"|S \\ C| = {m} exceeds {EXACT_MAX_K}")
    if B << m <= _ROW_TABLE_MAX:
        return _row_logs(dist, S, rest, rel_excludes, nodes)
    m0 = _complement_masses(dist, S)
    mass_hi, mass_lo = _subset_masses(_math_exp(dist.log_probs[rest]))
    terms = _signed_quotients(m0[:, None], mass_hi, mass_lo, _subset_signs(m)).reshape(B, -1)
    positions = _query_positions if m <= _AUTO_EXACT_MAX_K else _query_positions.__wrapped__
    columns = [[0.0] * B] * len(rel_excludes)
    cancelled: dict = {}
    for i, where in positions(m, tuple(rel_excludes)):
        totals = list(map(math.fsum, terms.take(where, axis=1).reshape(B, -1).tolist()))
        if min(totals) < CANCELLATION_FLOOR:
            for b, total in enumerate(totals):
                if total < CANCELLATION_FLOOR:
                    cancelled.setdefault(b, []).append(i)
                    totals[b] = 1.0  # log 1 = 0 holds its place until quadrature
        columns[i] = list(map(math.log, totals))
    logs = np.minimum(np.array(columns).T, 0.0, order="C")
    for b, queries in cancelled.items():
        requery = [rel_excludes[i] for i in queries]
        logs[b, queries] = _integral_restricted_logs(dist, S[b], rest[b], requery, nodes)
    return logs


def _restricted_logs(dist, S, rest, rel_excludes, backend, nodes):
    """log p^{D \\ (C u rel)}(rest \\ rel) for each row and each query ``rel``
    (a tuple of positions into the row of ``rest`` = S \\ C), as a
    (rows, queries) array from one backend's kernel.  When every query
    excludes every free element, each answer is log 1 and no kernel runs.
    ``auto`` is ``exact`` for up to _AUTO_EXACT_MAX_K free elements and
    ``integral`` beyond; ``_split_sets`` has checked the name.  The exact
    kernel takes every row at once; the others run row by row."""
    if all(len(rel) == rest.shape[1] for rel in rel_excludes):
        return np.zeros((len(rest), len(rel_excludes)))
    if backend == "auto":
        backend = "exact" if rest.shape[1] <= _AUTO_EXACT_MAX_K else "integral"
    if backend == "exact":
        return _exact_restricted_logs(dist, S, rest, rel_excludes, nodes)
    if backend == "naive":
        return np.array([_naive_restricted_logs(dist, s, r, rel_excludes) for s, r in zip(S, rest)])
    return np.array(
        [_integral_restricted_logs(dist, s, r, rel_excludes, nodes) for s, r in zip(S, rest)]
    )


def _p_set(dist: CategoricalDist, S, C, backend: str, nodes: int = DEFAULT_NODES) -> float:
    """log p^{D \\ C}(S \\ C): the one query of ``backend`` that excludes
    nothing more.  An empty S \\ C or a whole-domain S has probability 1."""
    S, C, rest, _ = _split_sets(dist, _index_row(S, dist.n), C, backend, nodes)
    if not rest.shape[1] or S.shape[1] == dist.n:
        return 0.0
    return float(_restricted_logs(dist, S, rest, ((),), backend, nodes)[0, 0])


def p_set_naive(dist: CategoricalDist, S, C=()) -> float:
    """log p^{D \\ C}(S \\ C) by explicit summation over all orderings;
    raises TooManyPermutations above NAIVE_MAX_K free elements."""
    return _p_set(dist, S, C, "naive")


def p_set_exact(dist: CategoricalDist, S, C=()) -> float:
    """log p^{D \\ C}(S \\ C) by signed inclusion-exclusion over subsets.

    Terms are accumulated with exact compensated summation (math.fsum).  When
    the alternating series cancels below ``CANCELLATION_FLOOR``, the value is
    ``p_set_integral``'s.  Raises TooManySubsets above EXACT_MAX_K free
    elements.
    """
    return _p_set(dist, S, C, "exact")


def p_set_integral(dist: CategoricalDist, S, C=(), nodes: int = DEFAULT_NODES) -> float:
    """log p^{D \\ C}(S \\ C) by trapezoid quadrature of the transformed integrand."""
    return _p_set(dist, S, C, "integral", nodes)


@functools.lru_cache(maxsize=32)
def _loo_queries(m: int, order: int):
    """The exclusion queries of ``loo_ratios`` over m free elements: each
    position alone, then (order 2) each pair i < j, with the pairs' i and j
    as two read-only index arrays."""
    pairs = list(itertools.combinations(range(m), 2)) if order == 2 else []
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    i.setflags(write=False)
    j.setflags(write=False)
    return tuple((pos,) for pos in range(m)) + tuple(pairs), i, j


def loo_ratios(
    dist: CategoricalDist,
    S,
    order: int = 1,
    *,
    backend: str = "auto",
    exclude=(),
    nodes: int = DEFAULT_NODES,
) -> LooRatios:
    """Leave-one-out ratios of the elements of S, sharing one denominator.

    With ``exclude`` = C, everything is computed on the restricted domain
    D \\ C: ratios are R^{D \\ C}(S, s) for s in S \\ C and ``log_p_set`` is
    log p^{D \\ C}(S \\ C).  Backends: ``naive`` (reference, tiny sets only),
    ``exact`` (2^m inclusion-exclusion over the m free elements; raises
    TooManySubsets above m = EXACT_MAX_K), ``integral`` (quadrature on
    ``nodes`` nodes, at least 2) or ``auto``, which is ``exact`` for
    m <= _AUTO_EXACT_MAX_K and ``integral`` beyond.  Under ``exact`` the
    queries whose alternating sum cancels below CANCELLATION_FLOOR share one
    quadrature grid.

    S may also be a (B, k) array of B sets of one size, one per row; then
    ``exclude`` is empty, one set excluded from every row, or a (B, c) array,
    and every field of the result gains a leading axis of length B.  One set
    is the B = 1 row of that computation.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    S, exclude, rest, single = _split_sets(dist, S, exclude, backend, nodes)
    lr = _loo_ratios(dist, S, rest, order, exclude, backend, nodes)
    if single:
        return LooRatios(
            elements=lr.elements[0],
            ratios=lr.ratios[0],
            log_p_set=float(lr.log_p_set[0]),
            second_order=None if lr.second_order is None else lr.second_order[0],
        )
    return lr


def _loo_ratios(
    dist: CategoricalDist,
    S: np.ndarray,
    rest: np.ndarray,
    order: int,
    exclude: np.ndarray = _NO_EXCLUDE,
    backend: str = "auto",
    nodes: int = DEFAULT_NODES,
) -> LooRatios:
    """``loo_ratios`` of checked rows, as a batch: S is a (B, k) array of
    sorted sets, ``exclude`` is empty or (1 or B rows of) a set inside each,
    and ``rest`` holds, sorted, the elements of each row of S outside it.
    Nothing here checks an index, an order or a backend name."""
    B, m = rest.shape
    if m < 1:
        raise ValueError("need at least one element outside the excluded set")

    if S.shape[1] == dist.n:
        # Whole domain: every restricted set probability is exactly 1.
        log_p = np.zeros(B)
        ratios = np.ones((B, m))
        second = np.ones((B, m, m)) if order == 2 else None
    else:
        queries, i, j = _loo_queries(m, order)
        logs = _restricted_logs(dist, S, rest, queries, backend, nodes)

        log_num = logs[:, :m]
        # p^{D\C}(S\C) = sum_s p^{D\C}(s) p^{D\(C u {s})}(S \ C \ {s})
        lp_rest = dist.log_probs[rest]
        if exclude.size:
            lp_rest = lp_rest - _complement_log_masses(dist, exclude)[:, None]
        terms = lp_rest + log_num
        log_p = np.minimum(_log_sum_exp_rows(terms), 0.0)
        ratios = np.exp(log_num - log_p[:, None])

        second = None
        if order == 2:
            second = np.ones((B, m, m))
            second[:, i, j] = _math_exp(logs[:, m:] - log_num[:, i])
            second[:, j, i] = _math_exp(logs[:, m:] - log_num[:, j])
    return LooRatios(elements=rest, ratios=ratios, log_p_set=log_p, second_order=second)
