"""Probabilities of unordered samples without replacement, and leave-one-out ratios.

For a categorical p over domain D, the probability of drawing the set S of k
distinct elements (sampling one by one without replacement, order discarded)
admits three interchangeable kernels:

* ``naive``    -- sum over all k! orderings of the chain-rule product
                  (factorial cost; reference oracle for small k).
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
index array, with one exclusion per row.  ``exact`` builds one (B, 2^m)
subset table for them all, keeps one ``math.fsum`` per query and row, and
sends only the rows that cancel to quadrature, one row at a time; ``naive``
and ``integral`` run row by row.
``loo_ratios`` of one set is the B = 1 row of the same computation.

``p_set_naive``, ``p_set_exact`` and ``p_set_integral`` are the one-query
forms of the same kernels: each asks for the single query that excludes
nothing more, log p^{D \\ C}(S \\ C).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import CategoricalDist, log_sum_exp
from .errors import TooManyPermutations, TooManySubsets

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


def _sample_indices(sample) -> np.ndarray:
    """The indices of a sample object (anything with ``.indices``) or of an
    array-like, in their given order."""
    return np.asarray(getattr(sample, "indices", sample), dtype=int).ravel()


def _as_rows(sample):
    """The indices of one sample as a 1 x k array, or of a batch of samples
    (a 2-D array, one per row) as they are; and whether it was one sample."""
    idx = np.asarray(getattr(sample, "indices", sample), dtype=int)
    if idx.ndim == 2:
        return idx, False
    return idx.reshape(1, -1), True


def _out_of_range(n: int) -> ValueError:
    return ValueError(f"set elements out of range for domain of size {n}")


def _not_contained() -> ValueError:
    return ValueError("excluded set C must be contained in S")


def _index_set(S, n: int) -> np.ndarray:
    """The indices of S in increasing order; ValueError unless they are
    distinct and inside range(n).  The check of one sampled set."""
    return _index_rows(_sample_indices(S)[None], n)[0]


def _index_rows(S: np.ndarray, n: int) -> np.ndarray:
    """The rows of the 2-D array S each in increasing order, as one array;
    ValueError unless every row is distinct and inside range(n).  The rows
    are checked on Python ints: numpy's per-call cost dominates for a few
    elements."""
    rows = [sorted(row) for row in S.tolist()]
    for idx in rows:
        if len(set(idx)) != len(idx):
            raise ValueError(f"set elements must be distinct, got {idx}")
        if idx and (idx[0] < 0 or idx[-1] >= n):
            raise _out_of_range(n)
    return np.array(rows, dtype=int).reshape(S.shape)


def _draw_indices(X, n: int) -> np.ndarray:
    """The indices of draws with replacement, in their given order;
    ValueError unless each is inside range(n).  Repeats are allowed."""
    idx = _sample_indices(X)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise _out_of_range(n)
    return idx


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


def _exclusion_rows(C, B: int) -> np.ndarray:
    """An exclusion as a (B, c) array: C is empty, one set excluded from
    every row, or already one set per row."""
    C = np.asarray(getattr(C, "indices", C), dtype=int)
    if C.ndim < 2:
        C = C.reshape(1, -1)
    if len(C) not in (1, B):
        raise ValueError(f"exclude has {len(C)} rows for {B} sets")
    return C if len(C) == B else C.repeat(B, axis=0)


_BACKENDS = ("auto", "naive", "exact", "integral")


def _split_sets(dist: CategoricalDist, S, C, backend: str, nodes: int):
    """The argument checks every entry point shares.  S is a 2-D array of
    sets, one per row, and C an exclusion as ``_exclusion_rows`` takes it.
    Returns S and C as sorted rows and the free elements S \\ C of each row."""
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    S = _index_rows(S, dist.n)
    C = _exclusion_rows(C, len(S))
    rest = S
    if C.size:
        C = _index_rows(C, dist.n)
        rest = []
        for row, excluded in zip(S.tolist(), map(set, C.tolist())):
            if not excluded <= set(row):
                raise _not_contained()
            rest.append([s for s in row if s not in excluded])
        rest = np.array(rest, dtype=int).reshape(len(S), -1)
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    return S, C, rest


def _naive_restricted_logs(dist, S, rest, rel_excludes):
    """Chain-rule sums over the orderings of the elements each query keeps."""
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
        mass_kept = math.fsum(p_kept.values())
        ordering_logs = []
        for perm in itertools.permutations(kept):
            acc = 0.0
            remaining = mass_kept
            for b in perm:
                acc += float(lp[b]) - math.log(m0 + remaining)
                remaining -= p_kept[b]
            ordering_logs.append(acc)
        results.append(min(log_sum_exp(np.array(ordering_logs)), 0.0))
    return results


def _two_sum(a, b):
    """Error-free float addition: a + b = s + err exactly."""
    s = a + b
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


def _subset_masses_and_signs(p_elems):
    """Subset-sum tables over bitmasks, one row per set, kept as compensated
    (hi, lo) pairs.

    masses[b, m] = sum of p_elems[b] over the bits set in mask m.  The
    alternating inclusion-exclusion sum can cancel down to ~2^k epsilon times
    the largest term, so the masses (and later the quotients) carry their
    rounding residuals explicitly.
    """
    B, m = p_elems.shape
    hi = np.zeros((B, 1 << m))
    lo = np.zeros((B, 1 << m))
    signs = np.ones(1 << m)
    for j in range(m):
        size = 1 << j
        s, err = _two_sum(hi[:, :size], p_elems[:, j : j + 1])
        hi[:, size : 2 * size] = s
        lo[:, size : 2 * size] = lo[:, :size] + err
        signs[size : 2 * size] = -signs[:size]
    return hi, lo, signs


def _quotient_terms(m0, mass_hi, mass_lo):
    """m0 / (m0 + mass) as compensated (hi, lo) pairs, accurate to ~eps^2."""
    d, d_err = _two_sum(m0, mass_hi)
    d_lo = d_err + mass_lo
    q = m0 / d
    prod, prod_err = _two_prod(q, d)
    residual = (m0 - prod) - prod_err
    q_lo = (residual - q * d_lo) / d
    return q, q_lo


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


def _exact_restricted_logs(dist, S, rest, rel_excludes, nodes):
    """Shared-table inclusion-exclusion for every query of every row.

    Builds one signed term table over the subsets of each row of ``rest``;
    each query sums, with one math.fsum per row, the terms whose subset avoids
    the excluded positions.  A row's queries that cancel below the floor are
    answered together by one shared-grid quadrature of that row.
    """
    B, m = rest.shape
    if m > EXACT_MAX_K:
        raise TooManySubsets(f"|S \\ C| = {m} exceeds {EXACT_MAX_K}")
    m0 = _complement_masses(dist, S)
    mass_hi, mass_lo, signs = _subset_masses_and_signs(_math_exp(dist.log_probs[rest]))
    q, q_lo = _quotient_terms(m0[:, None], mass_hi, mass_lo)
    # The signed terms of each row, high and low parts, with one axis of
    # length 2 per free element: the bit of position pos in a subset's mask
    # is axis m + 1 - pos.  A query's subsets are a view, its excluded axes
    # taken at 0.
    terms = np.concatenate((signs * q, signs * q_lo), axis=1).reshape((B, 2) + (2,) * m)

    logs = np.zeros((B, len(rel_excludes)))
    cancelled: dict = {}
    for i, rel in enumerate(rel_excludes):
        if len(rel) == m:
            continue
        index = [slice(None)] * (m + 2)
        for pos in rel:
            index[m + 1 - pos] = 0
        for b, row in enumerate(terms[tuple(index)].reshape(B, -1).tolist()):
            total = math.fsum(row)
            if total < CANCELLATION_FLOOR:
                cancelled.setdefault(b, []).append(i)
            else:
                logs[b, i] = min(math.log(total), 0.0)
    for b, queries in cancelled.items():
        requery = [rel_excludes[i] for i in queries]
        logs[b, queries] = _integral_restricted_logs(dist, S[b], rest[b], requery, nodes)
    return logs


def _restricted_logs(dist, S, rest, rel_excludes, backend, nodes):
    """log p^{D \\ (C u rel)}(rest \\ rel) for each row and each query ``rel``
    (a tuple of positions into the row of ``rest`` = S \\ C), as a
    (rows, queries) array from one backend's kernel.  ``auto`` is ``exact``
    for up to _AUTO_EXACT_MAX_K free elements and ``integral`` beyond;
    ``_split_sets`` has checked the name.  The exact kernel takes every row
    at once; the others run row by row."""
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
    S, C, rest = _split_sets(dist, _sample_indices(S)[None], C, backend, nodes)
    if not rest.shape[1] or S.shape[1] == dist.n:
        return 0.0
    return float(_restricted_logs(dist, S, rest, [()], backend, nodes)[0, 0])


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
    rows, single = _as_rows(S)
    S, exclude, rest = _split_sets(dist, rows, exclude, backend, nodes)
    B, m = rest.shape
    if m < 1:
        raise ValueError("need at least one element outside the excluded set")

    if S.shape[1] == dist.n:
        # Whole domain: every restricted set probability is exactly 1.
        log_p = np.zeros(B)
        ratios = np.ones((B, m))
        second = np.ones((B, m, m)) if order == 2 else None
    else:
        singles = [(i,) for i in range(m)]
        pairs = list(itertools.combinations(range(m), 2)) if order == 2 else []
        logs = _restricted_logs(dist, S, rest, singles + pairs, backend, nodes)

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
            i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
            second[:, i, j] = _math_exp(logs[:, m:] - log_num[:, i])
            second[:, j, i] = _math_exp(logs[:, m:] - log_num[:, j])

    if single:
        return LooRatios(
            elements=rest[0],
            ratios=ratios[0],
            log_p_set=float(log_p[0]),
            second_order=None if second is None else second[0],
        )
    return LooRatios(elements=rest, ratios=ratios, log_p_set=log_p, second_order=second)
