"""Brute-force ground truth: exact expectations and gradients, enumerated
sample spaces, conditional distributions, and exact estimator moments.

Everything here is independent of the fast kernels it is used to verify:
ordered-sample probabilities come from the sequential chain rule, unordered
probabilities from summing orderings, and threshold-dependent estimators are
integrated against the conditional threshold density by adaptive quadrature.

A sample space is a pair of arrays: every sample as one row of a (P, k)
index array, and the probability of each row.  ``_chain_probs`` is the one
chain-rule product, and ``_by_set`` the one reduction from orderings to
sets: ``enumerate_unordered`` groups the ordered space by it, and the theorem
report reads the first-draw posterior and the stochastic sum-and-sample
conditional means from the same grouping.  ``estimators._estimate``
evaluates an estimator on a whole space as one batch (one call of the
estimator table and of the exact kernel), and ``_threshold_pass`` integrates
the threshold estimators once per set.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import estimators as est
from .distributions import CategoricalDist, Objective, _index_row, as_objective, from_logits
from .errors import DomainTooLarge, InvalidConfig, InvalidSampleSize, SpaceTooLarge
from .setprob import p_set_exact, p_set_integral

DOMAIN_CAP = 10**6
SPACE_CAP = 10**6

# Most (row, element) entries of the chain rule's not-yet-drawn mask at once.
_MASK_ENTRIES = 2**20

# Clip for the transformed quadrature variable: endpoint values stand in for
# the (finite) endpoint limits of the integrands.
_U_CLIP = 1e-12


def exact_expectation(dist: CategoricalDist, f) -> float:
    """E[f] by full summation over the domain."""
    if dist.n > DOMAIN_CAP:
        raise DomainTooLarge(f"domain size {dist.n} exceeds {DOMAIN_CAP}")
    fv = as_objective(f).values_at(np.arange(dist.n))
    return float(np.dot(dist.probs, fv))


def exact_gradient(dist: CategoricalDist, f) -> np.ndarray:
    """Gradient of E[f] w.r.t. the logits: sum_x f(x) grad-p(x), plus the
    pathwise term sum_x p(x) grad-f(x) when the objective carries one."""
    if dist.n > DOMAIN_CAP:
        raise DomainTooLarge(f"domain size {dist.n} exceeds {DOMAIN_CAP}")
    obj = as_objective(f)
    fv = obj.values_at(np.arange(dist.n))
    probs = dist.probs
    pf = probs * fv
    grad = pf - float(np.sum(pf)) * probs
    if obj.has_param_grad:
        for x in range(dist.n):
            grad = grad + probs[x] * obj.param_grad_at(x)
    return grad


def _chain_probs(probs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Chain-rule probability of each row of ``points`` as an ordered draw
    without replacement: the product over j of p(b_j) over the mass not yet
    drawn, taken one column at a time.  Each denominator is the direct sum
    of the probabilities not yet drawn, never 1 minus a running sum: that
    difference cancels to 0 once the drawn elements hold all the float
    mass.  Rows go in chunks, so the (rows, n) mask stays bounded."""
    out = np.empty(len(points))
    step = max(1, _MASK_ENTRIES // len(probs))
    for start in range(0, len(points), step):
        chunk = points[start:start + step]
        left = np.ones((len(chunk), len(probs)), dtype=bool)
        rows = np.arange(len(chunk))
        acc = np.ones(len(chunk))
        for col in chunk.T:
            acc = acc * (probs[col] / np.where(left, probs, 0.0).sum(axis=1))
            left[rows, col] = False
        out[start:start + step] = acc
    return out


def _by_set(points: np.ndarray, values: np.ndarray):
    """``values`` (one entry or row per row of ``points``) summed over the
    rows that hold the same set, in row order.  Returns the sets, each sorted
    and in lexicographic order, and their sums."""
    sets, inverse = np.unique(np.sort(points, axis=1), axis=0, return_inverse=True)
    sums = np.zeros((len(sets),) + values.shape[1:])
    np.add.at(sums, inverse.reshape(-1), values)
    return sets, sums


def enumerate_ordered(dist: CategoricalDist, k: int):
    """Every ordered sample of size k, one per row of a (P, k) index array,
    and its chain-rule probability."""
    count = math.perm(dist.n, k)
    if count > SPACE_CAP:
        raise SpaceTooLarge(f"{count} ordered samples exceed {SPACE_CAP}")
    points = np.array(list(itertools.permutations(range(dist.n), k)), dtype=np.intp)
    points = points.reshape(-1, k)
    return points, _chain_probs(dist.probs, points)


def enumerate_unordered(dist: CategoricalDist, k: int):
    """Every unordered sample of size k, one sorted set per row of a (P, k)
    index array, and its probability: the sum of its orderings'."""
    count = math.perm(dist.n, k)
    if count > SPACE_CAP:
        raise SpaceTooLarge(f"{count} orderings exceed {SPACE_CAP}")
    if k == dist.n:
        # The whole domain is drawn with certainty; its ordering sum would
        # only round away from 1.
        return np.arange(k)[None], np.ones(1)
    return _by_set(*enumerate_ordered(dist, k))


# ---------------------------------------------------------------------------
# threshold quadrature

_QUAD_SHIFT = 5.0

# Relative tolerance of the ladder's convergence test, and its node counts:
# 129 on the first rung (the interval count a multiple of 8), doubling in
# intervals up to the cap.
_QUAD_TOL = 1e-9
_START_NODES = 129
_MAX_NODES = 65537

# Most nodes the integrand is called on at once: the ladder's memory stays
# bounded whatever the node count.
_CHUNK_NODES = 4096


def _midpoint_sum(func, intervals: int):
    """Sum of ``func`` over the odd nodes j / intervals of a grid (the
    abscissae ``np.linspace`` gives), clipped inside (0, 1) and evaluated at
    most ``_CHUNK_NODES`` at a time."""
    h = 1.0 / intervals
    total = 0.0
    for lo in range(1, intervals, 2 * _CHUNK_NODES):
        j = np.arange(lo, min(intervals, lo + 2 * _CHUNK_NODES), 2, dtype=float)
        total = total + np.sum(func(np.clip(j * h, _U_CLIP, 1.0 - _U_CLIP)), axis=0)
    return total


def _adaptive_trapezoid(func, tol: float):
    """Extrapolated trapezoid on [0, 1] with node doubling until convergence.

    ``func`` maps an array of nodes in (0, 1) to integrand values of shape
    ``(len(nodes), ...)``; endpoint values are taken just inside the interval.
    The node count runs 129, 257, ..., 65537; at ``_MAX_NODES`` the last
    estimate is returned even if it has not converged.

    Each rung's estimate is the Richardson extrapolation (cancelling the h^2
    to h^6 terms) of the trapezoid sums at strides 1, 2, 4 and 8.  They are
    kept as running sums: halving h turns the stride-2^j sum into the
    stride-2^(j+1) one, and only the stride-1 sum gains the new midpoints.
    So every node is evaluated once, in chunks of at most ``_CHUNK_NODES``
    nodes, and no grid is stored.
    """
    intervals = _START_NODES - 1
    h = 1.0 / intervals
    vals = func(np.clip(np.linspace(0.0, 1.0, _START_NODES), _U_CLIP, 1.0 - _U_CLIP))
    ends = vals[0] + vals[-1]
    sums = [np.sum(vals[:: 2**j], axis=0) for j in range(4)]
    prev = None
    while True:
        row = [(2**j * h) * (sums[j] - 0.5 * ends) for j in range(4)]
        for level in range(1, 4):
            factor = 4.0**level
            row = [(factor * fine - coarse) / (factor - 1.0) for fine, coarse in zip(row, row[1:])]
        total = row[0]
        if prev is not None:
            err = np.max(np.abs(total - prev))
            scale = max(float(np.max(np.abs(total))), 1e-30)
            if err <= tol * scale:
                return total
        if intervals + 1 >= _MAX_NODES:
            return total
        prev = total
        intervals *= 2
        h = 1.0 / intervals
        sums = [sums[0] + _midpoint_sum(func, intervals)] + sums[:3]


def _kappa_path(dist: CategoricalDist, S_idx):
    """Transform for integrating against the conditional threshold density.

    Conditioned on the set S, the threshold is the maximum perturbed
    log-probability outside S, a Gumbel with location log(1 - mass(S)).
    Substituting its CDF u and then u = v^exp(shift) (the same shift that
    smooths the set-probability integrand) gives

      integral p(kappa|S) g dkappa
        = (1/p(S)) integral_0^1 W(v) prod_s q(s, kappa(v)) g(kappa(v)) dv

    with weight W(v) = exp(shift) * v^(exp(shift) - 1).  Returns
    ``(kappa_of, weight_of)``.
    """
    phi_c = dist.complement_log_mass(S_idx)
    scale = math.exp(_QUAD_SHIFT)

    def kappa_of(v):
        return phi_c - _QUAD_SHIFT - np.log(-np.log(v))

    def weight_of(v):
        return scale * np.exp((scale - 1.0) * np.log(v))

    return kappa_of, weight_of


def _q_matrix(dist, S_idx, kappas) -> np.ndarray:
    """q(s, kappa) for every node kappa and s in S; shape (nodes, k).

    It is the transpose of a (k, nodes) array, so elementwise work over it
    runs along the long node axis rather than across the k elements."""
    t = np.minimum(dist.log_probs[S_idx][:, None] - kappas, 700.0)
    return (-np.expm1(-np.exp(t))).T


def _threshold_integrals(spec, dist, S_idx, obj, project, tol):
    """Integrals over the threshold given the set S (fewer than n elements)
    of w * out and, where the estimator's variance is finite at this k, of
    w * |out|^2 (else None).  Here w is the set-conditional weight prod_s q
    and out is the estimate at each quadrature node (one row of importance
    weights per node), projected when ``project`` is given; the mean is then
    a float, as for a value.  Dividing by p(S) gives the moments given S;
    summed over all sets they are the unconditional moments.

    A value's mean is integrated as one column.  A gradient's mean is
    integrated per coefficient and mapped afterwards, so quadrature converges
    on the coefficients' scale even where a projected gradient cancels to
    almost zero.
    """
    k = len(S_idx)
    scalar = spec.output == est.VALUE or project is not None
    if spec.output == est.VALUE:
        out_map = np.ones((k, 1))
    elif scalar:
        proj = np.asarray(project, dtype=float)
        out_map = (proj[S_idx] - float(np.dot(dist.probs, proj)))[:, None]
    else:
        out_map = _score_vectors(dist, S_idx)
    want_second = k >= spec.finite_var_k
    fv = obj.values_at(S_idx)
    p_el = np.exp(dist.log_probs[S_idx])
    kappa_of, weight_of = _kappa_path(dist, S_idx)
    per_coef = spec.output != est.VALUE

    def integrand(v):
        q = _q_matrix(dist, S_idx, kappa_of(v))
        with np.errstate(divide="ignore"):
            w = weight_of(v) * np.exp(np.sum(np.log(q), axis=1))
            _, coefs = spec.coefs(dist, S_idx[None], fv[None], p_el / q)
        out = coefs @ out_map
        cols = [w[:, None] * (coefs if per_coef else out)]
        if want_second:
            cols.append((w * np.sum(out * out, axis=1))[:, None])
        return np.concatenate(cols, axis=1)

    total = _adaptive_trapezoid(integrand, tol)
    mean = total[:k] @ out_map if per_coef else total[: out_map.shape[1]]
    return (float(mean[0]) if scalar else mean), (float(total[-1]) if want_second else None)


def _score_vectors(dist, elements):
    """The score vectors onehot(s) - probs of the elements, one per row."""
    vecs = -np.tile(dist.probs, (len(elements), 1))
    vecs[np.arange(len(elements)), elements] += 1.0
    return vecs


def _set_prob_by_orderings(dist: CategoricalDist, S_idx) -> float:
    """p(S) as the chain-rule sum over the orderings of S."""
    count = math.factorial(len(S_idx))
    if count > SPACE_CAP:
        raise SpaceTooLarge(f"{count} orderings exceed {SPACE_CAP}")
    orderings = np.array(list(itertools.permutations(S_idx)), dtype=np.intp)
    return math.fsum(_chain_probs(dist.probs, orderings))


def conditional_iw_mean(dist: CategoricalDist, S, f) -> float:
    """Mean of the importance-weighted estimate over the threshold given S."""
    spec = est.ESTIMATORS[est.IMPORTANCE_WEIGHTED]
    S_idx = _index_row(S, dist.n)
    obj = as_objective(f)
    if len(S_idx) == dist.n:
        return float(np.dot(np.exp(dist.log_probs[S_idx]), obj.values_at(S_idx)))
    p_set = _set_prob_by_orderings(dist, S_idx)
    mean, _ = _threshold_integrals(spec, dist, S_idx, obj, None, _QUAD_TOL)
    return mean / p_set


# ---------------------------------------------------------------------------
# exact estimator moments

def _moments_from_entries(values, probs):
    """Normalized mean and variance (trace of covariance for vectors)."""
    arr = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float) / float(math.fsum(probs))
    if arr.ndim == 1:
        mean = float(np.dot(p, arr))
        var = float(np.dot(p, (arr - mean) ** 2))
        return mean, var
    mean = p @ arr
    centered = arr - mean
    var = float(np.dot(p, np.einsum("ij,ij->i", centered, centered)))
    return mean, var


def _project(outputs, project):
    """Each gradient row of ``outputs`` dotted with ``project``; values, and
    every output when ``project`` is None, pass through."""
    if project is None or outputs.ndim == 1:
        return outputs
    return est._rowdot(outputs, np.asarray(project, dtype=float))


# Sample spaces by sampling law: ``space(dist, k)`` returns every sample as
# one row of a (B, points) index array, the points the law's draw returns,
# and their probabilities.

def _iid_space(law):
    """I.i.d. draws with replacement, as many as the law evaluates."""
    def space(dist, k):
        draws = law.evals(k, dist.n)
        if dist.n**draws > SPACE_CAP:
            raise SpaceTooLarge(f"{dist.n**draws} with-replacement samples exceed {SPACE_CAP}")
        samples = np.array(list(itertools.product(range(dist.n), repeat=draws)))
        return samples, np.prod(dist.probs[samples], axis=1).tolist()
    return space


def _det_split_space(dist, k):
    C = est.det_sum_and_sample_split(dist, k)
    rest_mass = math.exp(dist.complement_log_mass(C))
    probs = dist.probs
    rest = [x for x in range(dist.n) if x not in set(C.tolist())]
    return np.array([np.append(C, x) for x in rest]), [probs[x] / rest_mass for x in rest]


def _full_space(dist, k):
    return np.arange(dist.n)[None], [1.0]


# Laws that draw k distinct elements, so k may not exceed the domain size.
_WITHOUT_REPLACEMENT = (est.SET, est.ORDERED, est.THRESHOLD, est.DET_SPLIT)

_SPACES = {
    est.SET: enumerate_unordered,
    est.ORDERED: enumerate_ordered,
    est.WITH_REPLACEMENT: _iid_space(est.WITH_REPLACEMENT),
    est.PAIRED: _iid_space(est.PAIRED),
    est.DET_SPLIT: _det_split_space,
    est.SINGLE: _iid_space(est.SINGLE),
    est.FULL: _full_space,
}


def estimator_moments(
    kind: str,
    dist: CategoricalDist,
    f,
    k: int,
    *,
    project=None,
):
    """Exact mean and variance of an estimator under its true sampling law.

    ``kind`` is an estimator id.  Gradient estimators report the trace of the
    covariance as their variance, or the scalar variance of ``grad . project``
    when a projection vector is supplied.  Threshold-dependent kinds are
    integrated over the conditional threshold density per sampled set; their
    variance is infinite below the table's ``finite_var_k`` (k = 1 for
    ``importance-weighted`` and ``iw-pg``, k <= 3 for ``iw-pg-bl``) and
    reported as inf.  Raises InvalidSampleSize for k < 1, and for k > n
    under the laws that draw distinct elements.
    """
    spec = est.estimator_spec(kind)
    if k < 1 or (k > dist.n and spec.law in _WITHOUT_REPLACEMENT):
        raise InvalidSampleSize(f"k={k} outside [1, {dist.n}] for {kind!r}")
    obj = as_objective(f)
    if spec.law == est.THRESHOLD:
        sets = np.array(list(itertools.combinations(range(dist.n), k)))
        return _threshold_moments(*_threshold_pass(spec, dist, obj, sets, project, _QUAD_TOL))
    points, probs = _SPACES[spec.law](dist, k)
    outputs = _project(est._estimate(spec, dist, points, obj), project)
    return _moments_from_entries(outputs, probs)


def _threshold_pass(spec, dist, obj, sets, project, tol):
    """One pass over the sets, the rows of ``sets``: the means and the second
    moments of ``_threshold_integrals``, one per set.  At k = n the threshold
    is the sentinel, q = 1 and p(S) = 1: they are the estimate and its
    squared norm.
    """
    if sets.shape[1] == dist.n:
        points, r = est.importance_weights(dist, np.arange(dist.n), None)
        out = _project(est._estimate(spec, dist, points[None], obj, r[None]), project)[0]
        return [out], [float(np.dot(out, out))]
    means, seconds = zip(*(_threshold_integrals(spec, dist, S, obj, project, tol) for S in sets))
    return means, seconds


def _threshold_moments(means, seconds):
    """Mean and variance (inf where not finite) from ``_threshold_pass``."""
    mean = np.sum(means, axis=0) if np.ndim(means[0]) else math.fsum(means)
    if seconds[0] is None:
        return mean, math.inf
    return mean, max(math.fsum(seconds) - float(np.dot(mean, mean)), 0.0)


# ---------------------------------------------------------------------------
# theorem report

def _random_instance(gen, n):
    logits = gen.normal(0.0, 1.0, n)
    f = gen.normal(0.0, 1.0, n)
    return from_logits(logits), f


def theorem_report(n: int, k: int, cases: int, seed: int) -> dict:
    """Run every identity check on random instances; JSON-ready report.

    Each check records its worst error across instances and whether it stayed
    within tolerance.  Checks of estimators that need more samples than k
    (the baselines and stochastic sum-and-sample need two, its split m = 2
    three) or a larger domain than n (deterministic sum-and-sample draws
    two) are left out.  Raises InvalidConfig for fewer than one case: a
    report over no instance would pass every check it did not run.
    """
    if not 1 <= k <= n:
        raise InvalidSampleSize(f"k={k} outside [1, {n}]")
    if cases < 1:
        raise InvalidConfig(f"cases must be at least 1, got {cases}")
    gen = np.random.default_rng(seed)
    errs: dict = {}

    def track(name, tol, value):
        rec = errs.setdefault(name, {"tolerance": tol, "max_abs_err": 0.0})
        rec["max_abs_err"] = max(rec["max_abs_err"], float(value))

    for _ in range(cases):
        dist, f = _random_instance(gen, n)
        obj = as_objective(f)
        param_grad = gen.normal(0.0, 1.0, (n, n))
        obj_full = Objective(f, param_grad)

        exact_e = exact_expectation(dist, f)
        exact_g = exact_gradient(dist, f)
        exact_g_full = exact_gradient(dist, obj_full)

        # Each space is enumerated once and every estimator on it runs as
        # one batch; the outputs follow the rows of the space.  Grouping the
        # ordered space by set gives the sets in the set space's row order.
        set_points, set_probs = enumerate_unordered(dist, k)
        ordered_points, ordered_probs = enumerate_ordered(dist, k)

        us_vals = est._estimate(est.estimator_spec(est.UNORDERED_SET), dist, set_points, obj)
        mean_us, var_us = _moments_from_entries(us_vals, set_probs)
        track("unordered-set-unbiased", 1e-9, abs(mean_us - exact_e))

        # The first-draw posterior of each set: the mass of its orderings
        # that draw each element first, normalized.
        first = np.sort(ordered_points, axis=1) == ordered_points[:, :1]
        _, first_mass = _by_set(ordered_points, ordered_probs[:, None] * first)
        for S, mass, us_val in zip(set_points, first_mass, us_vals):
            post_val = float(np.dot(mass / math.fsum(mass), f[S]))
            track("first-draw-posterior-matches-set-estimate", 1e-10, abs(post_val - us_val))

        for name, eid, objective, exact in (
            ("uspg-unbiased", est.UNORDERED_SET_PG, obj, exact_g),
            ("uspg-baseline-unbiased", est.UNORDERED_SET_PG_BL, obj, exact_g),
            ("full-uspg-unbiased", est.FULL_UNORDERED_SET_PG, obj_full, exact_g_full),
        ):
            if eid == est.UNORDERED_SET_PG_BL and k < 2:
                continue
            values = est._estimate(est.estimator_spec(eid), dist, set_points, objective)
            mean, _ = _moments_from_entries(values, set_probs)
            track(name, 1e-9, np.max(np.abs(mean - exact)))

        if k >= 2:
            set_f = obj.values_at(set_points).reshape(set_points.shape)
            cv = est._control_variate(dist, set_points, set_f)
            cv_mean = np.sum(set_probs[:, None] * cv, axis=0) / math.fsum(set_probs)
            track("control-variate-zero-mean", 1e-10, np.max(np.abs(cv_mean)))

        for m in range(1, min(k, 3)):
            sas_spec = est.estimator_spec(est.stoch_sas_id(m))
            sas_vals = est._estimate(sas_spec, dist, ordered_points, obj)
            mean, var_sas = _moments_from_entries(sas_vals, ordered_probs)
            track("stoch-sum-and-sample-unbiased", 1e-9, abs(mean - exact_e))
            _, cond = _by_set(
                ordered_points, np.stack([ordered_probs, ordered_probs * sas_vals], axis=1)
            )
            for (tot, acc), us_val in zip(cond, us_vals):
                track("stoch-sum-and-sample-conditional", 1e-10, abs(acc / tot - us_val))
            track("variance-dominance", 1e-10, max(0.0, var_us - var_sas))

        _, var_ss = estimator_moments(est.SINGLE_SAMPLE, dist, f, k)
        track("variance-dominance", 1e-10, max(0.0, var_us - var_ss))

        if n >= 2:
            mean, _ = estimator_moments(est.DET_SUM_AND_SAMPLE, dist, f, max(k, 2))
            track("det-sum-and-sample-unbiased", 1e-9, abs(mean - exact_e))

        # One threshold integral per set gives the moments and, divided by the
        # set's chain-rule probability, the conditional mean given the set.
        iw_means, iw_seconds = _threshold_pass(
            est.ESTIMATORS[est.IMPORTANCE_WEIGHTED], dist, obj, set_points, None, _QUAD_TOL
        )
        mean_iw, var_iw = _threshold_moments(iw_means, iw_seconds)
        track("importance-weighted-unbiased", 1e-6, abs(mean_iw - exact_e))
        if math.isfinite(var_iw):
            track("variance-dominance", 1e-10, max(0.0, var_us - var_iw))
        for iw_mean, p, us_val in zip(iw_means, set_probs, us_vals):
            track("importance-weighted-conditional", 1e-6, abs(iw_mean / p - us_val))

        gd = est._estimate(est.estimator_spec(est.RISK), dist, set_points, obj)
        gb = est._estimate(est.estimator_spec(est.RISK_BL_FORM), dist, set_points, obj)
        track("risk-form-equivalence", 1e-10, np.max(np.abs(gd - gb)))

        mean, _ = estimator_moments(est.REINFORCE_WR, dist, f, k)
        track("reinforce-wr-unbiased", 1e-9, np.max(np.abs(mean - exact_g)))
        if k >= 2:
            mean, _ = estimator_moments(est.REINFORCE_WR_BL, dist, f, k)
            track("reinforce-wr-baseline-unbiased", 1e-9, np.max(np.abs(mean - exact_g)))

        # The kernels against the chain-rule sum over orderings, and each other.
        S_rand = np.sort(gen.choice(n, size=min(k, 6), replace=False))
        log_chain = math.log(_set_prob_by_orderings(dist, S_rand))
        log_exact = p_set_exact(dist, S_rand)
        log_integral = p_set_integral(dist, S_rand)
        scale = max(abs(log_chain), abs(log_exact), abs(log_integral), 1.0)
        track("set-probability-backends-agree", 1e-8, abs(log_chain - log_exact) / scale)
        track("set-probability-backends-agree", 1e-8, abs(log_exact - log_integral) / scale)

    checks = [
        {
            "name": name,
            "tolerance": rec["tolerance"],
            "max_abs_err": rec["max_abs_err"],
            "passed": rec["max_abs_err"] <= rec["tolerance"],
        }
        for name, rec in sorted(errs.items())
    ]
    return {
        "schema_version": 1,
        "config": {"n": n, "k": k, "cases": cases, "seed": seed},
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
