"""Brute-force ground truth: exact expectations and gradients, enumerated
sample spaces, conditional distributions, and exact estimator moments.

Everything here is independent of the fast kernels it is used to verify:
ordered-sample probabilities come from the sequential chain rule, unordered
probabilities from summing orderings, and threshold-dependent estimators are
integrated against the conditional threshold density by adaptive quadrature.

Each sample space is enumerated once and passed over once per estimator:
``_SPACES`` lists every sample of a law as one row of a (B, k) index array
with its probability, ``estimators._estimate`` evaluates the estimator on
the whole space as one batch (one call of the estimator table and of the
exact kernel), and ``_threshold_pass`` integrates the threshold estimators
once per set.  The theorem report builds the set and ordered spaces once per
instance and reads both the moments and the per-set conditional checks from
those passes.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .distributions import CategoricalDist, Objective, as_objective, from_logits
from .errors import DomainTooLarge, InvalidSampleSize, SpaceTooLarge
from .sampling import OrderedSample, UnorderedSample
from .setprob import _index_set

DOMAIN_CAP = 10**6
SPACE_CAP = 10**6

# Clip for the transformed quadrature variable: endpoint values stand in for
# the (finite) endpoint limits of the integrands.
_U_CLIP = 1e-12


@dataclass(frozen=True)
class EnumeratedSampleSpace:
    """All samples of a given kind with their exact probabilities."""

    entries: list
    total: float


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


def _ordered_chain_prob(probs: np.ndarray, perm) -> float:
    acc = 1.0
    remaining = 1.0
    for b in perm:
        acc *= probs[b] / remaining
        remaining -= probs[b]
    return acc


def enumerate_ordered(dist: CategoricalDist, k: int) -> EnumeratedSampleSpace:
    """Every ordered sample of size k with its chain-rule probability."""
    count = math.perm(dist.n, k)
    if count > SPACE_CAP:
        raise SpaceTooLarge(f"{count} ordered samples exceed {SPACE_CAP}")
    probs = dist.probs
    entries = [
        (OrderedSample(np.array(perm)), _ordered_chain_prob(probs, perm))
        for perm in itertools.permutations(range(dist.n), k)
    ]
    return EnumeratedSampleSpace(entries, float(math.fsum(p for _, p in entries)))


def enumerate_unordered(dist: CategoricalDist, k: int) -> EnumeratedSampleSpace:
    """Every unordered sample of size k; probabilities aggregate orderings."""
    count = math.perm(dist.n, k)
    if count > SPACE_CAP:
        raise SpaceTooLarge(f"{count} orderings exceed {SPACE_CAP}")
    if k == dist.n:
        # The whole domain is drawn with certainty; its ordering sum would
        # only round away from 1.
        return EnumeratedSampleSpace([(UnorderedSample(np.arange(k)), 1.0)], 1.0)
    probs = dist.probs
    acc: dict = {}
    for perm in itertools.permutations(range(dist.n), k):
        key = tuple(sorted(perm))
        acc[key] = acc.get(key, 0.0) + _ordered_chain_prob(probs, perm)
    entries = [
        (UnorderedSample(np.array(key)), p) for key, p in sorted(acc.items())
    ]
    return EnumeratedSampleSpace(entries, float(math.fsum(p for _, p in entries)))


# ---------------------------------------------------------------------------
# threshold quadrature

_QUAD_SHIFT = 5.0


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


def _adaptive_trapezoid(func, tol: float, start_nodes: int = 129, max_nodes: int = 65537):
    """Extrapolated trapezoid on [0, 1] with node doubling until convergence.

    ``func`` maps an array of nodes in (0, 1) to integrand values of shape
    ``(len(nodes), ...)``; endpoint values are taken just inside the interval.
    The node count runs 129, 257, ..., 65537; at ``max_nodes`` the last
    estimate is returned even if it has not converged.

    Each rung's estimate is the Richardson extrapolation (cancelling the h^2
    to h^6 terms) of the trapezoid sums at strides 1, 2, 4 and 8.  They are
    kept as running sums: halving h turns the stride-2^j sum into the
    stride-2^(j+1) one, and only the stride-1 sum gains the new midpoints.
    So every node is evaluated once, in chunks of at most ``_CHUNK_NODES``
    nodes, and no grid is stored.
    """
    intervals = start_nodes - 1
    if intervals % 8 or start_nodes > _CHUNK_NODES:
        raise ValueError(f"start_nodes - 1 must be a multiple of 8 below {_CHUNK_NODES}")
    h = 1.0 / intervals
    vals = func(np.clip(np.linspace(0.0, 1.0, start_nodes), _U_CLIP, 1.0 - _U_CLIP))
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
        if intervals + 1 >= max_nodes:
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
    probs = dist.probs
    return math.fsum(_ordered_chain_prob(probs, perm) for perm in itertools.permutations(S_idx))


def conditional_iw_mean(dist: CategoricalDist, S, f, tol: float = 1e-9) -> float:
    """Mean of the importance-weighted estimate over the threshold given S."""
    spec = est.ESTIMATORS[est.IMPORTANCE_WEIGHTED]
    S_idx = _index_set(S, dist.n)
    obj = as_objective(f)
    if len(S_idx) == dist.n:
        return float(np.dot(np.exp(dist.log_probs[S_idx]), obj.values_at(S_idx)))
    p_set = _set_prob_by_orderings(dist, S_idx)
    mean, _ = _threshold_integrals(spec, dist, S_idx, obj, None, tol)
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
# and the list of their probabilities.

def _space_of(enumerated: EnumeratedSampleSpace):
    """An enumerated space as its samples, one per row, and their
    probabilities."""
    return (
        np.array([s.indices for s, _ in enumerated.entries]),
        [p for _, p in enumerated.entries],
    )


def _set_space(dist, k):
    return _space_of(enumerate_unordered(dist, k))


def _ordered_space(dist, k):
    return _space_of(enumerate_ordered(dist, k))


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
    est.SET: _set_space,
    est.ORDERED: _ordered_space,
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
    quad_tol: float = 1e-9,
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
        return _threshold_moments(*_threshold_pass(spec, dist, obj, sets, project, quad_tol))
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

def _posterior_from_orderings(points, probs):
    """First-draw posterior per set, aggregated from the ordered sample space
    (its rows and their probabilities); independent of the leave-one-out
    kernels."""
    by_set: dict = {}
    for perm, p in zip(points.tolist(), probs):
        vec = by_set.setdefault(tuple(sorted(perm)), {})
        vec[perm[0]] = vec.get(perm[0], 0.0) + p
    out = {}
    for key, vec in by_set.items():
        mass = math.fsum(vec.values())
        out[key] = np.array([vec.get(s, 0.0) / mass for s in key])
    return out


def _random_instance(gen, n):
    logits = gen.normal(0.0, 1.0, n)
    f = gen.normal(0.0, 1.0, n)
    return from_logits(logits), f


def theorem_report(
    n: int, k: int, cases: int, seed: int, quad_tol: float = 1e-9
) -> dict:
    """Run every identity check on random instances; JSON-ready report.

    Each check records its worst error across instances and whether it stayed
    within tolerance.
    """
    from . import setprob

    if not 1 <= k <= n:
        raise InvalidSampleSize(f"k={k} outside [1, {n}]")
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
        # one batch; the outputs follow the rows of the space.
        set_points, set_probs = _set_space(dist, k)
        ordered_points, ordered_probs = _ordered_space(dist, k)

        us_vals = est._estimate(est.estimator_spec(est.UNORDERED_SET), dist, set_points, obj)
        keys = [tuple(S) for S in set_points.tolist()]
        mean_us, var_us = _moments_from_entries(us_vals, set_probs)
        track("unordered-set-unbiased", 1e-9, abs(mean_us - exact_e))

        posterior = _posterior_from_orderings(ordered_points, ordered_probs)
        for key, us_val in zip(keys, us_vals):
            post_val = float(np.dot(posterior[key], f[list(key)]))
            track("first-draw-posterior-matches-set-estimate", 1e-10, abs(post_val - us_val))

        for name, eid, objective, exact in (
            ("uspg-unbiased", est.UNORDERED_SET_PG, obj, exact_g),
            ("uspg-baseline-unbiased", est.UNORDERED_SET_PG_BL, obj, exact_g),
            ("full-uspg-unbiased", est.FULL_UNORDERED_SET_PG, obj_full, exact_g_full),
        ):
            values = est._estimate(est.estimator_spec(eid), dist, set_points, objective)
            mean, _ = _moments_from_entries(values, set_probs)
            track(name, 1e-9, np.max(np.abs(mean - exact)))

        set_f = obj.values_at(set_points).reshape(set_points.shape)
        cv = est._control_variate(dist, set_points, set_f)
        cv_mean = np.sum(np.array(set_probs)[:, None] * cv, axis=0)
        track("control-variate-zero-mean", 1e-10, np.max(np.abs(cv_mean / math.fsum(set_probs))))

        ordered_keys = [tuple(sorted(B)) for B in ordered_points.tolist()]
        for m in [1] + ([2] if k >= 3 else []):
            sas_spec = est.estimator_spec(est.stoch_sas_id(m))
            sas_vals = est._estimate(sas_spec, dist, ordered_points, obj)
            mean, var_sas = _moments_from_entries(sas_vals, ordered_probs)
            track("stoch-sum-and-sample-unbiased", 1e-9, abs(mean - exact_e))
            cond: dict = {}
            for key, p, val in zip(ordered_keys, ordered_probs, sas_vals.tolist()):
                tot, acc = cond.get(key, (0.0, 0.0))
                cond[key] = (tot + p, acc + p * val)
            for key, us_val in zip(keys, us_vals):
                tot, acc = cond[key]
                track("stoch-sum-and-sample-conditional", 1e-10, abs(acc / tot - us_val))
            track("variance-dominance", 1e-10, max(0.0, var_us - var_sas))

        _, var_ss = estimator_moments(est.SINGLE_SAMPLE, dist, f, k)
        track("variance-dominance", 1e-10, max(0.0, var_us - var_ss))

        mean, _ = estimator_moments(est.DET_SUM_AND_SAMPLE, dist, f, max(k, 2))
        track("det-sum-and-sample-unbiased", 1e-9, abs(mean - exact_e))

        # One threshold integral per set gives the moments and, divided by the
        # set's chain-rule probability, the conditional mean given the set.
        iw_means, iw_seconds = _threshold_pass(
            est.ESTIMATORS[est.IMPORTANCE_WEIGHTED], dist, obj, set_points, None, quad_tol
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
        mean, _ = estimator_moments(est.REINFORCE_WR_BL, dist, f, k)
        track("reinforce-wr-baseline-unbiased", 1e-9, np.max(np.abs(mean - exact_g)))

        S_rand = tuple(sorted(gen.choice(n, size=min(k, 6), replace=False).tolist()))
        log_naive = setprob.p_set_naive(dist, S_rand)
        log_exact = setprob.p_set_exact(dist, S_rand)
        log_integral = setprob.p_set_integral(dist, S_rand)
        scale = max(abs(log_naive), abs(log_exact), abs(log_integral), 1.0)
        track("set-probability-backends-agree", 1e-8, abs(log_naive - log_exact) / scale)
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
