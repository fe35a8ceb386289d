"""Brute-force ground truth: exact expectations and gradients, enumerated
sample spaces, conditional distributions, and exact estimator moments.

Everything here is independent of the fast kernels it is used to verify:
ordered-sample probabilities come from the sequential chain rule, unordered
probabilities from summing orderings, and threshold-dependent estimators are
integrated against the conditional threshold density by adaptive quadrature.

Each sample space is passed over once per estimator: ``_sample_outputs``
lists every sample with its probability and the estimator's output, and
``_threshold_pass`` integrates the threshold estimators once per set.  The
theorem report reads both the moments and the per-set conditional checks
from that one pass.
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


def _romberg_row(vals: np.ndarray) -> np.ndarray:
    """Richardson-extrapolated trapezoid over [0, 1] from values on a uniform
    grid whose interval count is a multiple of 8; cancels h^2..h^6 terms."""
    def trap(v, h):
        return h * (np.sum(v, axis=0) - 0.5 * (v[0] + v[-1]))

    n = len(vals)
    h = 1.0 / (n - 1)
    row = [trap(vals, h), trap(vals[::2], 2 * h), trap(vals[::4], 4 * h), trap(vals[::8], 8 * h)]
    for level in range(1, 4):
        factor = 4.0**level
        row = [(factor * fine - coarse) / (factor - 1.0) for fine, coarse in zip(row, row[1:])]
    return row[0]


def _adaptive_trapezoid(func, tol: float, start_nodes: int = 129, max_nodes: int = 65537):
    """Extrapolated trapezoid on [0, 1] with node doubling until convergence.

    ``func`` maps an array of nodes in (0, 1) to integrand values of shape
    ``(len(nodes), ...)``; endpoint values are taken just inside the interval.
    The node count runs 129, 257, ..., 65537; at ``max_nodes`` the last
    estimate is returned even if it has not converged.  Each rung keeps the
    values of the previous one, whose nodes are its even nodes, and calls
    ``func`` only on the new midpoints, so every node is evaluated once.
    """
    nodes = start_nodes
    vals = func(np.clip(np.linspace(0.0, 1.0, nodes), _U_CLIP, 1.0 - _U_CLIP))
    prev = None
    while True:
        total = _romberg_row(vals)
        if prev is not None:
            err = np.max(np.abs(total - prev))
            scale = max(float(np.max(np.abs(total))), 1e-30)
            if err <= tol * scale:
                return total
        if nodes >= max_nodes:
            return total
        prev = total
        nodes = 2 * (nodes - 1) + 1
        mids = func(np.clip(np.linspace(0.0, 1.0, nodes)[1::2], _U_CLIP, 1.0 - _U_CLIP))
        finer = np.empty((nodes,) + vals.shape[1:])
        finer[0::2] = vals
        finer[1::2] = mids
        vals = finer


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
            _, coefs = spec.coefs(dist, S_idx, fv, p_el / q)
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


def _maybe_project(vec, project):
    if project is None or np.ndim(vec) == 0:
        return vec
    return float(np.dot(np.asarray(vec, dtype=float), np.asarray(project, dtype=float)))


# Sample spaces by sampling law: ``space(dist, k)`` lists every sample as
# ``(points, r)``, the way the law's draw returns it, with its probability.

def _set_space(dist, k):
    space = enumerate_unordered(dist, k)
    return [(s.indices, None) for s, _ in space.entries], [p for _, p in space.entries]


def _ordered_space(dist, k):
    space = enumerate_ordered(dist, k)
    return [(b.indices, None) for b, _ in space.entries], [p for _, p in space.entries]


def _iid_space(law):
    """I.i.d. draws with replacement, as many as the law evaluates."""
    def space(dist, k):
        draws = law.evals(k, dist.n)
        if dist.n**draws > SPACE_CAP:
            raise SpaceTooLarge(f"{dist.n**draws} with-replacement samples exceed {SPACE_CAP}")
        probs = dist.probs
        samples = [np.array(X) for X in itertools.product(range(dist.n), repeat=draws)]
        return [(X, None) for X in samples], [float(np.prod(probs[X])) for X in samples]
    return space


def _det_split_space(dist, k):
    C = est.det_sum_and_sample_split(dist, k)
    rest_mass = math.exp(dist.complement_log_mass(C))
    probs = dist.probs
    rest = [x for x in range(dist.n) if x not in set(C.tolist())]
    return [(np.append(C, x), None) for x in rest], [probs[x] / rest_mass for x in rest]


def _full_space(dist, k):
    return [(np.arange(dist.n), None)], [1.0]


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


def _sample_outputs(spec, dist, obj, k, project):
    """The sample space of the spec's law at size k as three lists: the
    ``(points, r)`` samples, their probabilities and the estimator's output on
    each (projected when ``project`` is given).  Not for the threshold law,
    which ``_threshold_pass`` integrates."""
    samples, probs = _SPACES[spec.law](dist, k)
    outputs = [
        _maybe_project(est._estimate(spec, dist, points, obj, r), project)
        for points, r in samples
    ]
    return samples, probs, outputs


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
        return _threshold_moments(*_threshold_pass(spec, dist, obj, k, project, quad_tol))
    _, probs, outputs = _sample_outputs(spec, dist, obj, k, project)
    return _moments_from_entries(outputs, probs)


def _threshold_pass(spec, dist, obj, k, project, tol):
    """One pass over the sets of size k, in increasing lexicographic order
    (that of ``enumerate_unordered``): the means and the second moments of
    ``_threshold_integrals``, one per set.  At k = n the threshold is the
    sentinel, q = 1 and p(S) = 1: they are the estimate and its squared norm.
    """
    if k == dist.n:
        points, r = est.importance_weights(dist, np.arange(dist.n), None)
        out = _maybe_project(est._estimate(spec, dist, points, obj, r), project)
        return [out], [float(np.dot(out, out))]
    sets = itertools.combinations(range(dist.n), k)
    means, seconds = zip(
        *(_threshold_integrals(spec, dist, np.array(S), obj, project, tol) for S in sets)
    )
    return means, seconds


def _threshold_moments(means, seconds):
    """Mean and variance (inf where not finite) from ``_threshold_pass``."""
    mean = np.sum(means, axis=0) if np.ndim(means[0]) else math.fsum(means)
    if seconds[0] is None:
        return mean, math.inf
    return mean, max(math.fsum(seconds) - float(np.dot(mean, mean)), 0.0)


# ---------------------------------------------------------------------------
# theorem report

def _posterior_from_orderings(dist, k):
    """First-draw posterior per set, aggregated from the ordered sample space;
    independent of the leave-one-out kernels."""
    space = enumerate_ordered(dist, k)
    by_set: dict = {}
    for b, p in space.entries:
        key = tuple(sorted(b.indices.tolist()))
        vec = by_set.setdefault(key, {})
        first = int(b.indices[0])
        vec[first] = vec.get(first, 0.0) + p
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

        # One enumeration of the sets serves every per-set check: us_vals is
        # the unordered-set estimate of each set, in the order of the sets.
        sets, set_probs, us_vals = _sample_outputs(
            est.ESTIMATORS[est.UNORDERED_SET], dist, obj, k, None
        )
        keys = [tuple(S.tolist()) for S, _ in sets]
        mean_us, var_us = _moments_from_entries(us_vals, set_probs)
        track("unordered-set-unbiased", 1e-9, abs(mean_us - exact_e))

        posterior = _posterior_from_orderings(dist, k)
        for key, us_val in zip(keys, us_vals):
            post_val = float(np.dot(posterior[key], f[list(key)]))
            track("first-draw-posterior-matches-set-estimate", 1e-10, abs(post_val - us_val))

        mean, _ = estimator_moments(est.UNORDERED_SET_PG, dist, f, k)
        track("uspg-unbiased", 1e-9, np.max(np.abs(mean - exact_g)))
        mean, _ = estimator_moments(est.UNORDERED_SET_PG_BL, dist, f, k)
        track("uspg-baseline-unbiased", 1e-9, np.max(np.abs(mean - exact_g)))
        mean, _ = estimator_moments(est.FULL_UNORDERED_SET_PG, dist, obj_full, k)
        track("full-uspg-unbiased", 1e-9, np.max(np.abs(mean - exact_g_full)))

        cv_mean = np.zeros(n)
        for (S, _), p in zip(sets, set_probs):
            cv_mean = cv_mean + p * est.uspg_baseline_control_variate(dist, S, f)
        track("control-variate-zero-mean", 1e-10, np.max(np.abs(cv_mean / math.fsum(set_probs))))

        for m in [1] + ([2] if k >= 3 else []):
            samples, probs, sas_vals = _sample_outputs(
                est.estimator_spec(est.stoch_sas_id(m)), dist, obj, k, None
            )
            mean, var_sas = _moments_from_entries(sas_vals, probs)
            track("stoch-sum-and-sample-unbiased", 1e-9, abs(mean - exact_e))
            cond: dict = {}
            for (B, _), p, val in zip(samples, probs, sas_vals):
                key = tuple(sorted(B.tolist()))
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
            est.ESTIMATORS[est.IMPORTANCE_WEIGHTED], dist, obj, k, None, quad_tol
        )
        mean_iw, var_iw = _threshold_moments(iw_means, iw_seconds)
        track("importance-weighted-unbiased", 1e-6, abs(mean_iw - exact_e))
        if math.isfinite(var_iw):
            track("variance-dominance", 1e-10, max(0.0, var_us - var_iw))
        for iw_mean, p, us_val in zip(iw_means, set_probs, us_vals):
            track("importance-weighted-conditional", 1e-6, abs(iw_mean / p - us_val))

        for S, _ in sets:
            gd = est.risk_grad(dist, S, f, form="direct").grad
            gb = est.risk_grad(dist, S, f, form="baseline").grad
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
