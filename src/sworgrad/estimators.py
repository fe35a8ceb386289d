"""Expectation and policy-gradient estimators built on samples without replacement.

Every estimator is one weight vector over its sample.  Its formula is written
once, as a coefs function that maps the sample's evaluation points and the
objective values there to ``(elements, coefs)``:

* a value estimate of E_p[f] is ``coefs.sum()``;
* a gradient estimate of grad E_p[f] with respect to the logits is the
  score-weighted sum ``sum_e coefs[e] * (onehot(e) - probs)``;
* the toy harness's scalar gradient is ``coefs . centered_jacobian[elements]``.

The coefs functions work on a batch: ``points`` is a (B, k) array holding B
samples, one per row, and ``elements`` and ``coefs`` come back with one row
per sample.  ``_estimate`` maps a batch to B values or a (B, n) array of
gradients.  The exact oracle passes a whole enumerated sample space as one
batch; every one-sample function below is the B = 1 row of the same code.

``ESTIMATORS`` maps each estimator id to its sampling law (how the sample is
drawn and how many objective evaluations it takes), its coefs function and
its output kind.  The public functions below, the toy harness and the exact
oracle all go through it.  All gradients are analytic softmax expressions;
no autodiff is involved.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distributions import CategoricalDist, _index_row, _index_rows, as_objective
from .errors import (
    BaselineSizeMismatch,
    InconsistentThreshold,
    InvalidSampleSize,
    InvalidSplit,
    NeedTwoSamples,
    NoParameterization,
    NoPathwiseGradient,
)
from .sampling import (
    OrderedSample,
    Rng,
    Threshold,
    _check_draw_count,
    _gumbel_top_k_rows,
    _inverse_cdf,
)
from .setprob import _complement_masses, loo_ratios

EXACT = "exact"
SINGLE_SAMPLE = "single-sample"
UNORDERED_SET = "unordered-set"
UNORDERED_SET_PG = "unordered-set-pg"
UNORDERED_SET_PG_BL = "unordered-set-pg-bl"
FULL_UNORDERED_SET_PG = "full-unordered-set-pg"
DET_SUM_AND_SAMPLE = "det-sum-and-sample"
IMPORTANCE_WEIGHTED = "importance-weighted"
IW_PG = "iw-pg"
IW_PG_BL = "iw-pg-bl"
IW_PG_NORM = "iw-pg-norm"
REINFORCE_WR = "reinforce-wr"
REINFORCE_WR_BL = "reinforce-wr-bl"
REINFORCE_SAMPLED_BL = "reinforce-sampled-bl"
RISK = "risk"
RISK_BL_FORM = "risk-bl-form"

_STOCH_SAS_PREFIX = "stoch-sum-and-sample-m"


def stoch_sas_id(m: int) -> str:
    return f"{_STOCH_SAS_PREFIX}{m}"


def parse_stoch_sas(estimator_id: str) -> int | None:
    """The split m of a stochastic sum-and-sample id, or None."""
    if estimator_id.startswith(_STOCH_SAS_PREFIX):
        return int(estimator_id[len(_STOCH_SAS_PREFIX):])
    return None


@dataclass(frozen=True)
class GradEstimate:
    """A gradient estimate plus bookkeeping.

    ``grad`` has the same length as the distribution's logits; ``evals``
    counts the objective evaluations the estimate consumed (2k for the
    sampled-baseline variant, k otherwise).
    """

    grad: np.ndarray
    estimator_id: str
    k: int
    evals: int

    def __post_init__(self):
        g = np.asarray(self.grad, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient estimate must be finite")
        g.setflags(write=False)
        object.__setattr__(self, "grad", g)


def _kappa_of(kappa) -> float | None:
    if isinstance(kappa, Threshold):
        return kappa.kappa
    if kappa is None:
        return None
    return float(kappa)


def _require_logits(dist: CategoricalDist):
    if not dist.has_logits():
        raise NoParameterization("gradient estimators need a logits parameterization")


def _score_sum(dist: CategoricalDist, elements: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_e coefs[e] * (onehot(e) - probs), the softmax score-weighted sum,
    for each row of the (B, k) arrays; shape (B, n)."""
    g = np.zeros((len(coefs), dist.n))
    np.add.at(g, (np.arange(len(coefs))[:, None], elements), coefs)
    return g - coefs.sum(axis=1, keepdims=True) * dist.probs


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b along the last axis, broadcasting the leading axes; each entry
    is the product np.dot gives for one row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# sample weights


def posterior_weights(dist: CategoricalDist, S):
    """Elements of S (ascending) and their first-draw posterior probabilities
    p(s) R(S, s).  The weights always sum to 1 up to rounding.  S may be a
    (B, k) batch of sets, as for ``loo_ratios``; both results then have one
    row per set.
    """
    lr = loo_ratios(dist, S, order=1)
    return lr.elements, np.exp(dist.log_probs[lr.elements]) * lr.ratios


def sum_and_sample_weights(dist: CategoricalDist, B, m: int = 1):
    """Weights of the stochastic sum-and-sample estimator with split m, in the
    draw order of B: ``(indices of B, weights)``.  B may be a (batch, k)
    array of ordered samples; both results then have one row per sample.

    The first k-m drawn elements contribute their exact probabilities; each
    of the last m elements s gets p(s) R^{D \\ H}(S, s), with H the first k-m:
    the mass outside H spread by the restricted first-draw posterior, so the
    weights total 1 up to rounding.
    """
    idx, single = _index_rows(B, dist.n, sets=False)
    k = idx.shape[1]
    if not 1 <= m < k:
        raise InvalidSplit(f"need 1 <= m < k, got m={m}, k={k}")
    lr = loo_ratios(dist, np.sort(idx, axis=1), exclude=idx[:, : k - m])
    w = np.exp(dist.log_probs[idx])
    tail = k - m + idx[:, k - m:].argsort(axis=1, kind="stable")
    w[np.arange(len(idx))[:, None], tail] *= lr.ratios
    return (idx[0], w[0]) if single else (idx, w)


def det_sum_and_sample_split(dist: CategoricalDist, k: int) -> np.ndarray:
    """The k-1 highest-probability indices (ties to the lower index)."""
    if not 2 <= k <= dist.n:
        raise InvalidSampleSize(f"k={k} outside [2, {dist.n}]")
    return np.argsort(-dist.probs, kind="stable")[: k - 1]


def inclusion_probs(dist: CategoricalDist, elements, kappa) -> np.ndarray:
    """q(s, kappa) = P(perturbed log-prob of s exceeds kappa); ones for the
    full-domain sentinel.  Computed as -expm1(-exp(log p(s) - kappa))."""
    return _inclusion(dist, _index_row(elements, dist.n, sets=False), _kappa_of(kappa))


def _inclusion(dist: CategoricalDist, elements: np.ndarray, kappa) -> np.ndarray:
    """``inclusion_probs`` of the checked ``elements``: ``kappa`` is None
    (the full-domain sentinel), a float, or a (B, 1) column against a (B, k)
    batch of elements."""
    if kappa is None:
        return np.ones(elements.shape)
    t = np.minimum(dist.log_probs[elements] - kappa, 700.0)
    q = -np.expm1(-np.exp(t))
    if np.any(q <= 0.0):
        raise InconsistentThreshold("threshold leaves an element with zero inclusion probability")
    return q


def _check_threshold(S, kappa):
    kv = _kappa_of(kappa)
    if (
        kv is not None
        and isinstance(S, OrderedSample)
        and S.perturbed_logprobs is not None
        and kv >= float(np.min(S.perturbed_logprobs))
    ):
        raise InconsistentThreshold("threshold must lie below every retained perturbed value")
    return kv


def importance_weights(dist: CategoricalDist, S, kappa):
    """Elements (ascending) and priority-sampling weights p(s) / q(s, kappa)."""
    kv = _check_threshold(S, kappa)
    elements = _index_row(S, dist.n)
    return elements, _priority_weights(dist, elements, kv)


def _priority_weights(dist: CategoricalDist, elements: np.ndarray, kappa) -> np.ndarray:
    """p(s) / q(s, kappa) for each of the checked ``elements``, with
    ``kappa`` as for ``_inclusion``."""
    return np.exp(dist.log_probs[elements]) / _inclusion(dist, elements, kappa)


# ---------------------------------------------------------------------------
# coefs functions
#
# Each maps (dist, points, fv, r) to (elements, coefs): ``points`` is a
# (B, k) array whose rows are samples' evaluation points in the order their
# law draws them, ``fv`` the objective at those points, and ``r`` the
# importance weights p/q of the threshold law (None for every other law).
# The threshold formulas broadcast ``r`` against one sample's row: the oracle
# passes one row of weights per quadrature node.


def _posterior_coefs(dist, S, fv, r=None):
    elements, w = posterior_weights(dist, S)
    return elements, w * fv


def _baseline_terms(dist, S, fv):
    """Elements, first-draw posterior w and the leave-one-out baseline b of
    every element, estimated from the others by second-order ratios."""
    if S.shape[1] < 2:
        raise NeedTwoSamples("the built-in baseline needs at least two samples")
    lr = loo_ratios(dist, S, order=2)
    p_el = np.exp(dist.log_probs[lr.elements])
    return lr.elements, p_el * lr.ratios, (lr.second_order @ (p_el * fv)[:, :, None])[:, :, 0]


def _uspg_baseline_coefs(dist, S, fv, r=None):
    elements, w, b = _baseline_terms(dist, S, fv)
    return elements, w * (fv - b)


def _stoch_sas_coefs(dist, B, fv, r=None, *, m):
    elements, w = sum_and_sample_weights(dist, B, m)
    return elements, w * fv


def _det_sas_coefs(dist, points, fv, r=None):
    """``points`` are the deterministic head followed by the one sampled
    element, which stands for the mass outside the head."""
    head = points[:, :-1]
    rest_mass = _complement_masses(dist, head)
    return points, np.concatenate([dist.probs[head], rest_mass[:, None]], axis=1) * fv


def _iw_coefs(dist, S, fv, r):
    return S, r * fv


def _iw_baseline_coefs(dist, S, fv, r):
    """Each term is reweighted by 1 - p(s) + p(s)/q(s) to correct for the
    sample-dependent baseline B = sum_s r(s) f(s), keeping it unbiased."""
    p_el = np.exp(dist.log_probs[S])
    return S, r * (fv * (1.0 - p_el + r) - _rowdot(r, fv)[..., None])


def _iw_normalized_coefs(dist, S, fv, r):
    """Per-term normalizers W - r(s) + p(s): biased, lower variance."""
    p_el = np.exp(dist.log_probs[S])
    W = r.sum(axis=-1, keepdims=True)
    return S, (r / (W - r + p_el)) * (fv - _rowdot(r, fv)[..., None] / W)


def _reinforce_coefs(dist, X, fv, r=None):
    return X, fv / X.shape[1]


def _reinforce_baseline_coefs(dist, X, fv, r=None):
    """Each draw centered by the mean objective of the other k-1 draws."""
    k = X.shape[1]
    if k < 2:
        raise NeedTwoSamples("the leave-one-out baseline needs at least two samples")
    return X, (fv - (fv.sum(axis=1, keepdims=True) - fv) / (k - 1)) / k


def _paired_baseline_coefs(dist, points, fv, r=None):
    """``points`` are k draws followed by their k paired baseline draws."""
    k = points.shape[1] // 2
    return points[:, :k], (fv[:, :k] - fv[:, k:]) / k


def _risk_coefs(dist, S, fv, r=None):
    """p(s)/W with W = sum_S p, differentiated explicitly, normalizer included."""
    p_el = np.exp(dist.log_probs[S])
    W = p_el.sum(axis=1, keepdims=True)
    return S, fv * p_el / W - (_rowdot(p_el, fv)[:, None] / W**2) * p_el


def _risk_baseline_coefs(dist, S, fv, r=None):
    """The same gradient with the normalizer's term as a built-in baseline."""
    p_el = np.exp(dist.log_probs[S])
    W = p_el.sum(axis=1, keepdims=True)
    return S, (p_el / W) * (fv - _rowdot(p_el / W, fv)[:, None])


# ---------------------------------------------------------------------------
# sampling laws
#
# A law draws a batch of samples from uniforms: ``uniforms(k, n)`` is the
# fixed number of uniforms on [0, 1) that one sample takes, and
# ``draw(u, dist, k)`` maps a (B, uniforms) array, one row per sample, to the
# ``(points, r)`` the coefs functions take.  ``evals(k, n)`` is the number
# of points.  A row's draw is the sampler's draw from a stream whose next
# doubles are that row: the Gumbel laws are ``gumbel_top_k`` and the
# categorical laws ``sample_with_replacement``.


class Law(NamedTuple):
    draw: Callable
    evals: Callable
    uniforms: Callable


def _draw_set(u, dist, k):
    top, _, _ = _gumbel_top_k_rows(u, dist, k)
    return np.sort(top, axis=1), None


def _draw_ordered(u, dist, k):
    top, _, _ = _gumbel_top_k_rows(u, dist, k)
    return top, None


def _draw_threshold(u, dist, k):
    """The sets and their priority weights; at k = n there is no threshold
    and every inclusion probability is 1."""
    top, _, kappa = _gumbel_top_k_rows(u, dist, k)
    S = np.sort(top, axis=1)
    return S, _priority_weights(dist, S, None if k == dist.n else kappa[:, None])


def _draw_with_replacement(u, dist, k):
    """k draws per row; the paired law's rows hold its k draws and then
    their k baseline draws."""
    _check_draw_count(k)
    return _inverse_cdf(dist.probs, u), None


def _draw_det_split(u, dist, k):
    C = det_sum_and_sample_split(dist, k)
    weights = dist.probs.copy()
    weights[C] = 0.0
    return np.concatenate([np.tile(C, (len(u), 1)), _inverse_cdf(weights, u)], axis=1), None


def _draw_single(u, dist, k):
    return _inverse_cdf(dist.probs, u), None


def _draw_full(u, dist, k):
    return np.tile(np.arange(dist.n), (len(u), 1)), None


SET = Law(_draw_set, lambda k, n: k, lambda k, n: n)
ORDERED = Law(_draw_ordered, lambda k, n: k, lambda k, n: n)
THRESHOLD = Law(_draw_threshold, lambda k, n: k, lambda k, n: n)
WITH_REPLACEMENT = Law(_draw_with_replacement, lambda k, n: k, lambda k, n: max(k, 0))
PAIRED = Law(_draw_with_replacement, lambda k, n: 2 * k, lambda k, n: max(2 * k, 0))
DET_SPLIT = Law(_draw_det_split, lambda k, n: k, lambda k, n: 1)
SINGLE = Law(_draw_single, lambda k, n: 1, lambda k, n: 1)
FULL = Law(_draw_full, lambda k, n: n, lambda k, n: 0)

# Output kinds: a value estimate of E[f], a logit gradient, or a logit
# gradient plus the pathwise term of an objective that depends on the logits.
VALUE = "value"
GRADIENT = "gradient"
PATHWISE = "gradient+pathwise"


class EstimatorSpec(NamedTuple):
    law: Law
    coefs: Callable
    output: str
    # Smallest k with finite variance.  Only threshold-law estimators set it
    # above 1: their importance weights p/q are heavy-tailed.
    finite_var_k: int = 1


ESTIMATORS = {
    EXACT: EstimatorSpec(FULL, _posterior_coefs, GRADIENT),
    SINGLE_SAMPLE: EstimatorSpec(SINGLE, _reinforce_coefs, VALUE),
    UNORDERED_SET: EstimatorSpec(SET, _posterior_coefs, VALUE),
    UNORDERED_SET_PG: EstimatorSpec(SET, _posterior_coefs, GRADIENT),
    UNORDERED_SET_PG_BL: EstimatorSpec(SET, _uspg_baseline_coefs, GRADIENT),
    FULL_UNORDERED_SET_PG: EstimatorSpec(SET, _posterior_coefs, PATHWISE),
    DET_SUM_AND_SAMPLE: EstimatorSpec(DET_SPLIT, _det_sas_coefs, VALUE),
    IMPORTANCE_WEIGHTED: EstimatorSpec(THRESHOLD, _iw_coefs, VALUE, finite_var_k=2),
    IW_PG: EstimatorSpec(THRESHOLD, _iw_coefs, GRADIENT, finite_var_k=2),
    IW_PG_BL: EstimatorSpec(THRESHOLD, _iw_baseline_coefs, GRADIENT, finite_var_k=4),
    IW_PG_NORM: EstimatorSpec(THRESHOLD, _iw_normalized_coefs, GRADIENT),
    REINFORCE_WR: EstimatorSpec(WITH_REPLACEMENT, _reinforce_coefs, GRADIENT),
    REINFORCE_WR_BL: EstimatorSpec(WITH_REPLACEMENT, _reinforce_baseline_coefs, GRADIENT),
    REINFORCE_SAMPLED_BL: EstimatorSpec(PAIRED, _paired_baseline_coefs, GRADIENT),
    RISK: EstimatorSpec(SET, _risk_coefs, GRADIENT),
    RISK_BL_FORM: EstimatorSpec(SET, _risk_baseline_coefs, GRADIENT),
}


def estimator_spec(estimator_id: str) -> EstimatorSpec:
    """The table entry of an id; ``stoch-sum-and-sample-m{m}`` for any m."""
    spec = ESTIMATORS.get(estimator_id)
    if spec is not None:
        return spec
    m = parse_stoch_sas(estimator_id)
    if m is None:
        raise ValueError(f"unknown estimator {estimator_id!r}")
    return EstimatorSpec(ORDERED, functools.partial(_stoch_sas_coefs, m=m), VALUE)


def _estimate(spec: EstimatorSpec, dist: CategoricalDist, points, obj, r=None):
    """The estimates of a (B, k) batch of samples: B values for value
    estimators, else a (B, n) array of logit gradients."""
    if spec.output != VALUE:
        _require_logits(dist)
    if spec.output == PATHWISE and not obj.has_param_grad:
        raise NoPathwiseGradient("objective provides no parameter gradient")
    elements, coefs = spec.coefs(dist, points, obj.values_at(points).reshape(points.shape), r)
    if spec.output == VALUE:
        return coefs.sum(axis=1)
    grad = _score_sum(dist, elements, coefs)
    if spec.output == PATHWISE:
        # The estimators are linear in f, so their weights are the coefs at f = 1.
        _, w = spec.coefs(dist, points, np.ones(points.shape), r)
        for col, ws in zip(elements.T, w.T):
            grad = grad + ws[:, None] * np.array([obj.param_grad_at(s) for s in col.tolist()])
    return grad


def _estimate_one(spec: EstimatorSpec, dist: CategoricalDist, points, obj, r=None):
    """One sample's estimate, the B = 1 row of ``_estimate``: a float for
    value estimators, else the logit gradient."""
    out = _estimate(spec, dist, points[None], obj, None if r is None else r[None])[0]
    return float(out) if spec.output == VALUE else out


def _grad_estimate(estimator_id, dist, points, f, k, r=None) -> GradEstimate:
    spec = ESTIMATORS[estimator_id]
    grad = _estimate_one(spec, dist, points, as_objective(f), r)
    return GradEstimate(grad, estimator_id, k=k, evals=spec.law.evals(k, dist.n))


# ---------------------------------------------------------------------------
# value estimators


def unordered_set_estimate(dist: CategoricalDist, S, f) -> float:
    """sum_{s in S} p(s) R(S, s) f(s): the conditional mean of f at the first
    draw given the unordered sample, hence unbiased for E[f]."""
    return _estimate_one(ESTIMATORS[UNORDERED_SET], dist, _index_row(S, dist.n), as_objective(f))


def stoch_sum_and_sample(dist: CategoricalDist, B, f, m: int = 1) -> float:
    """Sum the first k-m drawn terms exactly; estimate the remainder from the
    last m draws via the restricted unordered set estimator."""
    spec = estimator_spec(stoch_sas_id(m))
    return _estimate_one(spec, dist, _index_row(B, dist.n, sets=False), as_objective(f))


def det_sum_and_sample(dist: CategoricalDist, f, k: int, rng: Rng) -> float:
    """Sum the top k-1 categories by probability exactly and draw one sample
    from the renormalized remainder."""
    spec = ESTIMATORS[DET_SUM_AND_SAMPLE]
    points, _ = spec.law.draw(rng.generator.random((1, spec.law.uniforms(k, dist.n))), dist, k)
    return _estimate_one(spec, dist, points[0], as_objective(f))


def importance_weighted(dist: CategoricalDist, S, kappa, f) -> float:
    """Priority-sampling estimate sum_{s in S} p(s)/q(s, kappa) f(s)."""
    elements, r = importance_weights(dist, S, kappa)
    return _estimate_one(ESTIMATORS[IMPORTANCE_WEIGHTED], dist, elements, as_objective(f), r)


# ---------------------------------------------------------------------------
# policy-gradient estimators


def uspg(dist: CategoricalDist, S, f) -> GradEstimate:
    """Unordered-set policy gradient: sum_s grad-p(s) R(S, s) f(s)."""
    S = _index_row(S, dist.n)
    return _grad_estimate(UNORDERED_SET_PG, dist, S, f, len(S))


def uspg_baseline(dist: CategoricalDist, S, f) -> GradEstimate:
    """Unordered-set policy gradient with its built-in control variate.

    Each f(s) is centered by a leave-one-out estimate of E[f] built from the
    other elements via second-order ratios; the baseline is treated as a
    constant (no gradient flows through it), which keeps the estimator
    unbiased.
    """
    S = _index_row(S, dist.n)
    return _grad_estimate(UNORDERED_SET_PG_BL, dist, S, f, len(S))


def uspg_baseline_control_variate(dist: CategoricalDist, S, f) -> np.ndarray:
    """The subtracted control-variate term of the baseline estimator,
    sum_s grad-p(s) R(S, s) * baseline(s); its expectation over S is zero."""
    _require_logits(dist)
    S = _index_row(S, dist.n)[None]
    return _control_variate(dist, S, as_objective(f).values_at(S)[None])[0]


def _control_variate(dist: CategoricalDist, S, fv) -> np.ndarray:
    """``uspg_baseline_control_variate`` of each row of a (B, k) batch of sets."""
    elements, w, b = _baseline_terms(dist, S, fv)
    return _score_sum(dist, elements, w * b)


def fuspg(dist: CategoricalDist, S, f) -> GradEstimate:
    """Unordered-set policy gradient plus the pathwise term for objectives
    that depend on the parameters: sum_s R(S, s) grad(p(s) f(s))."""
    S = _index_row(S, dist.n)
    return _grad_estimate(FULL_UNORDERED_SET_PG, dist, S, f, len(S))


def reinforce_wr(dist: CategoricalDist, X, f, baseline: bool = True) -> GradEstimate:
    """REINFORCE on k independent draws, optionally centering each term by
    the mean objective of the other k-1 draws."""
    X = _index_row(X, dist.n, sets=False)
    if len(X) < 1:
        raise InvalidSampleSize("need at least one sample")
    eid = REINFORCE_WR_BL if baseline else REINFORCE_WR
    return _grad_estimate(eid, dist, X, f, len(X))


def reinforce_sampled_baseline(dist: CategoricalDist, X, X_baseline, f) -> GradEstimate:
    """REINFORCE where each draw is centered by an independent paired draw;
    consumes 2k objective evaluations."""
    X = _index_row(X, dist.n, sets=False)
    X_baseline = _index_row(X_baseline, dist.n, sets=False)
    if len(X) != len(X_baseline):
        raise BaselineSizeMismatch(f"{len(X)} samples vs {len(X_baseline)} baseline samples")
    points = np.concatenate([X, X_baseline])
    return _grad_estimate(REINFORCE_SAMPLED_BL, dist, points, f, len(X))


def risk_grad(dist: CategoricalDist, S, f, form: str = "direct") -> GradEstimate:
    """Biased gradient of the self-normalized objective sum over the sample.

    ``direct`` differentiates p(s) / sum_{s'} p(s') explicitly, including the
    gradient through the normalizer; ``baseline`` evaluates the algebraically
    identical form in which the normalizer gradient appears as a built-in
    baseline.
    """
    eid = {"direct": RISK, "baseline": RISK_BL_FORM}.get(form)
    if eid is None:
        raise ValueError(f"form must be 'direct' or 'baseline', got {form!r}")
    S = _index_row(S, dist.n)
    return _grad_estimate(eid, dist, S, f, len(S))


def iwpg(
    dist: CategoricalDist,
    S,
    kappa,
    f,
    baseline: bool = True,
    normalized: bool = False,
) -> GradEstimate:
    """Importance-weighted policy gradient from a Gumbel top-k sample and its
    threshold.

    Without baseline this is the plain priority-sampling gradient (unbiased).
    With baseline, each term is reweighted by 1 - p(s) + p(s)/q(s) to correct
    for the sample-dependent baseline, keeping it unbiased.  The normalized
    variant divides by per-term normalizers (biased, lower variance).
    """
    elements, r = importance_weights(dist, S, kappa)
    eid = IW_PG_NORM if normalized else IW_PG_BL if baseline else IW_PG
    return _grad_estimate(eid, dist, elements, f, len(elements), r)
