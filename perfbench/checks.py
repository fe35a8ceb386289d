"""Correctness gates.  They run after the timed loop, never inside it, and
their verdicts feed ``pass_ratio`` and the ``failed`` count."""
from __future__ import annotations

import math

import numpy as np

# A policy-gradient op fails when its gradient is off the reference by more
# than this, relative to the reference's largest entry.  The default
# quadrature (1000 nodes) that the n = 1000 fallbacks use agrees with the
# reference to ~3e-9 and inclusion-exclusion to ~1e-13, while the subset zeta
# path is off by 1e-4 to 1e-1 at k >= 16; 1e-6 sits two decades from both.
PG_REL_TOL = 1e-6
REFERENCE_NODES = 4001
NAIVE_MAX_K = 6

# Toy-sweep variance gate (see ``toy_cell_verdict``).
VAR_Z = 6.0
ZERO_VAR = 1e-20


def score_sum(probs: np.ndarray, elements: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_e coefs[e] * (onehot(e) - probs): the softmax score-weighted sum."""
    g = np.zeros(len(probs))
    np.add.at(g, elements, coefs)
    return g - float(np.sum(coefs)) * probs


def expected_grad(estimator: str, dist, elements, f, ratios, second=None, kappa=None):
    """The gradient an estimator must return, rebuilt from the paper's formulas
    with the given ratio vector (and second-order matrix for the baseline)."""
    p = np.exp(dist.log_probs[elements])
    fv = f[elements]
    if estimator == "uspg":
        coefs = p * ratios * fv
    elif estimator == "uspg_baseline":
        coefs = p * ratios * (fv - second @ (p * fv))
    elif estimator == "iwpg":
        q = -np.expm1(-np.exp(np.minimum(dist.log_probs[elements] - kappa, 700.0)))
        r = p / q
        coefs = r * (fv * (1.0 - p + r) - float(np.dot(r, fv)))
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return score_sum(np.exp(dist.log_probs), elements, coefs)


def grad_error(grad: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    return float(np.max(np.abs(np.asarray(grad) - reference))) / scale


def reference_grads(setprob, estimator: str, dist, elements, f, kappa):
    """Reference gradients: integral backend on a fine grid, plus the
    permutation-sum backend for sets of at most NAIVE_MAX_K elements."""
    if estimator == "iwpg":
        return [expected_grad(estimator, dist, elements, f, None, kappa=kappa)]
    order = 2 if estimator == "uspg_baseline" else 1
    backends = [("integral", {"nodes": REFERENCE_NODES})]
    if len(elements) <= NAIVE_MAX_K:
        backends.append(("naive", {}))
    refs = []
    for backend, extra in backends:
        lr = setprob.loo_ratios(dist, elements, order=order, backend=backend, **extra)
        refs.append(expected_grad(estimator, dist, lr.elements, f, lr.ratios, lr.second_order))
    return refs


def pg_op_fails(setprob, op: dict) -> bool:
    """Verdict on one policy-gradient op record (see workloads.PolicyGradient)."""
    if op.get("error") is not None:
        return True
    grad = op["grad"]
    if not np.all(np.isfinite(grad)):
        return True
    elements = np.sort(np.asarray(op["indices"], dtype=int))
    if len(np.unique(elements)) != len(elements) or len(elements) != op["k"]:
        return True
    refs = reference_grads(setprob, op["estimator"], op["dist"], elements, op["f"], op["kappa"])
    return any(grad_error(grad, ref) > PG_REL_TOL for ref in refs)


def toy_cell_verdict(unit_vars, replications: int, exact_var) -> bool:
    """True when the pooled variance of one sweep cell is consistent with its
    exact value.

    The unit variances (one per sweep repetition, ``replications`` draws
    each) are pooled; their mean is unbiased for the exact variance.  It may
    exceed the exact value by at most VAR_Z standard errors, the error being
    the larger of the normal-theory value sigma^2 sqrt(2 / (N - 1)) over the N
    pooled draws and the spread between repetitions; a large excursion in one
    repetition widens that spread too, so heavy tails do not trip it.  The
    lower side is held only to a positive variance: at eta = -4 the toy's
    estimates have a sample kurtosis of up to ~400 (importance-weighted ones
    an infinite fourth moment), so at N ~ 10^3 the sample variance is usually
    far below sigma^2, and bounding it from below would need the fourth
    moment, which ``bench.toy_exact_moments`` does not give.  Cells whose
    exact variance is zero must reproduce it to ZERO_VAR; cells whose exact
    variance is infinite or not enumerable are checked for finiteness only.
    """
    v = np.asarray(unit_vars, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        return False
    if exact_var is None or not math.isfinite(exact_var):
        return True
    if exact_var <= ZERO_VAR:
        return bool(np.max(v) <= ZERO_VAR)
    se = exact_var * math.sqrt(2.0 / max(len(v) * replications - 1, 1))
    if len(v) > 1:
        se = max(se, float(np.std(v, ddof=1)) / math.sqrt(len(v)))
    mean = float(np.mean(v))
    return 0.0 < mean <= exact_var + VAR_Z * se
