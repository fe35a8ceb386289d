"""Finite discrete distributions with exact log-probabilities and analytic gradients.

Two forms are supported: a flat categorical over ``n`` outcomes, and a
factorized product of independent categoricals that can be flattened into a
single categorical over the product domain (row-major index order, first
dimension most significant).

All probability arithmetic is kept in the log domain; probabilities are only
materialized at API edges.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateRestriction,
    DomainTooLarge,
    InvalidIndices,
    InvalidLogits,
    InvalidRestriction,
    NoParameterization,
)

# Smallest probability a support point may carry.  Restricted distributions
# divide by the mass left outside the excluded set, so no outcome is allowed
# to reach exactly zero.
PROB_FLOOR = 1e-300
LOG_PROB_FLOOR = math.log(PROB_FLOOR)

FLATTEN_CAP = 10**6


def log_sum_exp(values: np.ndarray) -> float:
    """Stable log(sum(exp(values))); returns -inf for an empty array."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -math.inf
    hi = float(np.max(values))
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(float(np.sum(np.exp(values - hi))))


def _index_rows(sample, n: int, *, sets: bool = True, ordered: bool = False):
    """The one index check of every public entry point.

    ``sample`` is a sample object (anything with ``.indices``), a 1-D
    array-like (one sample) or a (B, k) array (B samples, one per row).
    Returns the samples as a (B, k) int array, one row for a 1-D input, and
    whether the input was one sample.  Set rows (``sets``) must hold
    distinct elements and come back sorted, unless ``ordered`` (draws
    without replacement), when they keep their order; draws
    (``sets=False``) keep their order and may repeat.  Raises InvalidIndices
    unless every index lies in range(n).  The checks are whole-array
    operations: batches of hundreds of rows are the common input.
    """
    idx = np.asarray(getattr(sample, "indices", sample), dtype=int)
    single = idx.ndim != 2
    rows = idx.reshape(1, -1) if single else idx
    if not rows.size:
        return rows, single
    if sets:
        sorted_rows = np.sort(rows, axis=1)
        repeats = sorted_rows[:, 1:] == sorted_rows[:, :-1]
        if np.count_nonzero(repeats):
            bad = sorted_rows[repeats.any(axis=1)][0].tolist()
            raise InvalidIndices(f"set elements must be distinct, got {bad}")
        if not ordered:
            rows = sorted_rows
    if rows.min() < 0 or rows.max() >= n:
        raise InvalidIndices(f"set elements out of range for domain of size {n}")
    return rows, single


def _index_row(sample, n: int, *, sets: bool = True, ordered: bool = False) -> np.ndarray:
    """The indices of one sample, checked by ``_index_rows``, as a 1-D array;
    a (B, k) array with B != 1 is not one sample."""
    rows, _ = _index_rows(sample, n, sets=sets, ordered=ordered)
    if len(rows) != 1:
        raise InvalidIndices(f"expected one sample, got {len(rows)} rows")
    return rows[0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CategoricalDist:
    """Normalized categorical distribution stored as log-probabilities.

    ``logits`` is kept when the distribution was built from a softmax
    parameterization; gradient operations require it.  Instances are
    immutable and safe for concurrent reads.
    """

    log_probs: np.ndarray
    logits: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "log_probs", _frozen(self.log_probs))
        if self.logits is not None:
            object.__setattr__(self, "logits", _frozen(self.logits))

    @property
    def n(self) -> int:
        return self.log_probs.shape[0]

    @property
    def domain_size(self) -> int:
        return self.n

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def log_prob(self, x: int) -> float:
        """log p(x), by plain numpy indexing: this accessor sits on internal
        paths whose indices are already checked, so it does not check x
        (a negative x counts from the end)."""
        return float(self.log_probs[x])

    def prob(self, x: int) -> float:
        """p(x), unchecked like ``log_prob``."""
        return math.exp(self.log_prob(x))

    def has_logits(self) -> bool:
        return self.logits is not None

    def complement_log_mass(self, C: Iterable[int]) -> float:
        """log of the probability mass outside C, via logsumexp over D \\ C.

        C is used as a numpy index, unchecked: the kernels call this with
        indices that ``_index_rows`` has already checked.  The arithmetic is
        ``log_sum_exp``'s, reduced by the array methods, which skip the
        Python wrappers of ``np.max`` and ``np.sum`` on this per-call path."""
        mask = np.ones(self.n, dtype=bool)
        idx = np.fromiter(C, dtype=int, count=-1) if not isinstance(C, np.ndarray) else C
        if len(idx):
            mask[idx] = False
        values = self.log_probs[mask]
        if not values.size:
            return -math.inf
        hi = float(values.max())
        if hi == -math.inf:
            return -math.inf
        return hi + math.log(float(np.exp(values - hi).sum()))

    def to_dict(self) -> dict:
        if self.logits is not None:
            return {"logits": [float(v) for v in self.logits]}
        return {"logits": [float(v) for v in self.log_probs]}

    @staticmethod
    def from_dict(obj: dict) -> "CategoricalDist":
        return from_logits(np.asarray(obj["logits"], dtype=float))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CategoricalDist":
        return CategoricalDist.from_dict(json.loads(text))


def from_logits(logits) -> CategoricalDist:
    """Build a normalized categorical from unnormalized logits.

    Log-probabilities are floored so that every outcome keeps probability at
    least ``PROB_FLOOR``; this keeps restricted distributions well defined.
    """
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1 or logits.size < 1 or not np.all(np.isfinite(logits)):
        raise InvalidLogits(f"logits must be a non-empty finite vector, got {logits!r}")
    log_probs = logits - log_sum_exp(logits)
    if np.min(log_probs) < LOG_PROB_FLOOR:
        log_probs = np.maximum(log_probs, LOG_PROB_FLOOR)
        log_probs = log_probs - log_sum_exp(log_probs)
    return CategoricalDist(log_probs=log_probs, logits=logits)


def from_probs(probs) -> CategoricalDist:
    """Build a categorical from (possibly unnormalized) probabilities."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 1 or not np.all(np.isfinite(probs)) or np.any(probs <= 0):
        raise InvalidLogits(f"probabilities must be a positive finite vector, got {probs!r}")
    return from_logits(np.log(probs))


def restricted_log_prob(dist: CategoricalDist, C: Iterable[int], x: int) -> float:
    """log p(x | x not in C): the log-probability under the distribution
    renormalized over the domain with C removed.

    The denominator is computed as a logsumexp over the complement of C, which
    stays accurate even when C carries almost all mass.
    """
    C = _index_row(list(C), dist.n)
    (x,) = _index_row(int(x), dist.n)
    if x in C.tolist():
        raise InvalidRestriction(f"element {x} lies in the excluded set")
    log_rest = dist.complement_log_mass(C)
    if log_rest < math.log(1e-12):
        raise DegenerateRestriction("excluded set carries all probability mass")
    return dist.log_prob(x) - log_rest


def grad_log_prob(dist: CategoricalDist, x: int) -> np.ndarray:
    """Gradient of log p(x) with respect to the logits: onehot(x) - probs."""
    if not dist.has_logits():
        raise NoParameterization("distribution has no logits")
    (x,) = _index_row(int(x), dist.n)
    g = -dist.probs
    g[x] += 1.0
    return g


@dataclass(frozen=True)
class FactorizedDist:
    """Product of independent categoricals over a multi-dimensional domain.

    The joint domain is indexed row-major: with per-dimension sizes
    (k_0, ..., k_{K-1}), the joint index of assignment (i_0, ..., i_{K-1}) is
    sum_d i_d * prod_{d' > d} k_{d'}.
    """

    per_dim_logits: tuple = field()

    def __post_init__(self):
        dims = tuple(_frozen(np.asarray(d, dtype=float)) for d in self.per_dim_logits)
        if not dims:
            raise InvalidLogits("need at least one dimension")
        for d in dims:
            if d.ndim != 1 or d.size < 1 or not np.all(np.isfinite(d)):
                raise InvalidLogits("each dimension needs a finite logits vector")
        object.__setattr__(self, "per_dim_logits", dims)

    @property
    def num_dims(self) -> int:
        return len(self.per_dim_logits)

    @property
    def dim_sizes(self) -> tuple:
        return tuple(len(d) for d in self.per_dim_logits)

    @property
    def domain_size(self) -> int:
        return int(np.prod(self.dim_sizes))

    def dim_log_probs(self, d: int) -> np.ndarray:
        lg = self.per_dim_logits[d]
        return lg - log_sum_exp(lg)

    def index_to_assignment(self, idx: int) -> tuple:
        """The per-dimension assignment of joint index ``idx``; raises
        InvalidIndices unless 0 <= idx < domain_size."""
        (idx,) = _index_row(int(idx), self.domain_size, sets=False).tolist()
        out = []
        for size in reversed(self.dim_sizes):
            out.append(idx % size)
            idx //= size
        return tuple(reversed(out))

    def assignment_to_index(self, assignment: Sequence[int]) -> int:
        """The joint index of a per-dimension assignment; raises
        InvalidIndices unless it has one entry per dimension, each in range
        of its dimension."""
        values = [int(a) for a in assignment]
        if len(values) != self.num_dims or not all(
            0 <= a < size for a, size in zip(values, self.dim_sizes)
        ):
            raise InvalidIndices(
                f"assignment {values} does not fit dimension sizes {self.dim_sizes}"
            )
        idx = 0
        for a, size in zip(values, self.dim_sizes):
            idx = idx * size + a
        return idx

    def flatten(self, cap: int = FLATTEN_CAP) -> CategoricalDist:
        """Joint categorical over the product domain, row-major order."""
        if self.domain_size > cap:
            raise DomainTooLarge(
                f"product domain has {self.domain_size} outcomes, cap is {cap}"
            )
        joint = np.zeros(1)
        for d in range(self.num_dims):
            joint = np.add.outer(joint, self.dim_log_probs(d)).ravel()
        return from_logits(joint)

    def to_dict(self) -> dict:
        return {"dims": [[float(v) for v in d] for d in self.per_dim_logits]}

    @staticmethod
    def from_dict(obj: dict) -> "FactorizedDist":
        return FactorizedDist(tuple(np.asarray(d, dtype=float) for d in obj["dims"]))


def dist_from_dict(obj: dict):
    """Deserialize either distribution form from its JSON object."""
    if "logits" in obj:
        return CategoricalDist.from_dict(obj)
    if "dims" in obj:
        return FactorizedDist.from_dict(obj)
    raise InvalidLogits(f"unrecognized distribution object: {sorted(obj)}")


class Objective:
    """Objective f over a finite domain, optionally with a parameter gradient.

    ``values`` may be a table (array over the domain) or a callable
    ``index -> float``.  ``param_grad`` optionally maps an index to the
    gradient of f at that outcome with respect to the distribution
    parameters (the zero vector when f does not depend on them).
    """

    def __init__(self, values, param_grad=None):
        if callable(values):
            self._table = None
            self._fn = values
        else:
            self._table = np.asarray(values, dtype=float)
            if not np.all(np.isfinite(self._table)):
                raise ValueError("objective values must be finite")
            self._fn = None
        if param_grad is None or callable(param_grad):
            self._grad_table = None
            self._grad_fn = param_grad
        else:
            self._grad_table = np.asarray(param_grad, dtype=float)
            self._grad_fn = None
        self._cache: dict = {}
        self._grad_cache: dict = {}

    @property
    def has_param_grad(self) -> bool:
        return self._grad_table is not None or self._grad_fn is not None

    def value(self, x: int) -> float:
        """f(x), unchecked: a table is indexed with plain numpy indexing (a
        negative x counts from the end), since the estimators call this with
        points ``_index_rows`` has already checked."""
        if self._table is not None:
            return float(self._table[x])
        x = int(x)
        if x not in self._cache:
            self._cache[x] = float(self._fn(x))
        return self._cache[x]

    def values_at(self, idx) -> np.ndarray:
        """f at each index of ``idx`` (flattened), as a float array;
        unchecked like ``value``."""
        idx = np.asarray(idx, dtype=int).ravel()
        if self._table is not None:
            return self._table[idx]
        return np.array([self.value(i) for i in idx.tolist()], dtype=float)

    def param_grad_at(self, x: int) -> np.ndarray:
        """The parameter gradient of f at x; unchecked like ``value``."""
        if self._grad_table is not None:
            return np.asarray(self._grad_table[x], dtype=float)
        if self._grad_fn is None:
            raise ValueError("objective has no parameter gradient")
        x = int(x)
        if x not in self._grad_cache:
            self._grad_cache[x] = np.asarray(self._grad_fn(x), dtype=float)
        return self._grad_cache[x]


def as_objective(f) -> Objective:
    """Coerce an array, callable, or Objective into an Objective."""
    if isinstance(f, Objective):
        return f
    return Objective(f)
