"""Sampling with and without replacement: sequential draws, Gumbel top-k, and
a stochastic beam search over factorized distributions.

Every sampler accepts an optional ``size``; when given, index arrays of shape
``(size, k)`` (plus threshold arrays where applicable) are returned instead of
single-sample dataclasses, sharing the same code path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import CategoricalDist, FactorizedDist
from .errors import InvalidSampleSize

_U_FLOOR = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class OrderedSample:
    """k distinct domain indices in draw order.

    When generated through Gumbel perturbation, ``perturbed_logprobs`` holds
    the corresponding perturbed log-probabilities (strictly decreasing).
    """

    indices: np.ndarray
    perturbed_logprobs: np.ndarray | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        if len(np.unique(idx)) != len(idx):
            raise ValueError("ordered sample indices must be distinct")
        if self.perturbed_logprobs is not None:
            g = np.asarray(self.perturbed_logprobs, dtype=float)
            g.setflags(write=False)
            object.__setattr__(self, "perturbed_logprobs", g)
            if np.any(np.diff(g) >= 0):
                raise ValueError("perturbed log-probabilities must be strictly decreasing")

    @property
    def k(self) -> int:
        return len(self.indices)

    def to_unordered(self) -> "UnorderedSample":
        return UnorderedSample(np.sort(self.indices))


@dataclass(frozen=True)
class UnorderedSample:
    """k distinct domain indices, sorted increasing (order discarded)."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        if np.any(np.diff(idx) <= 0):
            raise ValueError("unordered sample indices must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Threshold:
    """The (k+1)-th largest perturbed log-probability from a Gumbel top-k draw.

    ``kappa is None`` is the sentinel for a full-domain draw (k = n), where no
    threshold exists and downstream inclusion probabilities are exactly 1.
    """

    kappa: float | None

    @property
    def is_sentinel(self) -> bool:
        return self.kappa is None


class Rng:
    """Deterministic, splittable random stream.

    The stream is fully determined by ``(seed, spawn_key)``; ``split(i)``
    yields an independent child stream, so parallel replications seeded as
    ``Rng(seed).split(replicate)`` are reproducible regardless of scheduling.
    ``Rng(seed, (replicate,))`` is the same child stream, built without the
    parent's generator.
    """

    def __init__(self, seed: int, spawn_key: tuple = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(s) for s in spawn_key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key))
        )

    def split(self, i: int) -> "Rng":
        return Rng(self.seed, self.spawn_key + (int(i),))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform_open(self, size) -> np.ndarray:
        """Uniforms on the open interval (0, 1): safe under -log(-log(u))."""
        return np.maximum(self._gen.random(size), _U_FLOOR)

    def __repr__(self):
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"


def _check_k(k: int, n: int):
    if not 1 <= k <= n:
        raise InvalidSampleSize(f"k={k} outside [1, {n}]")


def gumbel_perturb(rng: Rng, dist: CategoricalDist, size: int | None = None) -> np.ndarray:
    """Perturbed log-probabilities: log p(i) plus i.i.d. standard Gumbel noise."""
    m = 1 if size is None else size
    u = rng.uniform_open((m, dist.n))
    g = dist.log_probs + (-np.log(-np.log(u)))
    return g[0] if size is None else g


def _top_k_of(perturbed: np.ndarray, k: int):
    """Top-k indices per row by decreasing value; ties go to the lower index."""
    order = np.argsort(-perturbed, axis=1, kind="stable")
    n = perturbed.shape[1]
    rows = np.arange(perturbed.shape[0])[:, None]
    top = order[:, :k]
    top_vals = perturbed[rows, top]
    if k < n:
        kappa = perturbed[rows[:, 0], order[:, k]]
    else:
        kappa = np.full(perturbed.shape[0], np.nan)
    return top, top_vals, kappa


def gumbel_top_k(rng: Rng, dist: CategoricalDist, k: int, size: int | None = None):
    """Ordered sample without replacement via the Gumbel top-k trick.

    Returns ``(OrderedSample, Threshold)``, or for batched calls the triple
    ``(indices, perturbed_values, kappas)`` with ``kappas`` NaN when k = n.
    """
    _check_k(k, dist.n)
    g = gumbel_perturb(rng, dist, size=size if size is not None else 1)
    g = np.atleast_2d(g)
    top, vals, kappa = _top_k_of(g, k)
    if size is not None:
        return top, vals, kappa
    threshold = Threshold(None) if k == dist.n else Threshold(float(kappa[0]))
    return OrderedSample(top[0], vals[0]), threshold


def sequential_swor(rng: Rng, dist: CategoricalDist, k: int, size: int | None = None):
    """Ordered sample without replacement by k successive renormalized draws."""
    _check_k(k, dist.n)
    m = 1 if size is None else size
    probs = dist.probs
    weights = np.tile(probs, (m, 1))
    out = np.empty((m, k), dtype=int)
    rows = np.arange(m)
    for step in range(k):
        # The first cdf entry strictly above u * cdf[-1] always carries weight.
        cdf = np.cumsum(weights, axis=1)
        u = rng.generator.random(m) * cdf[:, -1]
        chosen = np.argmax(cdf > u[:, None], axis=1)
        out[:, step] = chosen
        weights[rows, chosen] = 0.0
    if size is None:
        return OrderedSample(out[0])
    return out


def _conditioned_gumbels(target: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Shift sibling Gumbels so their maximum equals ``target``.

    Stable log-space form of -log(exp(-T) - exp(-Z) + exp(-g)) with
    Z = max(g); the argmax maps exactly to T.
    """
    z = np.max(g, axis=-1, keepdims=True)
    t = target[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = t - g + np.log1p(-np.exp(g - z))
    return t - np.maximum(v, 0.0) - np.log1p(np.exp(-np.abs(v)))


def stochastic_beam_search(rng: Rng, fd: FactorizedDist, k: int, size: int | None = None):
    """Sample k distinct joint outcomes of a factorized distribution whose
    unordered-set law matches Gumbel top-k over the flattened categorical.

    Expands the sequence tree one dimension at a time, resampling child
    Gumbels conditioned on their maximum matching the parent's perturbed
    value, and keeping the top k+1 partial sequences (the extra slot yields
    the exact threshold).  Returns ``(OrderedSample, Threshold)``, or the
    batched triple ``(indices, perturbed_values, kappas)``.
    """
    n_total = fd.domain_size
    _check_k(k, n_total)
    m = 1 if size is None else size
    width_target = min(k + 1, n_total)

    # Root: total log-probability 0, perturbed value a standard Gumbel draw.
    logp = np.zeros((m, 1))
    gum = -np.log(-np.log(rng.uniform_open((m, 1))))
    joint = np.zeros((m, 1), dtype=np.int64)

    for d in range(fd.num_dims):
        lp_dim = fd.dim_log_probs(d)
        c = len(lp_dim)
        w = logp.shape[1]
        cand_logp = logp[:, :, None] + lp_dim[None, None, :]
        noise = -np.log(-np.log(rng.uniform_open((m, w, c))))
        g = cand_logp + noise
        g_cond = _conditioned_gumbels(gum, g)

        cand_logp = cand_logp.reshape(m, w * c)
        g_cond = g_cond.reshape(m, w * c)
        cand_joint = (joint[:, :, None] * c + np.arange(c)[None, None, :]).reshape(m, w * c)

        keep = min(width_target, w * c)
        top, vals, _ = _top_k_of(g_cond, keep)
        rows = np.arange(m)[:, None]
        logp = cand_logp[rows, top]
        gum = vals
        joint = cand_joint[rows, top]

    idx = joint[:, :k]
    vals = gum[:, :k]
    if gum.shape[1] > k:
        kappa = gum[:, k]
    else:
        kappa = np.full(m, np.nan)
    if size is not None:
        return idx, vals, kappa
    threshold = Threshold(None) if k == n_total else Threshold(float(kappa[0]))
    return OrderedSample(idx[0], vals[0]), threshold


def sample_with_replacement(rng: Rng, dist: CategoricalDist, k: int) -> np.ndarray:
    """k i.i.d. draws from the categorical (indices, duplicates possible)."""
    if k < 1:
        raise InvalidSampleSize(f"k={k} must be positive")
    u = rng.generator.random(k)
    cdf = np.cumsum(dist.probs)
    return np.searchsorted(cdf, u * cdf[-1], side="right").clip(0, dist.n - 1)
