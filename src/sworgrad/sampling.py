"""Sampling with and without replacement: sequential draws, Gumbel top-k, and
a stochastic beam search over factorized distributions.

Every sampler accepts an optional ``size``; when given, index arrays of shape
``(size, k)`` (plus threshold arrays where applicable) are returned instead of
single-sample dataclasses, sharing the same code path.

``gumbel_top_k`` and ``sample_with_replacement`` draw uniforms from their
``Rng`` and map them to samples with row transforms (``_gumbel_top_k_rows``
and ``_inverse_cdf``); the estimators' sampling laws apply the same
transforms to arrays of uniforms.  ``spawn_uniforms`` computes such an array
for many child streams ``Rng(seed, (key,))`` at once, every key below 2^32,
with the same bits as one generator per stream.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import CategoricalDist, FactorizedDist
from .errors import DomainTooLarge, InvalidSampleSize, InvalidStreamKey

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
        if len(set(idx.tolist())) != len(idx):
            raise ValueError("ordered sample indices must be distinct")
        if self.perturbed_logprobs is not None:
            g = np.asarray(self.perturbed_logprobs, dtype=float)
            g.setflags(write=False)
            object.__setattr__(self, "perturbed_logprobs", g)
            if (g[1:] >= g[:-1]).any():
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
        if (idx[1:] <= idx[:-1]).any():
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
    parent's generator.  It is numpy's PCG64 seeded by
    ``SeedSequence(seed, spawn_key=spawn_key)``; ``spawn_uniforms`` computes
    the leading doubles of many one-key child streams at once, bit for bit.
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


# ---------------------------------------------------------------------------
# batched child streams
#
# ``spawn_uniforms`` repeats numpy's seeding arithmetic on arrays: the
# SeedSequence entropy pool and its ``generate_state(4, uint64)``, PCG64's
# seeding, and its XSL-RR output.  The constants are numpy's
# (``numpy/random/bit_generator.pyx`` and ``pcg64.h``).

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _int_words(value: int) -> list:
    """SeedSequence's uint32 words of a non-negative int, least significant
    first; 0 is one word."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _hashmix(value, h, mult: int = _MULT_A):
    """SeedSequence's hash of a 32-bit word: the hashed word and the next
    hash constant.  ``value`` and ``h`` are ints or uint64 arrays of 32-bit
    words; ``generate_state`` hashes with ``_MULT_B``."""
    h_next = h * mult & _M32
    value = (value ^ h) * h_next & _M32
    return value ^ (value >> 16), h_next


def _mix(x, y):
    """SeedSequence's ``mix`` of pool word ``x`` with the hashed word ``y``."""
    value = (_MIX_MULT_L * x & _M32) - _MIX_MULT_R * y & _M32
    return value ^ (value >> 16)


def _hash_constants(h: int, mult: int, count: int) -> np.ndarray:
    """The constant before each of ``count`` successive hashes, as a
    read-only (count, 1) column: cached constants are shared by calls."""
    out = []
    for _ in range(count):
        out.append(h)
        h = h * mult & _M32
    return _frozen_words(out)[:, None]


def _frozen_words(values) -> np.ndarray:
    a = np.array(values, dtype=np.uint64)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """The entropy pool of ``SeedSequence(seed, spawn_key=(key,))`` before
    its last word, the key, is mixed in, and the hash constants of the
    key's four ``hashmix`` calls, as (4, 1) columns.  A spawn key pads the
    seed's words to the pool size."""
    words = _int_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    h = _INIT_A
    pool = []
    for w in words[:_POOL_SIZE]:
        mixed, h = _hashmix(w, h)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], mixed)
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], mixed)
    return _frozen_words(pool)[:, None], _hash_constants(h, _MULT_A, _POOL_SIZE)


# generate_state(4, uint64) hashes eight 32-bit words, cycling over the pool.
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _mul64(a, b):
    """(high, low) 64-bit words of the product of uint64 arrays a and b."""
    a_lo, a_hi = a & _M32, a >> 32
    b_lo, b_hi = b & _M32, b >> 32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), (mid << 32) | (ll & _M32)


@functools.lru_cache(maxsize=16)
def _jump_constants(count: int) -> tuple:
    """(high, low) uint64 limbs, shape (2, 1, count), of A_j and G_j for
    j < count: the PCG64 state that yields output j of a stream seeded with
    state word s and increment c is A_j s + G_j c (mod 2^128).  Seeding
    leaves M(s + c) + c and every output steps once first, so A_j = M^(j+2)
    and G_j = M^0 + ... + M^(j+2)."""
    a, g = [], []
    power, total = _PCG_MULT * _PCG_MULT & _M128, 1 + _PCG_MULT
    for _ in range(count):
        total = (total + power) & _M128
        a.append(power)
        g.append(total)
        power = power * _PCG_MULT & _M128
    return (_frozen_words([[[v >> 64 for v in a]], [[v >> 64 for v in g]]]),
            _frozen_words([[[v & _M64 for v in a]], [[v & _M64 for v in g]]]))


def spawn_uniforms(seed: int, keys, count: int) -> np.ndarray:
    """The first ``count`` doubles of each child stream ``Rng(seed, (key,))``.

    Row i of the (len(keys), count) result equals
    ``Rng(seed, (keys[i],)).generator.random(count)`` bit for bit, computed
    for all rows as numpy arrays with no generator built.  Each key must be
    one SeedSequence word, 0 <= key < 2^32, and the seed non-negative;
    anything else raises ``InvalidStreamKey``.
    """
    seed, count = int(seed), int(count)
    keys = np.asarray(keys)
    if keys.ndim != 1 or (keys.size and keys.dtype.kind not in "iu"):
        raise InvalidStreamKey(f"stream keys must be a 1-D integer array, got {keys!r}")
    if seed < 0 or (keys.size and (keys.min() < 0 or keys.max() > _M32)):
        raise InvalidStreamKey("the seed and every stream key must be non-negative "
                               "and each key below 2^32")
    if count < 0:
        raise InvalidStreamKey(f"count={count} must be non-negative")
    # The key, the last entropy word, is mixed into each pool word: row d of
    # these (4, B) arrays is pool word d.
    pool, h = _seed_pool(seed)
    mixed, _ = _hashmix(keys.astype(np.uint64), h)
    pool = _mix(pool, mixed)
    # generate_state(4, uint64): eight hashed words, paired little-endian.
    words, _ = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH, _MULT_B)
    state = words[0::2] | (words[1::2] << 32)
    # PCG64 takes state word s = (state[0], state[1]) and increment
    # c = 2 (state[2], state[3]) + 1; both products share one (2, B, count)
    # array.
    y_hi = np.stack([state[0], (state[2] << 1) | (state[3] >> 63)])[:, :, None]
    y_lo = np.stack([state[1], (state[3] << 1) | 1])[:, :, None]
    x_hi, x_lo = _jump_constants(count)
    hi, lo = _mul64(x_lo, y_lo)
    hi += x_hi * y_lo + x_lo * y_hi
    lo_sum = lo[0] + lo[1]
    hi = hi[0] + hi[1] + (lo_sum < lo[0])
    # XSL-RR output, then numpy's double (x >> 11) * 2^-53.
    x = hi ^ lo_sum
    rot = hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11).astype(float) * (1.0 / 9007199254740992.0)


def _check_k(k: int, n: int):
    if not 1 <= k <= n:
        raise InvalidSampleSize(f"k={k} outside [1, {n}]")


def _gumbel(u: np.ndarray) -> np.ndarray:
    """Standard Gumbel noise -log(-log(u)) from uniforms on [0, 1), each
    floored to the open interval as ``Rng.uniform_open`` does."""
    return -np.log(-np.log(np.maximum(u, _U_FLOOR)))


def gumbel_perturb(rng: Rng, dist: CategoricalDist, size: int | None = None) -> np.ndarray:
    """Perturbed log-probabilities: log p(i) plus i.i.d. standard Gumbel noise."""
    m = 1 if size is None else size
    g = dist.log_probs + _gumbel(rng.generator.random((m, dist.n)))
    return g[0] if size is None else g


def _top_k_of(perturbed: np.ndarray, k: int):
    """Top-k indices per row by decreasing value; ties go to the lower index."""
    order = np.argsort(-perturbed, axis=1, kind="stable")[:, :k + 1]
    vals = perturbed[np.arange(len(perturbed))[:, None], order]
    kappa = vals[:, k] if k < perturbed.shape[1] else np.full(len(perturbed), np.nan)
    return order[:, :k], vals[:, :k], kappa


def _gumbel_top_k_rows(u: np.ndarray, dist: CategoricalDist, k: int):
    """Gumbel top-k of each row of a (B, n) array of uniforms on [0, 1):
    the batched triple ``(indices, perturbed_values, kappas)`` of
    ``gumbel_top_k``, which draws its uniforms and calls this."""
    _check_k(k, dist.n)
    return _top_k_of(dist.log_probs + _gumbel(u), k)


def gumbel_top_k(rng: Rng, dist: CategoricalDist, k: int, size: int | None = None):
    """Ordered sample without replacement via the Gumbel top-k trick.

    Returns ``(OrderedSample, Threshold)``, or for batched calls the triple
    ``(indices, perturbed_values, kappas)`` with ``kappas`` NaN when k = n.
    """
    m = 1 if size is None else size
    top, vals, kappa = _gumbel_top_k_rows(rng.generator.random((m, dist.n)), dist, k)
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
    Z = max(g); the argmax maps exactly to T.  At the argmax the log1p term
    is -inf, so callers run this under ``np.errstate(divide="ignore",
    invalid="ignore")``.
    """
    z = g.max(axis=-1, keepdims=True)
    t = target[..., None]
    v = t - g + np.log1p(-np.exp(g - z))
    return t - np.maximum(v, 0.0) - np.log1p(np.exp(-np.abs(v)))


def stochastic_beam_search(rng: Rng, fd: FactorizedDist, k: int, size: int | None = None):
    """Sample k distinct joint outcomes of a factorized distribution whose
    unordered-set law matches Gumbel top-k over the flattened categorical.

    Expands the sequence tree one dimension at a time, resampling child
    Gumbels conditioned on their maximum matching the parent's perturbed
    value, and keeping the top k+1 partial sequences (the extra slot yields
    the exact threshold).  Returns ``(OrderedSample, Threshold)``, or the
    batched triple ``(indices, perturbed_values, kappas)``.  Raises
    DomainTooLarge when the domain has more than 2^63 outcomes, whose
    joint indices would not fit int64.
    """
    n_total = fd.domain_size
    _check_k(k, n_total)
    if n_total > 2**63:
        raise DomainTooLarge(
            f"product domain has {n_total} outcomes; joint indices fit at most 2^63"
        )
    m = 1 if size is None else size
    width_target = min(k + 1, n_total)
    rows = np.arange(m)[:, None]

    # Root: total log-probability 0, perturbed value a standard Gumbel draw.
    logp = np.zeros((m, 1))
    gum = _gumbel(rng.generator.random((m, 1)))
    joint = np.zeros((m, 1), dtype=np.int64)

    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(fd.num_dims):
            lp_dim = fd.dim_log_probs(d)
            c = len(lp_dim)
            w = logp.shape[1]
            cand_logp = logp[:, :, None] + lp_dim
            g = cand_logp + _gumbel(rng.generator.random((m, w, c)))
            g_cond = _conditioned_gumbels(gum, g).reshape(m, w * c)
            # Top candidates by decreasing value; ties go to the lower index.
            top = np.argsort(-g_cond, axis=1, kind="stable")[:, :width_target]
            gum = g_cond[rows, top]
            logp = cand_logp.reshape(m, w * c)[rows, top]
            joint = joint[rows, top // c] * c + top % c

    idx = joint[:, :k]
    vals = gum[:, :k]
    kappa = gum[:, k] if gum.shape[1] > k else np.full(m, np.nan)
    if size is not None:
        return idx, vals, kappa
    threshold = Threshold(None) if k == n_total else Threshold(float(kappa[0]))
    return OrderedSample(idx[0], vals[0]), threshold


def _check_draw_count(k: int):
    if k < 1:
        raise InvalidSampleSize(f"k={k} must be positive")


def _inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index each uniform of ``u`` (any shape) selects from the
    unnormalized ``weights``: the first cdf entry above u * total."""
    cdf = np.cumsum(weights)
    return np.searchsorted(cdf, u * cdf[-1], side="right").clip(0, len(weights) - 1)


def sample_with_replacement(rng: Rng, dist: CategoricalDist, k: int) -> np.ndarray:
    """k i.i.d. draws from the categorical (indices, duplicates possible)."""
    _check_draw_count(k)
    return _inverse_cdf(dist.probs, rng.generator.random(k))
