"""Benchmark harness: a three-coin toy loss, gradient-variance sweeps versus
evaluation budget, and gradient-descent runs comparing estimators.

The toy draws three i.i.d. Bernoulli(sigmoid(eta)) bits and penalizes their
squared distance to the fixed targets (0.6, 0.51, 0.48).  The eight joint
outcomes form a flat categorical (row-major bit order, first bit most
significant), and every flat-categorical gradient estimator is chain-ruled to
the scalar parameter eta through
d log p(x) / d eta = sum_i (x_i - sigmoid(eta)).

A variance-sweep cell draws every replicate from its own stream
``Rng(seed, (r,))`` and evaluates the estimator on chunks of at most
``_CHUNK_REPLICATES`` draws.  A chunk takes its replicates' uniforms from
one ``sampling.spawn_uniforms`` call, draws its samples from them with one
call of the estimator's law, and makes one coefs call.  Each row is
computed as it would be alone, so the outputs do not depend on the chunk
size; ``toy_scalar_grad`` is the same computation on one draw from a given
stream.  ``optimize`` step t draws from ``Rng(seed, (t,))`` the same way,
one ``spawn_uniforms`` call per ``_CHUNK_REPLICATES`` steps.

``make_toy`` caches the toy of each sweep eta.  Every ``optimize`` step has
a new eta, so a run builds each step's toy once, outside that cache, and
uses it both for the logged loss and for the next step's draw.
"""
from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import estimators as est
from . import oracle
from .distributions import LOG_PROB_FLOOR, CategoricalDist, Objective, from_logits
from .errors import InvalidConfig
from .sampling import Rng, spawn_uniforms

TARGETS = (0.6, 0.51, 0.48)
NUM_BITS = 3
DOMAIN = 2**NUM_BITS

DIVERGENCE_BOUND = 50.0

VARIANCE_CSV_VERSION = "# sworgrad-variance-v1"
OPTIMIZE_CSV_VERSION = "# sworgrad-optimize-v1"

# Replicates per coefs call in a sweep cell, and optimize steps per stream
# call.  It bounds a cell's working memory whatever its replication count;
# it changes no output.
_CHUNK_REPLICATES = 256


def sigmoid(eta: float) -> float:
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    z = math.exp(eta)
    return z / (1.0 + z)


def outcome_bits(idx: int) -> tuple:
    return tuple((idx >> (NUM_BITS - 1 - i)) & 1 for i in range(NUM_BITS))


# The eta-free tables of the toy: each outcome's loss, and positions into
# the four-entry table (b[0], b[1], j[0], j[1]) of a toy build, where
# _BIT_TAKE[i, 0, x] picks outcome x's bit i from the per-bit
# log-probabilities b and _BIT_TAKE[i, 1, x] from the per-bit jacobian terms j.
_F_VALUES = np.array(
    [sum((b - t) ** 2 for b, t in zip(outcome_bits(idx), TARGETS)) for idx in range(DOMAIN)]
)
_BIT_TAKE = np.array(
    [[[outcome_bits(x)[i] + 2 * j for x in range(DOMAIN)] for j in (0, 1)] for i in range(NUM_BITS)]
)
_F_VALUES.setflags(write=False)
_BIT_TAKE.setflags(write=False)


@dataclass(frozen=True)
class BernoulliToy:
    """The toy problem at a fixed eta: flat distribution, objective values,
    and the chain-rule vectors to the scalar parameter.

    ``score_objective`` holds g(x) = (d log p(x)/d eta) * f(x); applying any
    value-estimator's weights to g yields a scalar gradient estimate.
    """

    eta: float
    flat: CategoricalDist
    f_values: np.ndarray
    eta_jacobian: np.ndarray  # d(joint log-prob)/d(eta) per outcome
    centered_jacobian: np.ndarray
    score_objective: np.ndarray
    loss: float  # the exact expected loss sum_x p(x) f(x)


def _build_toy(eta: float) -> BernoulliToy:
    """The toy at ``eta``, with the float operations of building the
    factorized distribution and flattening it: the per-bit log-probabilities
    b are normalized by a log-sum-exp, and the joint of outcome x is
    (b[x0] + b[x1]) + b[x2], the add order of ``np.add.outer``.  The joint
    and the jacobian come from one gather; the joint is normalized inline,
    and ``from_logits`` is called only when an entry falls below
    ``LOG_PROB_FLOOR`` (or is not finite), to floor it or raise."""
    # Per-bit log-probabilities, exact in the tails.
    log_sig = -math.log1p(math.exp(-eta)) if eta >= 0 else eta - math.log1p(math.exp(eta))
    v0, v1 = log_sig - eta, log_sig
    top = max(v0, v1)
    e0, e1 = np.exp([v0 - top, v1 - top]).tolist()
    norm = top + math.log(e0 + e1)
    # + 0.0 is the outer product's start from a zero joint: it turns -0.0
    # into 0.0 and leaves every other float as it is.
    b0, b1 = (v0 - norm) + 0.0, (v1 - norm) + 0.0
    sig = sigmoid(eta)
    g = np.array([b0, b1, 0.0 - sig, 1.0 - sig]).take(_BIT_TAKE)
    joint, jac = (g[0] + g[1]) + g[2]
    hi, lo = max(b0, b1), min(b0, b1)
    hi, lo = (hi + hi) + hi, (lo + lo) + lo  # the joint's largest and smallest entries
    log_z = hi + math.log(np.exp(joint - hi).sum())
    if lo - log_z >= LOG_PROB_FLOOR:
        log_probs = joint - log_z
        log_probs.setflags(write=False)  # fresh, so CategoricalDist need not copy it
        flat = CategoricalDist(log_probs=log_probs, logits=joint)
    else:
        flat = from_logits(joint)
    probs = flat.probs
    centered = jac - float(np.dot(probs, jac))
    score = centered * _F_VALUES
    for arr in (jac, centered, score):
        arr.setflags(write=False)
    return BernoulliToy(
        eta=eta,
        flat=flat,
        f_values=_F_VALUES,
        eta_jacobian=jac,
        centered_jacobian=centered,
        score_objective=score,
        loss=float(np.dot(probs, _F_VALUES)),
    )


@lru_cache(maxsize=128)
def make_toy(eta: float) -> BernoulliToy:
    """The toy at ``eta``, cached: sweep cells reuse a few etas."""
    return _build_toy(eta)


def exact_loss(eta: float) -> float:
    return make_toy(eta).loss


def loss_lower_bound(grid: int = 100001) -> float:
    """Grid-search minimum of the loss over sigmoid(eta) in [0, 1]."""
    sig = np.linspace(0.0, 1.0, grid)
    targets = np.asarray(TARGETS)
    # E[(x_i - t)^2] = sig (1 - t)^2 + (1 - sig) t^2, summed over bits
    losses = sig[:, None] * (1 - targets) ** 2 + (1 - sig[:, None]) * targets**2
    return float(np.min(losses.sum(axis=1)))


def evals_for(kind: str, k: int) -> int:
    return est.estimator_spec(kind).law.evals(k, DOMAIN)


def toy_scalar_grad(kind: str, eta: float, k: int, rng: Rng) -> float:
    """One draw of the scalar gradient dL/d-eta under the given estimator.

    The estimator's coefs over its sample are dotted with the centered
    chain-rule vector: for gradient estimators this is the logit gradient
    dotted with d(log p)/d-eta, and for value estimators it is the estimate
    of E[g] for the score-weighted objective g(x) = (d log p(x)/d-eta) f(x),
    an unbiased score-function gradient.  ``exact`` runs the unordered-set
    weights over the full domain, so a full-domain sample reproduces it bit
    for bit.  The draw takes the next ``_uniform_count(kind, k)`` doubles
    of ``rng``; this is the one-draw call of ``_scalar_grads``.
    """
    u = rng.generator.random((1, _uniform_count(kind, k)))
    return float(_scalar_grads(est.estimator_spec(kind), make_toy(eta), k, u)[0])


def _uniform_count(kind: str, k: int) -> int:
    return est.estimator_spec(kind).law.uniforms(k, DOMAIN)


def _scalar_grads(spec, toy: BernoulliToy, k: int, u: np.ndarray) -> np.ndarray:
    """The scalar gradient on ``toy``, under the estimator of table entry
    ``spec``, of one draw from each row of the uniforms ``u``: one law call
    draws the batch and one coefs call weighs it."""
    points, r = spec.law.draw(u, toy.flat, k)
    elements, coefs = spec.coefs(toy.flat, points, toy.f_values[points], r)
    return est._rowdot(coefs, toy.centered_jacobian[elements])


def toy_exact_moments(kind: str, eta: float, k: int):
    """Exact (mean, variance) of the scalar-gradient estimator by enumeration
    (with threshold quadrature where needed)."""
    toy = make_toy(eta)
    if est.estimator_spec(kind).output == est.VALUE:
        return oracle.estimator_moments(kind, toy.flat, toy.score_objective, k)
    # The toy loss depends on eta only through p: its pathwise term is zero.
    f = Objective(toy.f_values, np.zeros((DOMAIN, DOMAIN)))
    return oracle.estimator_moments(kind, toy.flat, f, k, project=toy.eta_jacobian)


# ---------------------------------------------------------------------------
# variance sweep

@dataclass(frozen=True)
class VarianceRow:
    estimator: str
    k: int
    evals: int
    eta: float
    variance: float
    log10_variance: float
    replications: int
    seed: int


@dataclass
class VarianceReport:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(VARIANCE_CSV_VERSION + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["estimator", "k", "evals", "eta", "variance", "log10_variance", "replications", "seed"]
        )
        for r in self.rows:
            writer.writerow(
                [r.estimator, r.k, r.evals, repr(r.eta), repr(r.variance),
                 repr(r.log10_variance), r.replications, r.seed]
            )
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "VarianceReport":
        rows = []
        reader = csv.reader(
            line for line in text.splitlines() if line and not line.startswith("#")
        )
        header = next(reader)
        for rec in reader:
            d = dict(zip(header, rec))
            rows.append(
                VarianceRow(
                    estimator=d["estimator"],
                    k=int(d["k"]),
                    evals=int(d["evals"]),
                    eta=float(d["eta"]),
                    variance=float(d["variance"]),
                    log10_variance=float(d["log10_variance"]),
                    replications=int(d["replications"]),
                    seed=int(d["seed"]),
                )
            )
        return VarianceReport(rows)

    def group_by_evals(self) -> dict:
        """Rows grouped by evaluation budget: only rows sharing a budget are
        comparable in the variance-versus-cost sense."""
        groups: dict = {}
        for r in self.rows:
            groups.setdefault(r.evals, []).append(r)
        return groups


def _int_field(key: str, value) -> int:
    """A config integer: an int, or a float with no fraction (JSON may write
    4 as 4.0).  A bool, a fraction, a non-finite float or a non-number
    raises InvalidConfig naming ``key``, rather than being truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidConfig(f"{key} must be an integer, got {value!r}")


def _float_field(key: str, value) -> float:
    """A config number that must be finite; anything else (a bool, inf, nan
    or a non-number) raises InvalidConfig naming ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise InvalidConfig(f"{key} must be a finite number, got {value!r}")


def _replicate(kind, eta, k, seed, replications) -> np.ndarray:
    """Replicates 0 .. replications-1 of one sweep cell, replicate r drawn
    from the stream (seed, r), in chunks of ``_CHUNK_REPLICATES``."""
    spec, toy = est.estimator_spec(kind), make_toy(eta)
    vals = np.empty(replications)
    for start in range(0, replications, _CHUNK_REPLICATES):
        stop = min(start + _CHUNK_REPLICATES, replications)
        u = spawn_uniforms(seed, np.arange(start, stop), _uniform_count(kind, k))
        vals[start:stop] = _scalar_grads(spec, toy, k, u)
    return vals


def variance_sweep(config: dict) -> VarianceReport:
    """Empirical variance of the scalar gradient per (estimator, k, eta).

    Config keys: ``estimators`` (ids), ``k`` (list), ``eta`` (list),
    ``replications`` (at least 2; fewer raises InvalidConfig), ``seed``.
    ``k``, ``replications`` and ``seed`` take whole numbers and ``eta``
    finite ones; other values raise InvalidConfig naming the key.
    Replicate r draws from its own stream
    ``Rng(seed, (r,))``, the stream of ``Rng(seed).split(r)``.  A cell runs
    as chunks of replicates with one coefs call each; the chunk size changes
    no output, so reports are reproducible regardless of batching.
    """
    estimators = list(config["estimators"])
    ks = [_int_field("k", v) for v in config["k"]]
    etas = [_float_field("eta", v) for v in config["eta"]]
    replications = _int_field("replications", config.get("replications", 10**4))
    seed = _int_field("seed", config.get("seed", 0))
    if replications < 2:
        raise InvalidConfig(f"replications must be at least 2, got {replications}")

    rows = []
    for kind in estimators:
        for k in ks:
            for eta in etas:
                vals = _replicate(kind, eta, k, seed, replications)
                var = float(np.var(vals, ddof=1))
                log10_var = math.log10(var) if var > 0 else -math.inf
                rows.append(
                    VarianceRow(
                        estimator=kind,
                        k=k,
                        evals=evals_for(kind, k),
                        eta=eta,
                        variance=var,
                        log10_variance=log10_var,
                        replications=replications,
                        seed=seed,
                    )
                )
    return VarianceReport(rows)


# ---------------------------------------------------------------------------
# optimization

@dataclass
class OptRun:
    """Gradient-descent trajectory with exact losses logged every step."""

    steps: list
    diverged: bool
    config: dict

    @property
    def final_loss(self) -> float:
        return self.steps[-1][2]

    @property
    def etas(self) -> np.ndarray:
        return np.array([s[1] for s in self.steps])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(OPTIMIZE_CSV_VERSION + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "eta", "loss"])
        for step, eta, loss in self.steps:
            writer.writerow([step, repr(eta), repr(loss)])
        if self.diverged:
            buf.write("# diverged\n")
        return buf.getvalue()


def optimize(config: dict) -> OptRun:
    """Plain gradient descent on eta with a chosen gradient estimator.

    Config keys: ``estimator``, ``k``, ``eta0``, ``step_size``, ``steps``
    (at least 0; fewer raises InvalidConfig), ``seed``.  ``k``, ``steps``
    and ``seed`` take whole numbers and ``eta0`` and ``step_size`` finite
    ones; other values raise InvalidConfig naming the key.  Step t is
    ``toy_scalar_grad`` on the stream ``Rng(seed, (t,))``; the uniforms of
    ``_CHUNK_REPLICATES`` steps come from one ``spawn_uniforms`` call.  Each
    step's toy is built once, outside ``make_toy``'s cache, for the loss it
    logs and the draw that follows.  Runs whose parameter leaves
    [-DIVERGENCE_BOUND, DIVERGENCE_BOUND] are flagged and truncated.
    """
    kind = config["estimator"]
    k = _int_field("k", config.get("k", 1))
    eta = _float_field("eta0", config.get("eta0", 0.0))
    lr = _float_field("step_size", config.get("step_size", 0.1))
    steps = _int_field("steps", config.get("steps", 500))
    seed = _int_field("seed", config.get("seed", 0))
    if steps < 0:
        raise InvalidConfig(f"steps must be at least 0, got {steps}")

    spec, toy = est.estimator_spec(kind), _build_toy(eta)
    trajectory = [(0, eta, toy.loss)]
    diverged = False
    for t in range(steps):
        row = t % _CHUNK_REPLICATES
        if row == 0:
            stop = min(t + _CHUNK_REPLICATES, steps)
            u = spawn_uniforms(seed, np.arange(t, stop), _uniform_count(kind, k))
        grad = float(_scalar_grads(spec, toy, k, u[row:row + 1])[0])
        eta = eta - lr * grad
        toy = _build_toy(eta)
        trajectory.append((t + 1, eta, toy.loss))
        if abs(eta) > DIVERGENCE_BOUND:
            diverged = True
            break
    return OptRun(steps=trajectory, diverged=diverged, config=dict(config))
