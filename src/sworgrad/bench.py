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
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import estimators as est
from . import oracle
from .distributions import CategoricalDist, Objective, from_logits, log_sum_exp
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


# The eta-free tables of the toy: each outcome's bits, and its loss.
_BITS = np.array([outcome_bits(idx) for idx in range(DOMAIN)], dtype=float)
_F_VALUES = np.array(
    [sum((b - t) ** 2 for b, t in zip(outcome_bits(idx), TARGETS)) for idx in range(DOMAIN)]
)
_BITS.setflags(write=False)
_F_VALUES.setflags(write=False)


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


@lru_cache(maxsize=128)
def make_toy(eta: float) -> BernoulliToy:
    # Per-bit log-probabilities, exact in the tails.  Normalizing them and
    # summing the joint row-major is the arithmetic of FactorizedDist.flatten,
    # so the flat distribution is the same floats.
    log_sig = -math.log1p(math.exp(-eta)) if eta >= 0 else eta - math.log1p(math.exp(eta))
    bit_lp = np.array([log_sig - eta, log_sig])
    bit_lp = bit_lp - log_sum_exp(bit_lp)
    joint = np.zeros(1)
    for _ in range(NUM_BITS):
        joint = np.add.outer(joint, bit_lp).ravel()
    flat = from_logits(joint)
    d = _BITS - sigmoid(eta)
    jac = (d[:, 0] + d[:, 1]) + d[:, 2]
    centered = jac - float(np.dot(flat.probs, jac))
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
    )


def exact_loss(eta: float) -> float:
    toy = make_toy(eta)
    return float(np.dot(toy.flat.probs, toy.f_values))


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
    return float(_scalar_grads(kind, eta, k, u)[0])


def _uniform_count(kind: str, k: int) -> int:
    return est.estimator_spec(kind).law.uniforms(k, DOMAIN)


def _scalar_grads(kind: str, eta: float, k: int, u: np.ndarray) -> np.ndarray:
    """The scalar gradient of one draw from each row of the uniforms ``u``:
    one law call draws the batch and one coefs call weighs it."""
    spec = est.estimator_spec(kind)
    toy = make_toy(eta)
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


def _replicate(kind, eta, k, seed, replications) -> np.ndarray:
    """Replicates 0 .. replications-1 of one sweep cell, replicate r drawn
    from the stream (seed, r), in chunks of ``_CHUNK_REPLICATES``."""
    vals = np.empty(max(replications, 0))
    for start in range(0, replications, _CHUNK_REPLICATES):
        stop = min(start + _CHUNK_REPLICATES, replications)
        u = spawn_uniforms(seed, np.arange(start, stop), _uniform_count(kind, k))
        vals[start:stop] = _scalar_grads(kind, eta, k, u)
    return vals


def variance_sweep(config: dict) -> VarianceReport:
    """Empirical variance of the scalar gradient per (estimator, k, eta).

    Config keys: ``estimators`` (ids), ``k`` (list), ``eta`` (list),
    ``replications``, ``seed``.  Replicate r draws from its own stream
    ``Rng(seed, (r,))``, the stream of ``Rng(seed).split(r)``.  A cell runs
    as chunks of replicates with one coefs call each; the chunk size changes
    no output, so reports are reproducible regardless of batching.
    """
    estimators = list(config["estimators"])
    ks = [int(v) for v in config["k"]]
    etas = [float(v) for v in config["eta"]]
    replications = int(config.get("replications", 10**4))
    seed = int(config.get("seed", 0))

    rows = []
    for kind in estimators:
        for k in ks:
            for eta in etas:
                vals = _replicate(kind, eta, k, seed, replications)
                var = float(np.var(vals, ddof=1)) if replications > 1 else 0.0
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

    Config keys: ``estimator``, ``k``, ``eta0``, ``step_size``, ``steps``,
    ``seed``.  Step t is ``toy_scalar_grad`` on the stream ``Rng(seed,
    (t,))``; the uniforms of ``_CHUNK_REPLICATES`` steps come from one
    ``spawn_uniforms`` call.  Runs whose parameter leaves
    [-DIVERGENCE_BOUND, DIVERGENCE_BOUND] are flagged and truncated.
    """
    kind = config["estimator"]
    k = int(config.get("k", 1))
    eta = float(config.get("eta0", 0.0))
    lr = float(config.get("step_size", 0.1))
    steps = int(config.get("steps", 500))
    seed = int(config.get("seed", 0))

    trajectory = [(0, eta, exact_loss(eta))]
    diverged = False
    for t in range(steps):
        row = t % _CHUNK_REPLICATES
        if row == 0:
            stop = min(t + _CHUNK_REPLICATES, steps)
            u = spawn_uniforms(seed, np.arange(t, stop), _uniform_count(kind, k))
        grad = float(_scalar_grads(kind, eta, k, u[row:row + 1])[0])
        eta = eta - lr * grad
        if abs(eta) > DIVERGENCE_BOUND:
            diverged = True
            trajectory.append((t + 1, eta, exact_loss(eta)))
            break
        trajectory.append((t + 1, eta, exact_loss(eta)))
    return OptRun(steps=trajectory, diverged=diverged, config=dict(config))
