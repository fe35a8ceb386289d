"""The three workloads.  Each one generates its inputs from the seed in its
constructor, executes step ``i`` of a fixed cyclic sequence in ``step``, and
judges the recorded outputs in ``failed_ops`` after the timed loop.

A step is what the harness times one at a time: one op for
``policy-gradient`` and ``oracle-check``, one CLI call (many draws) for
``toy-sweep``.  Runs always execute whole cycles, so every run has the same
mix of op kinds.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import checks


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _run_cli(sg, argv):
    """``sworgrad.cli.run`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sg.cli.run(argv)
    return code, buf.getvalue()


class ToySweep:
    """README-style use of the CLI: a variance sweep over five estimators,
    then one 500-step optimize run per estimator, on the n = 8 toy."""

    name = "toy-sweep"
    ESTIMATORS = ("unordered-set-pg", "unordered-set-pg-bl", "stoch-sum-and-sample-m1",
                  "iw-pg-bl", "reinforce-wr-bl")
    KS = (2, 4, 8)
    ETAS = (0.0, -4.0)
    REPLICATIONS = 100
    OPT_K = 4
    OPT_STEPS = 500
    cycle_len = 2 * len(ESTIMATORS)
    op_span = "bench.toy_scalar_grad"

    def __init__(self, sg, seed: int, out_dir):
        self.sg = sg
        self.seed = seed
        self.out_dir = out_dir
        self.configs = []
        for kind in self.ESTIMATORS:
            path = out_dir / f"toy-variance-{kind}.json"
            path.write_text(json.dumps({"estimators": [kind], "k": list(self.KS),
                                        "eta": list(self.ETAS),
                                        "replications": self.REPLICATIONS, "seed": 0}))
            self.configs.append(("variance", kind, str(path)))
        for kind in self.ESTIMATORS:
            path = out_dir / f"toy-optimize-{kind}.json"
            path.write_text(json.dumps({"estimator": kind, "k": self.OPT_K, "eta0": 0.0,
                                        "step_size": 0.1, "steps": self.OPT_STEPS, "seed": 0}))
            self.configs.append(("optimize", kind, str(path)))

    def reset(self):
        pass

    def step(self, i: int) -> dict:
        command, kind, path = self.configs[i % self.cycle_len]
        unit_seed = _derived_seed(self.seed, i // self.cycle_len)
        code, out = _run_cli(self.sg, [command, "--config", path, "--seed", str(unit_seed)])
        if command == "variance":
            draws = len(self.KS) * len(self.ETAS) * self.REPLICATIONS
        else:
            draws = self.OPT_STEPS
        return {"command": command, "kind": kind, "code": code, "out": out, "ops": draws}

    def exact_variances(self) -> dict:
        """``bench.toy_exact_moments`` variance of every sweep cell (None where
        the sample space is too large to enumerate).  They take ~10 s, so they
        are cached in the output directory under a hash of the package
        sources they were computed from."""
        digest = hashlib.sha256()
        for path in sorted(Path(self.sg.__file__).parent.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        cache = self.out_dir / f"toy-exact-{digest.hexdigest()[:16]}.json"
        if cache.is_file():
            return json.loads(cache.read_text())
        exact = {}
        for kind in self.ESTIMATORS:
            for k in self.KS:
                for eta in self.ETAS:
                    try:
                        _, var = self.sg.bench.toy_exact_moments(kind, eta, k)
                    except self.sg.errors.SpaceTooLarge:
                        var = None
                    exact[f"{kind} {k} {eta!r}"] = var
        cache.write_text(json.dumps(exact))
        return exact

    def failed_ops(self, records) -> tuple:
        """CLI failures fail every draw of the call; a sweep cell whose pooled
        variance leaves the band around ``bench.toy_exact_moments`` fails
        every draw of that cell in the run."""
        failed = 0
        details = {}
        cells: dict = {}
        for rec in records:
            if rec["code"] != 0:
                failed += rec["ops"]
                details[f"{rec['command']} {rec['kind']} exit {rec['code']}"] = rec["ops"]
                continue
            rows = [r for r in csv.reader(rec["out"].splitlines()) if r and not r[0].startswith("#")]
            if rec["command"] == "optimize":
                trajectory = rows[1:]
                ok = (len(trajectory) == self.OPT_STEPS + 1
                      and all(math.isfinite(float(r[1])) and math.isfinite(float(r[2]))
                              for r in trajectory))
                if not ok:
                    failed += rec["ops"]
                    details[f"optimize {rec['kind']}"] = details.get(f"optimize {rec['kind']}", 0) + rec["ops"]
                continue
            header = rows[0]
            for row in rows[1:]:
                d = dict(zip(header, row))
                key = (d["estimator"], int(d["k"]), float(d["eta"]))
                cells.setdefault(key, []).append(float(d["variance"]))
        exact = self.exact_variances()
        for (kind, k, eta), unit_vars in sorted(cells.items()):
            exact_var = exact[f"{kind} {k} {eta!r}"]
            if not checks.toy_cell_verdict(unit_vars, self.REPLICATIONS, exact_var):
                failed += len(unit_vars) * self.REPLICATIONS
                details[f"variance {kind} k={k} eta={eta}"] = len(unit_vars) * self.REPLICATIONS
        return failed, details


class PolicyGradient:
    """Training-loop-shaped stream through the library API: one fresh sample
    and one gradient estimate per op, from a single random stream.

    The n = 64 domain stops at k = 12: from k = 16 on, ``auto`` answers it
    through the subset zeta transform, which returns wrong ratios (see
    ``known_defects``).  The n = 1000 domain runs the whole k range; there the
    zeta table is built at k >= 16 but every query falls back to quadrature."""

    name = "policy-gradient"
    KS = {"n64": (2, 4, 8, 12), "n1000": (2, 4, 8, 12, 16, 20)}
    ESTIMATORS = ("uspg", "uspg_baseline", "iwpg")
    cycle_len = sum(len(ks) for ks in KS.values()) * len(ESTIMATORS)
    op_span = None
    # Known defect: n = 64 ops this large take the zeta path.
    ZETA_PROBE_K = 16
    # The policies are fixed, so every seed costs the same; the seed drives
    # the sample stream only.
    POLICY_SEED = 20200215

    def __init__(self, sg, seed: int, out_dir):
        self.sg = sg
        self.seed = seed
        gen = np.random.default_rng(self.POLICY_SEED)
        self.flat = sg.from_logits(gen.normal(0.0, 1.0, 64))
        self.factorized = sg.FactorizedDist(tuple(gen.normal(0.0, 1.0, 10) for _ in range(3)))
        self.joint = self.factorized.flatten()
        self.f = {"n64": gen.normal(0.0, 1.0, 64), "n1000": gen.normal(0.0, 1.0, 1000)}
        self.schedule = [(k, dom, est) for k in self.KS["n1000"] for dom in self.KS
                         if k in self.KS[dom] for est in self.ESTIMATORS]
        self.reset()

    def reset(self):
        self.rng = self.sg.Rng(self.seed)

    def step(self, i: int) -> dict:
        sg = self.sg
        k, dom, estimator = self.schedule[i % self.cycle_len]
        rec = {"k": k, "domain": dom, "estimator": estimator, "ops": 1, "error": None}
        try:
            if dom == "n64":
                dist = self.flat
                sample, threshold = sg.gumbel_top_k(self.rng, dist, k)
            else:
                dist = self.joint
                sample, threshold = sg.stochastic_beam_search(self.rng, self.factorized, k)
            f = self.f[dom]
            if estimator == "uspg":
                est = sg.uspg(dist, sample.to_unordered(), f)
            elif estimator == "uspg_baseline":
                est = sg.uspg_baseline(dist, sample.to_unordered(), f)
            else:
                est = sg.iwpg(dist, sample, threshold, f)
            rec.update(dist=dist, f=f, indices=sample.indices, kappa=threshold.kappa,
                       grad=est.grad)
        except (sg.SworgradError, ValueError, FloatingPointError) as exc:
            rec["error"] = repr(exc)
        return rec

    def failed_ops(self, records) -> tuple:
        failed = 0
        details = {}
        for rec in records:
            if checks.pg_op_fails(self.sg.setprob, rec):
                failed += 1
                key = f"{rec['domain']} k={rec['k']} {rec['estimator']}"
                details[key] = details.get(key, 0) + 1
        return failed, details

    def known_defects(self) -> dict:
        """Whether the known zeta-path defect still shows: one n = 64 ``uspg``
        op at k = ZETA_PROBE_K through ``auto``, judged by the same gate as
        the workload's ops.  It is not one of the workload's ops."""
        sg = self.sg
        sample, _ = sg.gumbel_top_k(sg.Rng(self.seed), self.flat, self.ZETA_PROBE_K)
        f = self.f["n64"]
        est = sg.uspg(self.flat, sample.to_unordered(), f)
        op = {"k": self.ZETA_PROBE_K, "estimator": "uspg", "error": None, "dist": self.flat,
              "f": f, "indices": sample.indices, "kappa": None, "grad": est.grad}
        return {f"zeta_path_n64_k{self.ZETA_PROBE_K}_uspg_fails": checks.pg_op_fails(sg.setprob, op)}


class OracleCheck:
    """``sworgrad check`` in-process, one case per op on a per-op seed."""

    name = "oracle-check"
    # The CLI default (4, 2) twice per (5, 3), so neither median nor p90
    # falls on the boundary between the two latency classes.  Case cost
    # varies with the random instance (23-60 ms at (4, 2), 75-205 ms at
    # (5, 3)), so a cycle holds 60 cases, enough that the cycles of two seeds
    # carry comparable work; every cycle repeats the same cases.
    SCHEDULE = ((4, 2), (4, 2), (5, 3)) * 20
    cycle_len = len(SCHEDULE)
    op_span = None

    def __init__(self, sg, seed: int, out_dir):
        self.sg = sg
        self.seed = seed

    def reset(self):
        pass

    def step(self, i: int) -> dict:
        n, k = self.SCHEDULE[i % self.cycle_len]
        case_seed = _derived_seed(self.seed, i % self.cycle_len)
        code, out = _run_cli(self.sg, ["check", "--n", str(n), "--k", str(k), "--cases", "1",
                                       "--seed", str(case_seed)])
        return {"n": n, "k": k, "code": code, "out": out, "ops": 1}

    def failed_ops(self, records) -> tuple:
        failed = 0
        details = {}
        for rec in records:
            ok = rec["code"] == 0
            if ok:
                report = json.loads(rec["out"])
                ok = report["all_passed"] and all(c["passed"] for c in report["checks"])
            if not ok:
                failed += 1
                key = f"n={rec['n']} k={rec['k']}"
                details[key] = details.get(key, 0) + 1
        return failed, details


WORKLOADS = {w.name: w for w in (ToySweep, PolicyGradient, OracleCheck)}
