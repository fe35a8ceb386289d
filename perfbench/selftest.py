"""Short-mode self-test of the benchmark (``run.py --self-test``).

It asserts that every metric named in BENCHMARK.json is printed with its
unit, that the traced run leaves every ``sworgrad`` attribute bound to its
original object, and that the policy-gradient checker fails an op whose
gradient was built from a perturbed ratio vector.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _check_printed_metrics(problems: list):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != spans.per_layer_metric_names():
        problems.append("BENCHMARK.json per_layer differs from spans.per_layer_metric_names()")
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "0",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                problems.append(f"{w['name']} trace {trace}: exit {proc.returncode}: {proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = {tuple(line.split()[1::2]) for line in lines[:-1]
                       if line.startswith(w["name"] + " ")}
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w['name']} trace {trace}: {m['name']} missing or wrong unit")
                if (m["name"], m["unit"]) not in printed:
                    problems.append(f"{w['name']} trace {trace}: {m['name']} not printed")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append(f"{w['name']} trace {trace}: metrics beyond BENCHMARK.json")


def _check_restored_bindings(sg, problems: list):
    before = spans.snapshot_bindings()
    for cls in workloads.WORKLOADS.values():
        wl = cls(sg, 0, HERE / "out")
        tracer = spans.Tracer(op_span=cls.op_span)
        tracer.install()
        try:
            if sg.setprob.loo_ratios is before[("sworgrad.setprob", "loo_ratios")]:
                problems.append("install left setprob.loo_ratios unwrapped")
            wl.step(0)
        finally:
            tracer.remove()
        if len(tracer.start) == 0:
            problems.append(f"{cls.name}: traced step recorded no spans")
        changed = spans.bindings_differ(before, spans.snapshot_bindings())
        if changed:
            problems.append(f"{cls.name}: attributes not restored: {changed[:5]}")


def _check_perturbed_ratios(sg, problems: list):
    pg = workloads.PolicyGradient(sg, 0, HERE / "out")
    for estimator in ("uspg", "uspg_baseline"):
        dist, f = pg.flat, pg.f["n64"]
        sample, _ = sg.gumbel_top_k(sg.Rng(1), dist, 4)
        elements = np.sort(sample.indices)
        order = 2 if estimator == "uspg_baseline" else 1
        lr = sg.setprob.loo_ratios(dist, elements, order=order, backend="integral",
                                   nodes=checks.REFERENCE_NODES)
        op = {"k": 4, "domain": "n64", "estimator": estimator, "ops": 1, "error": None,
              "dist": dist, "f": f, "indices": sample.indices, "kappa": None}
        op["grad"] = checks.expected_grad(estimator, dist, elements, f, lr.ratios, lr.second_order)
        if checks.pg_op_fails(sg.setprob, op):
            problems.append(f"{estimator}: checker fails the reference gradient")
        ratios = lr.ratios.copy()
        ratios[0] *= 1.0 + 1e-4
        op["grad"] = checks.expected_grad(estimator, dist, elements, f, ratios, lr.second_order)
        if not checks.pg_op_fails(sg.setprob, op):
            problems.append(f"{estimator}: checker passes a perturbed ratio vector")


def main(import_sworgrad) -> int:
    sg = import_sworgrad()
    (HERE / "out").mkdir(exist_ok=True)
    problems: list = []
    _check_perturbed_ratios(sg, problems)
    _check_restored_bindings(sg, problems)
    _check_printed_metrics(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
