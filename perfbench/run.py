"""sworgrad benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload policy-gradient --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the last stdout line is a
JSON object holding every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric from a traced replay of the same steps.  Each run also
writes a run record (and, traced, the spans) under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""
import time

T0 = time.perf_counter()  # set-up is timed from here: imports included

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 10  # extra fresh-process set-ups; setup_s is the median of 1 + 10


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_sworgrad():
    """Import the checkout's own package; never an installed copy."""
    src = ROOT / "src"
    if not (src / "sworgrad" / "__init__.py").is_file():
        _fail(f"no sworgrad sources under {src}")
    sys.path.insert(0, str(src))
    import sworgrad
    import sworgrad.bench
    import sworgrad.cli
    import sworgrad.errors
    import sworgrad.oracle
    import sworgrad.setprob

    if Path(sworgrad.__file__).resolve().parent != (src / "sworgrad").resolve():
        _fail(f"imported {sworgrad.__file__}, not the checkout's package")
    return sworgrad


def timed_loop(wl, seconds: float | None = None, cycles: int | None = None, before_step=None,
               between_cycles=None):
    """Run whole cycles of steps from step 1, timing each; stop after
    ``seconds`` or after ``cycles`` cycles.  ``between_cycles(elapsed)`` is
    called after each cycle but the last, and the time it takes does not
    count towards ``seconds``.  Returns (records, step durations, cycles)."""
    records, durations = [], []
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    i = 1
    done = 0
    while True:
        for _ in range(wl.cycle_len):
            if before_step is not None:
                before_step()
            t = clock()
            rec = wl.step(i)
            durations.append(clock() - t)
            records.append(rec)
            i += 1
        done += 1
        if cycles is not None and done >= cycles:
            break
        if cycles is None and clock() - start - paused >= seconds:
            break
        if between_cycles is not None:
            t = clock()
            between_cycles(t - start - paused)
            paused += clock() - t
    return records, durations, done


def same_output(a: dict, b: dict) -> bool:
    """Whether two step records hold identical outputs."""
    if a.keys() != b.keys():
        return False
    for key, va in a.items():
        vb = b[key]
        if va is vb:
            continue
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def _low_decile(values) -> float:
    """10th percentile: the machine's uninterfered speed, as ``timeit`` takes
    the best of its repeats.  On a shared host, other tenants slow whole
    seconds of a run by up to a third, which moves a mean or a median from
    run to run but rarely the fastest tenth."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def cycle_stats(records, durations, cycle_len: int) -> tuple:
    """(ops per second, per-step latencies in ms) of a run of whole cycles.

    Every cycle holds the same steps, so each step of the cycle gets its
    low-decile duration over the run's cycles.  The throughput is one
    cycle's ops over the sum of those durations, and the latency of a step
    is its low-decile duration per op; percentiles over those are
    percentiles of the op mix.  A step's latency is the mean draw latency of
    the CLI call on ``toy-sweep`` (draws are not timed one by one without
    tracing) and the op latency elsewhere.  Steps last 0.1 ms to 0.3 s, so
    a short burst from another tenant slows a few of a step's repeats and
    leaves its low decile alone, where it would slow every whole cycle."""
    step_time = [_low_decile(durations[i::cycle_len]) for i in range(cycle_len)]
    step_ops = [r["ops"] for r in records[:cycle_len]]
    latencies = [1e3 * t / n for t, n in zip(step_time, step_ops)]
    return sum(step_ops) / sum(step_time), latencies


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled library, when it exposes one."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def run_record(args) -> dict:
    nproc = os.cpu_count()
    blas = _blas_threads()
    if blas is not None and nproc is not None and blas > nproc:
        _fail(f"BLAS runs {blas} threads on {nproc} cores")
    return {
        "git_sha": _git_sha(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        "sworgrad_threads": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(workload_cls, seed: int):
    """Import, input generation and the warm-up op (step 0)."""
    sg = import_sworgrad()
    OUT.mkdir(exist_ok=True)
    wl = workload_cls(sg, seed, OUT)
    wl.step(0)
    return sg, wl


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh process doing exactly the main set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        _fail(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(args, sg, wl, setup_s: float) -> tuple:
    # The set-up probes run one at a time between cycles, spread evenly over
    # the run: the host's slow phases last seconds, so probes run back to back
    # would all land in the same phase.
    probes = []

    def probe_when_due(elapsed: float):
        if len(probes) < SETUP_PROBES and elapsed >= args.seconds * len(probes) / SETUP_PROBES:
            probes.append(setup_probe_seconds(args.workload, args.seed))

    records, durations, _ = timed_loop(wl, seconds=args.seconds, between_cycles=probe_when_due)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = sum(r["ops"] for r in records)
    ops_per_s, lat = cycle_stats(records, durations, wl.cycle_len)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe_seconds(args.workload, args.seed))
    failed, details = wl.failed_ops(records)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1], "ms"),
        "setup_s": (statistics.median([setup_s, *probes]), "s"),
        "pass_ratio": ((ops - failed) / ops, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"latency_samples": len(records), "cycles": len(records) // wl.cycle_len, "ops": ops,
             "setup_samples_s": [setup_s, *probes], "failures": details}
    if hasattr(wl, "known_defects"):
        notes["known_defects"] = wl.known_defects()
    return metrics, ops, failed, notes


def traced(args, sg, wl) -> tuple:
    """Untraced loop for a third of the time, then a traced replay of the
    same steps; the per-layer metrics come from the replay."""
    from spans import Tracer, bindings_differ, per_layer_metrics, snapshot_bindings

    base_records, base_durations, cycles = timed_loop(wl, seconds=args.seconds / 3)
    wl.reset()
    wl.step(0)
    tracer = Tracer(op_span=wl.op_span)
    cache_before = sg.bench.make_toy.cache_info()
    before = snapshot_bindings()
    tracer.install()
    try:
        records, durations, _ = timed_loop(
            wl, cycles=cycles, before_step=tracer.next_op if wl.op_span is None else None)
    finally:
        tracer.remove()
    changed = bindings_differ(before, snapshot_bindings())
    if changed:
        _fail(f"tracer left rebound attributes: {changed[:5]}")
    cache_after = sg.bench.make_toy.cache_info()
    ops = sum(r["ops"] for r in records)
    metrics = per_layer_metrics(tracer, ops, sum(durations), cache_before, cache_after)
    base_ops_per_s, _ = cycle_stats(base_records, base_durations, wl.cycle_len)
    traced_ops_per_s, _ = cycle_stats(records, durations, wl.cycle_len)
    metrics["trace.overhead_ratio"] = (base_ops_per_s / traced_ops_per_s, "ratio")
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    # The replay repeats the checked steps on the same inputs, so each replayed
    # op inherits its original's verdict, and fails too if tracing changed
    # its output.
    failed, details = wl.failed_ops(base_records)
    changed_ops = sum(r["ops"] for r, b in zip(records, base_records) if not same_output(r, b))
    attempted = 2 * ops
    failed = min(2 * failed + changed_ops, attempted)
    notes = {"cycles": cycles, "traced_ops": ops, "spans": len(tracer.start),
             "failures": details, "ops_changed_by_tracing": changed_ops}
    return metrics, attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="short-mode self-test of the benchmark itself")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.self_test:
        import selftest

        sys.exit(selftest.main(import_sworgrad))
    if args.workload not in workloads.WORKLOADS:
        _fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    os.environ.pop("SWORGRAD_THREADS", None)  # keep the package default of 1

    sg, wl = setup(workloads.WORKLOADS[args.workload], args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_s))
        return
    record = run_record(args)

    if args.trace:
        metrics, attempted, failed, notes = traced(args, sg, wl)
    else:
        metrics, attempted, failed, notes = end_to_end(args, sg, wl, setup_s)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "notes": notes, "result": result}, indent=2, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"# {json.dumps(notes, sort_keys=True)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
