"""Command-line front end: set-probability queries, identity checks, variance
sweeps, and optimization runs, all deterministic given a seed.

Exit codes: 0 success, 1 validation/usage error, 2 any failed check.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench, oracle, setprob
from .distributions import dist_from_dict, from_probs
from .errors import SworgradError

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sworgrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_set = sub.add_parser("probset", help="set probability and leave-one-out ratios")
    p_set.add_argument("--dist", required=True,
                       help='JSON probabilities "[0.5,0.3,0.2]" or {"logits":[...]}')
    p_set.add_argument("--set", required=True, help="comma-separated indices, e.g. 0,1")
    p_set.add_argument("--order", type=int, default=1, choices=(1, 2))
    p_set.add_argument("--backend", default="auto",
                       choices=("auto", "naive", "exact", "integral"))
    p_set.add_argument("--nodes", type=int, default=setprob.DEFAULT_NODES,
                       help="integration node count")
    p_set.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="run the identity checks on random instances")
    p_check.add_argument("--n", type=int, default=4)
    p_check.add_argument("--k", type=int, default=2)
    p_check.add_argument("--cases", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", default=None)

    p_var = sub.add_parser("variance", help="toy gradient-variance sweep to CSV")
    p_var.add_argument("--config", required=True, help="JSON config path")
    p_var.add_argument("--seed", type=int, default=None, help="override config seed")
    p_var.add_argument("--out", default=None, help="override config output path")

    p_opt = sub.add_parser("optimize", help="gradient-descent run on the toy loss")
    p_opt.add_argument("--config", required=True, help="JSON config path")
    p_opt.add_argument("--seed", type=int, default=None, help="override config seed")
    p_opt.add_argument("--out", default=None, help="override config output path")

    return parser


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_dist(raw: str):
    obj = json.loads(raw)
    if isinstance(obj, list):
        return from_probs(np.asarray(obj, dtype=float))
    if isinstance(obj, dict):
        dist = dist_from_dict(obj)
        return dist.flatten() if hasattr(dist, "flatten") else dist
    raise _UsageError(f"cannot interpret distribution {raw!r}")


def _cmd_probset(args) -> int:
    dist = _parse_dist(args.dist)
    S = tuple(int(v) for v in args.set.split(","))
    lr = setprob.loo_ratios(dist, S, order=args.order, backend=args.backend, nodes=args.nodes)
    posterior = np.exp(dist.log_probs[lr.elements]) * lr.ratios
    report = {
        "schema_version": SCHEMA_VERSION,
        "backend": args.backend,
        "nodes": args.nodes,
        "set": [int(s) for s in lr.elements],
        "log_p_set": lr.log_p_set,
        "p_set": math.exp(lr.log_p_set),
        "ratios": [float(r) for r in lr.ratios],
        "posterior_first_draw": [float(w) for w in posterior],
    }
    if lr.second_order is not None:
        report["second_order"] = [[float(v) for v in row] for row in lr.second_order]
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    report = oracle.theorem_report(args.n, args.k, args.cases, args.seed)
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if report["all_passed"] else 2


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_variance(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    report = bench.variance_sweep(config)
    _emit(report.to_csv(), args.out or config.get("out"))
    return 0


def _cmd_optimize(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    run_result = bench.optimize(config)
    _emit(run_result.to_csv(), args.out or config.get("out"))
    return 0


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "probset":
            return _cmd_probset(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "variance":
            return _cmd_variance(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SworgradError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
