"""Span tracing of the ``sworgrad`` layers from outside the package.

``Tracer.install`` wraps every public function of each layer module (plus a
few named methods) in a timing wrapper, rebinding it in every ``sworgrad``
module namespace that holds it; ``Tracer.remove`` puts every original object
back.  Nothing under ``src/`` is edited.

A span records its name, start, end, parent span and op id (plus tags for
``loo_ratios`` and ``gumbel_top_k``).  Spans are kept in flat in-memory
arrays and written out once, when the run ends.  A span's self time is its
duration minus the time covered by its children; since the workload is
single-threaded, children never overlap, so that coverage is the sum of the
children's durations.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("distributions", "sampling", "setprob", "estimators", "oracle", "bench", "cli")

# (layer, class, method, span name): methods traced besides module functions.
METHODS = (
    ("sampling", "Rng", "__init__", "sampling.Rng"),
    ("distributions", "FactorizedDist", "flatten", "distributions.FactorizedDist.flatten"),
    ("distributions", "CategoricalDist", "complement_log_mass",
     "distributions.CategoricalDist.complement_log_mass"),
)


def package_modules() -> dict:
    """Every imported ``sworgrad`` module, by name."""
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "sworgrad" or name.startswith("sworgrad."))}


def snapshot_bindings() -> dict:
    """Identity snapshot of every attribute of every ``sworgrad`` module and of
    the traced classes; ``Tracer.remove`` must restore it exactly."""
    snap = {}
    for mod_name, mod in package_modules().items():
        for attr, obj in vars(mod).items():
            snap[(mod_name, attr)] = obj
    for layer, cls_name, meth, _ in METHODS:
        cls = getattr(importlib.import_module(f"sworgrad.{layer}"), cls_name)
        snap[(f"sworgrad.{layer}.{cls_name}", meth)] = cls.__dict__[meth]
    return snap


def bindings_differ(before: dict, after: dict) -> list:
    """Keys whose bound object changed, appeared or disappeared."""
    keys = set(before) | set(after)
    return sorted(str(k) for k in keys
                  if k not in before or k not in after or before[k] is not after[k])


def _loo_tags(args, kwargs):
    """(k, order, queries) of a ``loo_ratios(dist, S, order, exclude=...)`` call;
    k counts the set elements outside ``exclude`` (the ratios' size m)."""
    dist, S = args[0], args[1]
    order = args[2] if len(args) > 2 else kwargs.get("order", 1)
    idx = getattr(S, "indices", S)
    size = int(np.asarray(idx).size)
    m = size - len(set(int(c) for c in np.asarray(kwargs.get("exclude", ()), dtype=int).ravel()))
    queries = 0 if size == dist.n else m + (m * (m - 1) // 2 if order == 2 else 0)
    return m, int(order), queries


def _rows_tag(args, kwargs):
    size = args[3] if len(args) > 3 else kwargs.get("size")
    return 1 if size is None else int(size)


class Tracer:
    """Installs span wrappers around the layer functions and aggregates spans."""

    def __init__(self, op_span: str | None = None):
        # When ``op_span`` is set, every span of that name starts a new op.
        self.op_span = op_span
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.k = array("i")
        self.order = array("i")
        self.queries = array("i")
        self.rows = array("i")
        self._stack: list = []
        self._op = -1
        self._saved: list = []

    # -- op boundaries -----------------------------------------------------
    def next_op(self):
        self._op += 1

    # -- wrappers ----------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        starts_op = name == self.op_span
        tagger = {"setprob.loo_ratios": _loo_tags}.get(name)
        rows_of = _rows_tag if name == "sampling.gumbel_top_k" else None
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_op:
                tr._op += 1
            i = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr._op)
            k, order, queries = tagger(args, kwargs) if tagger else (0, 0, 0)
            tr.k.append(k)
            tr.order.append(order)
            tr.queries.append(queries)
            tr.rows.append(rows_of(args, kwargs) if rows_of else 0)
            tr.end.append(0.0)
            tr._stack.append(i)
            tr.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                tr._stack.pop()

        return wrapper

    def install(self):
        """Wrap the layer functions; rebinding covers every ``sworgrad``
        namespace (the package ``__init__`` included) that imported them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for layer in LAYERS:
            mod = importlib.import_module(f"sworgrad.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for holder in modules.values():
                    for h_attr, h_obj in list(vars(holder).items()):
                        if h_obj is obj:
                            self._saved.append((holder, h_attr, obj))
                            setattr(holder, h_attr, wrapped)
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"sworgrad.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(span, orig))

    def remove(self):
        """Rebind every original object, in reverse order of installation."""
        while self._saved:
            holder, attr, orig = self._saved.pop()
            setattr(holder, attr, orig)

    # -- aggregation -------------------------------------------------------
    def arrays(self) -> dict:
        n = len(self.start)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
            "k": np.frombuffer(self.k, dtype=np.int32, count=n).copy(),
            "order": np.frombuffer(self.order, dtype=np.int32, count=n).copy(),
            "queries": np.frombuffer(self.queries, dtype=np.int32, count=n).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int32, count=n).copy(),
        }

    def self_times(self, a: dict) -> np.ndarray:
        dur = a["end"] - a["start"]
        covered = np.zeros(len(dur))
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        return dur - covered

    def write(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


# Per-layer metrics, by (span name, statistics); see README.md for the table
# of which end-to-end metric each should move, on which workload.
CALL_METRICS = (
    ("sampling.Rng", ("calls_per_op", "self_us_per_op")),
    ("sampling.gumbel_top_k", ("calls_per_op", "rows_per_call", "self_us_per_op")),
    ("sampling.sample_with_replacement", ("calls_per_op", "self_us_per_op")),
    ("sampling.stochastic_beam_search", ("self_us_per_op",)),
    ("setprob.p_set_exact", ("calls_per_op", "self_us_per_op")),
    ("setprob.posterior_first_draw", ("calls_per_op", "self_us_per_op")),
    *((f"estimators.{fn}", ("calls_per_op", "self_us_per_op"))
      for fn in ("posterior_weights", "sum_and_sample_weights", "importance_weights",
                 "uspg", "uspg_baseline", "iwpg")),
    *((f"oracle.{fn}", ("calls_per_op", "self_us_per_op"))
      for fn in ("theorem_report", "estimator_moments", "enumerate_ordered",
                 "enumerate_unordered", "conditional_iw_mean")),
    *((f"bench.{fn}", ("calls_per_op", "self_us_per_op"))
      for fn in ("variance_sweep", "optimize", "toy_scalar_grad")),
    *((f"distributions.{fn}", ("calls_per_op", "self_us_per_op"))
      for fn in ("from_logits", "FactorizedDist.flatten", "CategoricalDist.complement_log_mass")),
)
LOO_KS = (2, 4, 8, 12, 16, 20)
UNITS = {"self_share": "share", "calls_per_op": "count", "rows_per_call": "rows",
         "self_us_per_op": "us", "queries_per_op": "count", "self_us_per_query": "us",
         "self_ms_p50": "ms", "hit_ratio": "ratio", "harness_share": "share",
         "overhead_ratio": "ratio"}


def per_layer_metric_names() -> list:
    """Every per-layer metric name, in output order."""
    names = [f"{layer}.self_share" for layer in LAYERS]
    for span, stats in CALL_METRICS:
        names += [f"{span}.{s}" for s in stats]
    names += [f"setprob.loo_ratios.o{o}.{s}" for o in (1, 2)
              for s in ("calls_per_op", "self_us_per_op")]
    names += ["setprob.loo_ratios.queries_per_op", "setprob.loo_ratios.self_us_per_query"]
    names += [f"setprob.loo_ratios.k{k}.self_ms_p50" for k in LOO_KS]
    names += ["bench.make_toy.hit_ratio", "trace.harness_share", "trace.overhead_ratio"]
    return names


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def per_layer_metrics(tracer: Tracer, ops: int, wall: float, cache_before, cache_after) -> dict:
    """Aggregate the spans of a traced loop of ``ops`` ops lasting ``wall``
    seconds (summed step time) into the per-layer metrics."""
    a = tracer.arrays()
    self_t = tracer.self_times(a)
    span_names = np.array(tracer.names)[a["name_id"]]
    span_layers = np.array([n.split(".", 1)[0] for n in tracer.names])[a["name_id"]]
    out = {}

    def put(name, value):
        out[name] = (float(value), unit_of(name))

    layer_total = 0.0
    for layer in LAYERS:
        t = float(np.sum(self_t[span_layers == layer]))
        layer_total += t
        put(f"{layer}.self_share", t / wall)
    for span, stats in CALL_METRICS:
        sel = span_names == span
        calls = int(np.sum(sel))
        for s in stats:
            if s == "calls_per_op":
                put(f"{span}.{s}", calls / ops)
            elif s == "self_us_per_op":
                put(f"{span}.{s}", 1e6 * float(np.sum(self_t[sel])) / ops)
            elif s == "rows_per_call":
                put(f"{span}.{s}", float(np.sum(a["rows"][sel])) / calls if calls else 0.0)
    loo = span_names == "setprob.loo_ratios"
    for o in (1, 2):
        sel = loo & (a["order"] == o)
        put(f"setprob.loo_ratios.o{o}.calls_per_op", int(np.sum(sel)) / ops)
        put(f"setprob.loo_ratios.o{o}.self_us_per_op", 1e6 * float(np.sum(self_t[sel])) / ops)
    queries = int(np.sum(a["queries"][loo]))
    put("setprob.loo_ratios.queries_per_op", queries / ops)
    put("setprob.loo_ratios.self_us_per_query",
        1e6 * float(np.sum(self_t[loo])) / queries if queries else 0.0)
    for k in LOO_KS:
        sel = loo & (a["k"] == k)
        put(f"setprob.loo_ratios.k{k}.self_ms_p50",
            1e3 * float(np.median(self_t[sel])) if np.any(sel) else 0.0)
    lookups = (cache_after.hits - cache_before.hits) + (cache_after.misses - cache_before.misses)
    put("bench.make_toy.hit_ratio",
        (cache_after.hits - cache_before.hits) / lookups if lookups else 0.0)
    put("trace.harness_share", 1.0 - layer_total / wall)
    return out
