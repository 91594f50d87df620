"""Spans around kacward's public functions, and the per-layer metrics made from them.

``install`` rebinds every module-level binding of each public function in the
``kacward`` package (``graph.validate_embedding``, ``transition.
require_valid_embedding``, the package re-exports, ...) to a wrapper that
records one span: name, start, end and the index of the enclosing span.
Spans live in flat arrays in memory and are written out once, at the end.
Nothing under ``src/`` changes; ``restore`` puts the original bindings back.
"""

from __future__ import annotations

import functools
import statistics
import sys
import types
from array import array
from time import perf_counter

import numpy as np

# Per-step helpers that run once per matrix entry or walk step; one span costs
# more than they do, so their time stays with the caller.
LEAF_HELPERS = frozenset({"turning_angle", "reverse_edge", "edge_index", "directed_pair"})

# (metric, "self" or "total", traced functions).  "total" sums the spans of
# the functions not nested inside another of them; "self" subtracts the time
# of every traced callee.
TIMES = (
    ("cli.main_self_s", "self", ("cli.main",)),
    ("graph.parse_s", "total", ("graph.load_graph", "graph.loads_graph")),
    ("graph.validate_s", "total", ("graph.require_valid_embedding", "graph.validate_embedding")),
    ("transition.build_s", "self", ("transition.build_transition_matrix",)),
    ("transition.factor_s", "self", ("transition.kac_ward_determinant",)),
    ("transition.z_self_s", "self", ("transition.partition_function_kw",)),
    ("lattices.convert_s", "total", ("lattices.ising_to_even_weights",)),
    ("lattices.ising_self_s", "self", ("lattices.ising_partition_kw",)),
    ("oracle.partition_s", "total", ("oracle.partition_function_oracle",)),
    ("loops.enumerate_walks_s", "total", ("loops.enumerate_walks",)),
    ("loops.enumerate_loops_s", "total", ("loops.enumerate_rooted_loops",)),
    ("loops.walk_weight_s", "total", ("loops.walk_weight",)),
    ("loops.generic_cancellation_s", "total", ("loops.verify_generic_cancellation",)),
    ("decoration.decorate_s", "total", ("decoration.decorate",)),
    ("verify.run_suite_self_s", "self", ("verify.run_suite",)),
)

# Calls per query; these repeat exactly for a fixed query set.
CALLS = (
    ("graph.validate_calls", "graph.validate_embedding"),
    ("transition.build_calls", "transition.build_transition_matrix"),
    ("transition.factor_calls", "transition.kac_ward_determinant"),
    ("oracle.partition_calls", "oracle.partition_function_oracle"),
    ("loops.walk_weight_calls", "loops.walk_weight"),
    ("loops.generic_cancellation_calls", "loops.verify_generic_cancellation"),
)


# The observers read program objects (``TransitionMatrix.size`` and
# ``.entries``); the sparse branches keep them working once the transition
# matrix is stored sparse.
def _nbytes(entries) -> int:
    if isinstance(entries, np.ndarray):
        return entries.nbytes
    return sum(getattr(entries, a).nbytes for a in ("data", "indices", "indptr") if hasattr(entries, a))


def _nnz(entries) -> int:
    if isinstance(entries, np.ndarray):
        return int(np.count_nonzero(entries))
    return int(entries.count_nonzero())


class Tracer:
    """Span store plus the values observed at a few boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # observed[key] holds (span index, value) pairs.
        self.observed: dict[str, list[tuple[int, float]]] = {}
        self._seen_geometries: set = set()
        self._nnz_by_order: dict[int, int] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _note(self, key: str, idx: int, value: float) -> None:
        self.observed.setdefault(key, []).append((idx, value))

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                try:
                    observe(self, idx, args, result)
                except AttributeError:  # the object changed shape; the metric reads 0
                    pass
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _observe_validate(tracer: Tracer, idx, args, result) -> None:
    g = args[0]
    key = (g.vertices, tuple((e.u, e.v) for e in g.edges))
    tracer._note("validate_repeat", idx, float(key in tracer._seen_geometries))
    tracer._seen_geometries.add(key)


def _observe_build(tracer: Tracer, idx, args, result) -> None:
    n = result.size
    if n not in tracer._nnz_by_order:
        tracer._nnz_by_order[n] = _nnz(result.entries)
    tracer._note("order_n", idx, n)
    tracer._note("matrix_bytes", idx, _nbytes(result.entries))


def _observe_factor(tracer: Tracer, idx, args, result) -> None:
    n = args[0].num_directed
    tracer._note("factor_flops", idx, 8.0 * n**3 / 3.0)  # dense complex LU


_OBSERVERS = {
    "graph.validate_embedding": _observe_validate,
    "transition.build_transition_matrix": _observe_build,
    "transition.kac_ward_determinant": _observe_factor,
    "loops.enumerate_walks": lambda t, idx, args, r: t._note("walks", idx, len(r)),
    "loops.enumerate_rooted_loops": lambda t, idx, args, r: t._note("loops", idx, len(r)),
}


def install(tracer: Tracer):
    """Trace every public kacward function; returns a callable that undoes it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "kacward" or n.startswith("kacward.")]
    wrappers = {}
    for mod in modules:
        for value in vars(mod).values():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__.startswith("kacward.")
                and not value.__name__.startswith("_")
                and value.__name__ not in LEAF_HELPERS
                and value not in wrappers
            ):
                name = value.__module__.removeprefix("kacward.") + "." + value.__name__
                wrappers[value] = tracer.wrap(name, value)
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

    def restore() -> None:
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return restore


def layer_metrics(tracer: Tracer, lo: int, hi: int, queries: int, wall: float) -> dict:
    """Per-layer metrics of the spans [lo, hi), one traced pass of ``queries``."""
    names = np.frombuffer(tracer.name, dtype=np.intc)[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.intc)[lo:hi] - lo
    dur = np.frombuffer(tracer.end)[lo:hi] - np.frombuffer(tracer.start)[lo:hi]
    inside = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[inside], dur[inside])
    parent_name = np.full_like(names, -1)
    parent_name[inside] = names[parent[inside]]

    def ids(fns):
        return [tracer._ids[f] for f in fns if f in tracer._ids]

    def observed(key):
        return [v for i, v in tracer.observed.get(key, ()) if lo <= i < hi]

    out = {}
    for metric, kind, fns in TIMES:
        mine = np.isin(names, ids(fns))
        if kind == "self":
            seconds = float((dur - child)[mine].sum())
        else:
            seconds = float(dur[mine & ~np.isin(parent_name, ids(fns))].sum())
        out[metric] = (seconds, "s")
        out[metric.removesuffix("_s") + "_pct"] = (100.0 * seconds / wall, "%")
    for metric, fn in CALLS:
        out[metric] = (float(np.isin(names, ids([fn])).sum()) / queries, "count/query")

    repeats = observed("validate_repeat")
    out["graph.validate_repeat_frac"] = (statistics.fmean(repeats) if repeats else 0.0, "ratio")
    orders = observed("order_n")
    top = max(orders, default=0)
    out["transition.order_n"] = (float(top), "count")
    out["transition.nnz"] = (float(tracer._nnz_by_order.get(int(top), 0)), "count")
    out["transition.matrix_bytes_computed"] = (sum(observed("matrix_bytes")) / queries, "B/query")
    out["transition.factor_flops_computed"] = (sum(observed("factor_flops")) / queries, "flop/query")
    out["loops.walks"] = (sum(observed("walks")) / queries, "count/query")
    out["loops.loops"] = (sum(observed("loops")) / queries, "count/query")
    out["trace.spans"] = ((hi - lo) / queries, "count/query")
    return out
