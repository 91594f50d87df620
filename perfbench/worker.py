"""One benchmark worker: builds a workload's inputs, runs its passes, checks answers.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts one per measured run (and a few with ``--setup-only`` to
time set-up).  The worker prints ``READY`` once the first pass's inputs are
written, then one JSON line with its measurements.  A pass is the workload's
fixed query set, sent one query at a time by a single client (closed loop).
A warm-up pass comes first; then whole passes run while the next one still
fits in ``--seconds``, and there is always at least one.  ``wall_s`` is the
median pass; the latencies are pooled over the run.  With ``--trace 1``
untraced and traced passes alternate, and only the per-layer metrics are
reported.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib.metadata
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TAIL_BEYOND = 10


def tail(latencies: list[float]) -> float:
    """Highest latency with at least TAIL_BEYOND queries above it; the max under 20."""
    ordered = sorted(latencies)
    if len(ordered) < 2 * TAIL_BEYOND:
        return ordered[-1]
    return ordered[-TAIL_BEYOND - 1]


def fresh_state() -> None:
    """Empty kacward's memo caches and collect garbage, outside the timed region.

    Every pass uses geometries the process has not seen, so this changes no
    answer and no cache hit.  It keeps the heap, and with it the garbage
    collector's work, the same size in every pass, as in a fresh process.
    """
    for name, mod in list(sys.modules.items()):
        if name == "kacward" or name.startswith("kacward."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def run_pass(queries, tracer=None):
    """Time each query; returns (wall seconds, latencies, (raised?, output) list)."""
    latencies, outputs = [], []
    start = perf_counter()
    for q in queries:
        span = tracer.open("bench.query") if tracer else None
        t0 = perf_counter()
        try:
            outputs.append((True, q.run()))
        except Exception as exc:  # a raising query is a failed query, not a crash
            outputs.append((False, repr(exc)))
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.close(span)
    return perf_counter() - start, latencies, outputs


def count_failures(queries, outputs) -> tuple[int, str | None]:
    failed, first = 0, None
    for q, (ran, value) in zip(queries, outputs):
        try:
            ok = ran and q.check(value)
        except Exception as exc:
            ok, value = False, f"check raised {exc!r} on {value!r}"
        if not ok:
            failed += 1
            first = first or f"{q.label}: {str(value)[:300]}"
    return failed, first


def blas_context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": sys.version.split()[0],
    }


def measure(workload, first_queries, seconds: float, trace: bool, tag: str) -> dict:
    if trace:
        import tracing

        tracer = tracing.Tracer()
    untraced, traced, attempted, failed, first_failure = [], [], 0, 0, None
    start = perf_counter()
    queries, index, longest = first_queries, 0, 0.0
    # The first pass is a warm-up (lazy imports, allocator, interpreter
    # caches): its answers are checked, its times are not used.  Then whole
    # steps run (one untraced pass, plus one traced pass with --trace 1)
    # while the next step is expected to fit in ``seconds``.
    step = ("warm-up",)
    while True:
        for kind in step:
            if index:
                queries = workload.queries(index)
            index += 1
            fresh_state()
            if kind == "traced":
                lo = len(tracer.start)
                restore = tracing.install(tracer)
                try:
                    wall, latencies, outputs = run_pass(queries, tracer)
                finally:
                    restore()
                layers = tracing.layer_metrics(tracer, lo, len(tracer.start), len(queries), wall)
                traced.append((wall, layers))
            else:
                wall, latencies, outputs = run_pass(queries)
                if kind == "untraced":
                    untraced.append((wall, latencies))
            longest = max(longest, wall)
            bad, why = count_failures(queries, outputs)
            attempted += len(queries)
            failed += bad
            first_failure = first_failure or why
        step = ("untraced", "traced") if trace else ("untraced",)
        if untraced and perf_counter() - start + longest * len(step) > seconds:
            break

    pooled = [x for _, lat in untraced for x in lat]
    if trace:
        metrics = {}
        for key in traced[0][1]:
            metrics[key] = {
                "value": statistics.median(layers[key][0] for _, layers in traced),
                "unit": traced[0][1][key][1],
            }
        overhead = statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(w for w, _ in untraced), "unit": "s"},
            "latency_p50_s": {"value": statistics.median(pooled), "unit": "s"},
            "latency_tail_s": {"value": tail(pooled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "first_failure": first_failure,
        "metrics": metrics,
        "context": {
            **blas_context(),
            "passes": len(untraced),
            "traced_passes": len(traced),
            "queries_per_pass": len(first_queries),
            "latency_samples": len(pooled),
            "tail_rule": "max" if len(pooled) < 2 * TAIL_BEYOND
            else f"{TAIL_BEYOND + 1}th largest of the run",
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        first = workload.queries(0)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(
            workload, first, args.seconds, bool(args.trace), f"{args.workload}-seed{args.seed}"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
