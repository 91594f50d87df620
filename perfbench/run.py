"""Run one workload of the kacward benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``kacward`` is imported from
``src/``.  Each run starts fresh worker processes (``worker.py``): one that
measures, and a few before and after it that only build the inputs, to time
set-up.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context (cores, BLAS, library versions, seed, sample counts).
Exits nonzero without that line if the program cannot be imported or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("lattice-cold", "beta-sweep", "verify-small")
# Set-up-only workers run before and after the measuring one, so the median
# set-up time spans the whole run, not one moment of a host whose speed drifts.
SETUP_ONLY_EACH_SIDE = 4
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def start_worker(args, env, *extra):
    """Start a worker and wait until its inputs are ready; returns (process, seconds)."""
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def setup_only(args, env, times: list[float]) -> None:
    """Time SETUP_ONLY_EACH_SIDE workers that only build the inputs."""
    for _ in range(SETUP_ONLY_EACH_SIDE):
        proc, ready = start_worker(args, env, "--setup-only")
        try:
            if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
                raise WorkerError(f"set-up worker exited {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(ready)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kacward benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "kacward", "__init__.py")):
        print("perfbench: no kacward sources under src/", file=sys.stderr)
        return 1

    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread: a factorization split over the few shared cores of a
    # busy host waits on whichever core is stolen, so its time mostly
    # measures the scheduler.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    setup_times = []
    proc = None
    try:
        if not args.trace:
            setup_only(args, env, setup_times)
        proc, ready = start_worker(args, env)
        setup_times.append(ready)
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        proc = None
        if not args.trace:
            setup_only(args, env, setup_times)
    except (WorkerError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}, **metrics}
    if result["first_failure"]:
        print(f"perfbench: first failed query: {result['first_failure']}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "setup_samples": len(setup_times),
        **result["context"],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
