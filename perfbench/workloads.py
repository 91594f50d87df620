"""The benchmark's workloads: seeded inputs, the fixed query set of one pass,
and the answer check of every query.

Every input is built here from plain coordinate and edge lists; the program
only sees the generated graph files (or, for the library workload, an
``EmbeddedGraph`` built from those lists).  The seed chooses weights,
couplings, inverse temperatures, the order of the beta sweep and integer
translations, never sizes, so runs with different seeds do the same work.

Each pass translates its graphs by fresh integer offsets.  Translation keeps
the cost and the answers of a query but gives it a geometry the process has
not seen, so a pass is as cold as a user running ``kacward`` on new files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import kacward
import kacward.cli

from reference import ising_log_partition

BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))
REL_TOL = 1e-10

# Cold lattice strips (kind, width, height): squares 9-11 wide or bricks 3-4
# wide, so at most 12 vertices per row.  A query's cost follows its edge
# count, so 423-427 edges give the four queries one cluster of latencies and
# the pooled median falls inside it, not in a gap between two.  One pass is
# short, so a run holds many.
LATTICE_SHAPES = (("square", 9, 22), ("hex", 3, 38), ("square", 11, 18), ("hex", 4, 30))
SWEEP_SHAPE = ("square", 8, 24)  # 416 edges, n = 832 directed edges
# Betas per pass.  Each pass has one cold query; short passes give a run
# more than ten of them, so the tail (ten queries beyond it) is a cold query.
SWEEP_BETAS = 8


# -- graph construction -------------------------------------------------------


def square_strip(width: int, height: int):
    """width x height unit squares; vertices row-major, edges as (u, v)."""
    cols = width + 1
    vertices = [(float(i), float(j)) for j in range(height + 1) for i in range(cols)]
    edges = [(j * cols + i, j * cols + i + 1) for j in range(height + 1) for i in range(width)]
    edges += [(j * cols + i, (j + 1) * cols + i) for j in range(height) for i in range(cols)]
    return vertices, edges


def brick_wall(rows: int, cols: int):
    """Honeycomb drawn as rows x cols bricks (2 x 1, odd rows shifted by one)."""
    segments = set()
    for r in range(rows):
        for c in range(cols):
            x = r % 2 + 2 * c
            for y in (r, r + 1):
                segments.add(((x, y), (x + 1, y)))
                segments.add(((x + 1, y), (x + 2, y)))
            segments.add(((x, r), (x, r + 1)))
            segments.add(((x + 2, r), (x + 2, r + 1)))
    points = sorted({p for s in segments for p in s}, key=lambda p: (p[1], p[0]))
    index = {p: i for i, p in enumerate(points)}
    edges = sorted((index[a], index[b]) for a, b in segments)
    return [(float(x), float(y)) for x, y in points], edges


def strip(kind: str, width: int, height: int):
    return square_strip(width, height) if kind == "square" else brick_wall(height, width)


def bowtie():
    vertices = [(0.0, 0.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, -1.0)]
    return vertices, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]


def wheel(spokes: int):
    vertices = [(0.0, 0.0)] + [
        (math.cos(2 * math.pi * k / spokes), math.sin(2 * math.pi * k / spokes))
        for k in range(spokes)
    ]
    edges = [(0, k + 1) for k in range(spokes)]
    edges += [(k + 1, (k + 1) % spokes + 1) for k in range(spokes)]
    return vertices, edges


def max_degree(num_vertices: int, edges) -> int:
    degree = [0] * num_vertices
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree)


def translated(vertices, rng: random.Random):
    dx, dy = rng.randrange(1000), rng.randrange(1000)
    return [(x + dx, y + dy) for x, y in vertices]


def write_graph(path: str, vertices, weighted_edges) -> None:
    doc = {"vertices": [list(p) for p in vertices], "edges": [list(e) for e in weighted_edges]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# -- queries -------------------------------------------------------------------


@dataclass
class Query:
    """One call into kacward; ``check`` gets what ``run`` returned."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def run_cli(argv: list[str]):
    """``kacward.cli.main`` in-process, as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kacward.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1.0)


def ising_answer_ok(z: float, log_z: float, vertices, edges, beta: float) -> bool:
    """Both printed values agree with the reference to REL_TOL relative."""
    want = ising_log_partition(vertices, edges, beta)
    if want > 709.0:  # near float overflow the linear value may read inf
        return close(log_z, want) and (z == math.inf or close(math.log(z), want))
    return close(log_z, want) and close(z, math.exp(want))


def cli_ising_check(vertices, edges, beta):
    def check(result) -> bool:
        code, out, _ = result
        if code != 0:
            return False
        values = dict(line.split(" = ") for line in out.splitlines())
        return ising_answer_ok(
            float(values["Z_ising"]), float(values["log_Z_ising"]), vertices, edges, beta
        )

    return check


class LatticeCold:
    """One ``kacward ising FILE --beta B`` per distinct strip geometry."""

    name = "lattice-cold"

    def __init__(self, rng: random.Random, workdir: str):
        self.rng, self.workdir = rng, workdir

    def queries(self, pass_index: int) -> list[Query]:
        # A fixed order keeps the sequence of matrix allocations, and with it
        # the peak RSS, the same for every seed.
        out = []
        for i, (kind, width, height) in enumerate(LATTICE_SHAPES):
            vertices, pairs = strip(kind, width, height)
            vertices = translated(vertices, self.rng)
            edges = [(u, v, self.rng.uniform(0.5, 1.5)) for u, v in pairs]
            beta = self.rng.uniform(0.1, 1.0)
            path = os.path.join(self.workdir, f"lattice-{pass_index}-{i}.json")
            write_graph(path, vertices, edges)
            out.append(
                Query(
                    f"{kind}-{width}x{height}",
                    lambda path=path, beta=beta: run_cli(["ising", path, "--beta", repr(beta)]),
                    cli_ising_check(vertices, edges, beta),
                )
            )
        return out


class BetaSweep:
    """One strip swept over a beta grid on [0.1, 1.0] through the library."""

    name = "beta-sweep"

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng

    def queries(self, pass_index: int) -> list[Query]:
        vertices, pairs = strip(*SWEEP_SHAPE)
        vertices = translated(vertices, self.rng)
        edges = [(u, v, 1.0) for u, v in pairs]
        graph = kacward.EmbeddedGraph(vertices, edges)
        width = 0.9 / (SWEEP_BETAS - 1)
        betas = [BETA_C] + [
            0.1 + width * (k + self.rng.random()) for k in range(SWEEP_BETAS - 1)
        ]
        self.rng.shuffle(betas)
        return [
            Query(
                f"beta={beta:.4f}",
                lambda beta=beta: kacward.ising_partition_kw(kacward.uniform_ising(graph, beta)),
                lambda result, beta=beta: ising_answer_ok(*result, vertices, edges, beta),
            )
            for beta in betas
        ]


# Expected verify table: every check passes except decoration, which skips
# on graphs that are already trivalent; the corrupted query fails
# kw-vs-oracle and exits 5.
VERIFY_CHECKS = (
    "kw-vs-oracle",
    "weight-properties",
    "specific-cancellation",
    "generic-cancellation",
    "trace-identity",
    "decoration",
)
# Loop lengths give every query of a pass a near-equal cost, so the pooled
# median and tail fall inside one cluster of latencies, not between two.
VERIFY_GRAPHS = (
    ("bowtie", bowtie, 14),
    ("square-2x2", lambda: square_strip(2, 2), 10),
    ("hex-2x2", lambda: brick_wall(2, 2), 12),
    ("wheel-6", lambda: wheel(6), 7),
)


def verify_check(trivalent: bool, corrupt: bool):
    expected = {name: "pass" for name in VERIFY_CHECKS}
    if trivalent:
        expected["decoration"] = "skip"
    if corrupt:
        expected["kw-vs-oracle"] = "FAIL"

    def check(result) -> bool:
        code, out, err = result
        table = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[0] in expected:
                table[parts[0]] = parts[1]
        if corrupt:
            return code == 5 and table == expected and "error[verify]: kw-vs-oracle" in err
        return code == 0 and table == expected and out.rstrip().endswith("all checks passed")

    return check


class VerifySmall:
    """``kacward verify`` on four small graphs plus one corrupted query."""

    name = "verify-small"

    def __init__(self, rng: random.Random, workdir: str):
        self.rng, self.workdir = rng, workdir

    def _graph_file(self, tag: str, build) -> tuple[str, bool]:
        vertices, pairs = build()
        delta = max_degree(len(vertices), pairs)
        # (max_degree - 1) * max|x| stays in [0.4, 0.9], inside the
        # convergence radius, so generic-cancellation is never skipped.
        edges = [(u, v, self.rng.uniform(0.4, 0.9) / (delta - 1)) for u, v in pairs]
        path = os.path.join(self.workdir, f"{tag}.json")
        write_graph(path, translated(vertices, self.rng), edges)
        return path, delta <= 3

    def queries(self, pass_index: int) -> list[Query]:
        out = []
        for name, build, length in VERIFY_GRAPHS:
            path, trivalent = self._graph_file(f"verify-{pass_index}-{name}", build)
            out.append(
                Query(
                    f"{name}@{length}",
                    lambda path=path, length=length: run_cli(
                        ["verify", path, "--max-loop-len", str(length)]
                    ),
                    verify_check(trivalent, corrupt=False),
                )
            )
        path, trivalent = self._graph_file(f"verify-{pass_index}-corrupt", bowtie)
        out.append(
            Query(
                "bowtie@14-corrupt",
                lambda path=path: run_cli(
                    ["verify", path, "--max-loop-len", "14", "--corrupt-transition"]
                ),
                verify_check(trivalent, corrupt=True),
            )
        )
        return out


WORKLOADS = {w.name: w for w in (LatticeCold, BetaSweep, VerifySmall)}
