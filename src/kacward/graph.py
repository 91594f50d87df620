"""Straight-line embedded graphs: data model, geometry checks, directed-edge indexing.

Directed-edge convention used throughout the package: undirected edge ``k``
(as stored in ``EmbeddedGraph.edges``) owns the two directed ids ``2*k``
(u -> v) and ``2*k + 1`` (v -> u).  Reversal is therefore ``d ^ 1`` and the
underlying undirected index is ``d >> 1``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphFormatError


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: float


def reverse_edge(d: int) -> int:
    """Reversal of a directed edge id."""
    return d ^ 1


def edge_index(d: int) -> int:
    """Undirected edge index underlying a directed edge id."""
    return d >> 1


def directed_pair(k: int) -> tuple[int, int]:
    """The two directed ids of undirected edge ``k``."""
    return 2 * k, 2 * k + 1


class _Geometry:
    """What a drawing determines, whatever its weights; filled on first use.

    One record per constructed graph, shared by reference with every
    ``with_weights`` copy, and freed with the last graph that holds it.
    ``violations`` is the validation verdict; ``layout`` belongs to
    :mod:`kacward.transition` (step pattern, half-angle phases and the sparse
    layout of ``I - T``).
    """

    __slots__ = ("violations", "layout", "__weakref__")

    def __init__(self):
        self.violations = None
        self.layout = None


class EmbeddedGraph:
    """Immutable graph with plane coordinates and weighted straight-line edges.

    Construction rejects structural defects that make a straight-line drawing
    impossible outright (self-loops, parallel edges, bad indices, non-finite
    numbers).  Geometric defects such as crossing edges are *reported* by
    :func:`validate_embedding`, not rejected here, so that diagnostics can
    list all of them.

    The weights are a read-only float array beside the topology; ``edges``
    is built from them on first read.
    """

    __slots__ = (
        "_vertices",
        "_out",
        "_degrees",
        "_tails",
        "_heads",
        "_geometry",
        "_weights",
        "_edges",
    )

    def __init__(self, vertices: Iterable, edges: Iterable):
        vs = []
        for i, p in enumerate(vertices):
            if isinstance(p, Point):
                x, y = p.x, p.y
            else:
                x, y = p
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"vertex {i} has non-finite coordinates ({x}, {y})")
            vs.append(Point(x, y))

        out: list[list[int]] = [[] for _ in vs]
        tails = []
        heads = []
        weights = []
        seen: set[tuple[int, int]] = set()
        for k, e in enumerate(edges):
            if isinstance(e, Edge):
                u, v, w = e.u, e.v, e.weight
            else:
                u, v, w = e
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < len(vs) and 0 <= v < len(vs)):
                raise ValueError(f"edge {k} references vertex out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {k} is a self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"edge {k} duplicates undirected edge {key}")
            seen.add(key)
            if not math.isfinite(w):
                raise ValueError(f"edge {k} has non-finite weight {w}")
            out[u].append(2 * k)
            out[v].append(2 * k + 1)
            tails.extend((u, v))
            heads.extend((v, u))
            weights.append(w)

        object.__setattr__(self, "_vertices", tuple(vs))
        object.__setattr__(self, "_out", tuple(tuple(o) for o in out))
        object.__setattr__(self, "_degrees", tuple(len(o) for o in out))
        object.__setattr__(self, "_tails", tuple(tails))
        object.__setattr__(self, "_heads", tuple(heads))
        object.__setattr__(self, "_geometry", _Geometry())
        object.__setattr__(self, "_weights", _frozen(np.array(weights, dtype=np.float64)))
        object.__setattr__(self, "_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("EmbeddedGraph is immutable")

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            ends = zip(self._tails[0::2], self._heads[0::2], self._weights.tolist())
            object.__setattr__(self, "_edges", tuple(Edge(u, v, w) for u, v, w in ends))
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    @property
    def num_directed(self) -> int:
        return len(self._tails)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def out_edges(self, v: int) -> tuple[int, ...]:
        """Directed edge ids with tail ``v``, in ascending id order."""
        return self._out[v]

    def tail(self, d: int) -> int:
        return self._tails[d]

    def head(self, d: int) -> int:
        return self._heads[d]

    def edge_weight(self, k: int) -> float:
        return self._weights[k].item()

    def directed_weight(self, d: int) -> float:
        """Weight of the undirected edge underlying directed id ``d``."""
        return self._weights[d >> 1].item()

    def direction(self, d: int) -> tuple[float, float]:
        """Displacement vector (head - tail) of directed edge ``d``."""
        t = self._vertices[self._tails[d]]
        h = self._vertices[self._heads[d]]
        return h.x - t.x, h.y - t.y

    def weights(self) -> tuple[float, ...]:
        return tuple(self._weights.tolist())

    def with_weights(self, weights: Sequence[float]) -> "EmbeddedGraph":
        """Same geometry and topology, new edge weights.

        Shares this graph's vertex and adjacency tuples and its geometry
        record, so a validation verdict or transition layout computed for
        either graph serves both; only the weights are checked.
        """
        w = np.array(weights, dtype=np.float64)
        if w.shape != self._weights.shape:
            raise ValueError(
                f"expected {len(self._weights)} weights, got {len(weights)}"
            )
        finite = np.isfinite(w)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"edge {k} has non-finite weight {w[k].item()}")
        g = object.__new__(EmbeddedGraph)
        for name in self.__slots__:
            object.__setattr__(g, name, getattr(self, name))
        object.__setattr__(g, "_weights", _frozen(w))
        object.__setattr__(g, "_edges", None)
        return g

    # -- equality / hashing (value semantics; safe because immutable) ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._tails == other._tails
            and bool(np.array_equal(self._weights, other._weights))
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._tails, self.weights()))

    def __repr__(self) -> str:
        return f"EmbeddedGraph({self.num_vertices} vertices, {self.num_edges} edges)"


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only so that graphs sharing it stay immutable."""
    a.flags.writeable = False
    return a


def max_degree(g: EmbeddedGraph) -> int:
    """Maximum vertex degree (0 for a graph without edges)."""
    return max(g.degrees, default=0)


def connected_components(g: EmbeddedGraph) -> int:
    """Number of connected components, isolated vertices included."""
    n = g.num_vertices
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for d in g.out_edges(v):
                h = g.head(d)
                if not seen[h]:
                    seen[h] = True
                    stack.append(h)
    return count


# -- turning angles ------------------------------------------------------


def turning_angle(g: EmbeddedGraph, e: int, f: int) -> float:
    """Signed angle in (-pi, pi] between directed edges ``e`` and ``f``.

    Computed from the cross and dot products of the two direction vectors;
    an exact -pi (direct reversal) is mapped to +pi to honor the half-open
    interval.
    """
    ex, ey = g.direction(e)
    fx, fy = g.direction(f)
    if (ex == 0.0 and ey == 0.0) or (fx == 0.0 and fy == 0.0):
        raise ValueError("turning angle undefined for a zero-length edge")
    ang = math.atan2(ex * fy - ey * fx, ex * fx + ey * fy)
    if ang == -math.pi:
        return math.pi
    return ang


# -- embedding validation ------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "zero_length" | "crossing" | "vertex_on_edge"
    edges: tuple[int, ...]
    vertex: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


# Shewchuk's (1997) bound on the rounding error of the float orientation
# determinant, relative to |detleft| + |detright|.  It assumes no underflow
# or overflow, so a bound that is not a finite normal float is not trusted.
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_MIN_NORMAL = sys.float_info.min


def _orient(a: Point, b: Point, c: Point) -> int:
    """Exact orientation sign of the triangle (a, b, c); 0 means collinear.

    The float determinant decides when it is clear of its error bound;
    otherwise the sign is computed exactly in rationals (every float is a
    dyadic rational), so no tolerance enters any verdict.
    """
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - a.x, c.y - a.y
    detleft = ux * vy
    detright = uy * vx
    det = detleft - detright
    bound = _ORIENT_ERRBOUND * (abs(detleft) + abs(detright))
    if _MIN_NORMAL <= bound < math.inf:
        if det > bound:
            return 1
        if det < -bound:
            return -1
    # A float difference is zero exactly when its operands are equal, so
    # this catches exact collinearity (axis-parallel edges) without rationals.
    if (ux == 0.0 or vy == 0.0) and (uy == 0.0 or vx == 0.0):
        return 0
    from fractions import Fraction

    ax, ay = Fraction(a.x), Fraction(a.y)
    exact = (Fraction(b.x) - ax) * (Fraction(c.y) - ay) - (Fraction(b.y) - ay) * (
        Fraction(c.x) - ax
    )
    return (exact > 0) - (exact < 0)


def _sign(t: float) -> int:
    return (t > 0.0) - (t < 0.0)


def _within_box(a: Point, b: Point, p: Point) -> bool:
    """Is p inside the closed bounding box of segment a-b?"""
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _segments_conflict(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Closed-segment intersection test for segments with no shared endpoint."""
    o1 = _orient(p1, p2, q1)
    o2 = _orient(p1, p2, q2)
    o3 = _orient(q1, q2, p1)
    o4 = _orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True  # proper crossing
    # Touching or collinear-overlap cases.
    if o1 == 0 and _within_box(p1, p2, q1):
        return True
    if o2 == 0 and _within_box(p1, p2, q2):
        return True
    if o3 == 0 and _within_box(q1, q2, p1):
        return True
    if o4 == 0 and _within_box(q1, q2, p2):
        return True
    return False


def _edges_conflict(vertices, ui: int, vi: int, uj: int, vj: int) -> bool:
    """Do two non-zero-length edges meet anywhere except a shared endpoint?"""
    if ui == uj or ui == vj:
        s, p, q = ui, vi, (vj if ui == uj else uj)
    elif vi == uj or vi == vj:
        s, p, q = vi, ui, (vj if vi == uj else uj)
    else:
        return _segments_conflict(vertices[ui], vertices[vi], vertices[uj], vertices[vj])
    # Collinear and pointing the same way from the shared vertex means the
    # segments overlap beyond it.  The vectors are parallel, so they point the
    # same way exactly when their coordinate differences have equal signs.
    sp, pp, qp = vertices[s], vertices[p], vertices[q]
    return (
        _orient(sp, pp, qp) == 0
        and _sign(pp.x - sp.x) == _sign(qp.x - sp.x)
        and _sign(pp.y - sp.y) == _sign(qp.y - sp.y)
    )


def _grid_shape(cells: int, width: float, height: float) -> tuple[int, int]:
    """Columns and rows for about ``cells`` near-square cells over a width x height box."""
    if not 0.0 < width < math.inf:
        return 1, (cells if 0.0 < height < math.inf else 1)
    if not 0.0 < height < math.inf:
        return cells, 1
    # width / height may overflow to inf or underflow to 0; both clamp.
    cols = int(max(1.0, min(cells, math.sqrt(cells * (width / height)))))
    return cols, max(1, cells // cols)


def _axis_cells(coords: list[float], n: int) -> tuple[int, list[int]]:
    """Cut [min, max] of ``coords`` into ``n`` equal cells; the cell of each coordinate.

    The cell index never decreases as the coordinate grows, whatever the
    rounding, so every point of an interval [a, b] lies in a cell from
    cell(a) to cell(b).  A span that floats cannot cut gets one cell.
    """
    lo = min(coords)
    size = (max(coords) - lo) / n
    if not _MIN_NORMAL <= size < math.inf:
        return 1, [0] * len(coords)
    last = n - 1
    return n, [min(last, int((c - lo) / size)) for c in coords]


def _validate_geometry(
    vertices: tuple[Point, ...], endpoints: tuple[tuple[int, int], ...]
) -> tuple[Violation, ...]:
    """Weight-independent geometry checks; ``validate_embedding`` keeps the verdict.

    Each non-zero-length edge goes into every cell of a uniform grid that its
    bounding box covers.  Only pairs of edges that share a cell and whose
    closed bounding boxes overlap reach the exact tests, and a vertex is
    tested only against the edges in its own cell; the grid is a filter and
    never decides a verdict.  About O(|E|) on lattices.
    """
    xs = [p.x for p in vertices]
    ys = [p.y for p in vertices]
    live = []
    violations: list[Violation] = []
    for k, (u, v) in enumerate(endpoints):
        if xs[u] == xs[v] and ys[u] == ys[v]:
            violations.append(Violation("zero_length", (k,)))
        else:
            live.append(k)
    if not live:
        return tuple(violations)

    cols, rows = _grid_shape(len(live), max(xs) - min(xs), max(ys) - min(ys))
    cols, col = _axis_cells(xs, cols)
    rows, row = _axis_cells(ys, rows)
    m = len(endpoints)
    x_lo, x_hi, y_lo, y_hi = [0.0] * m, [0.0] * m, [0.0] * m, [0.0] * m
    first_col, first_row = [0] * m, [0] * m
    cells: list[list[int]] = [[] for _ in range(cols * rows)]
    for k in live:
        u, v = endpoints[k]
        x_lo[k], x_hi[k] = min(xs[u], xs[v]), max(xs[u], xs[v])
        y_lo[k], y_hi[k] = min(ys[u], ys[v]), max(ys[u], ys[v])
        c0, c1 = min(col[u], col[v]), max(col[u], col[v])
        r0, r1 = min(row[u], row[v]), max(row[u], row[v])
        first_col[k], first_row[k] = c0, r0
        for r in range(r0 * cols, r1 * cols + 1, cols):
            for c in range(r + c0, r + c1 + 1):
                cells[c].append(k)

    crossings = []
    for index, cell in enumerate(cells):
        r, c = divmod(index, cols)
        for a, i in enumerate(cell):
            ui, vi = endpoints[i]
            for j in cell[a + 1 :]:
                # Test each pair once, in the first cell (lowest column and
                # row) that both edges cover, and only if their boxes overlap.
                if (
                    max(first_col[i], first_col[j]) == c
                    and max(first_row[i], first_row[j]) == r
                    and x_lo[i] <= x_hi[j]
                    and x_lo[j] <= x_hi[i]
                    and y_lo[i] <= y_hi[j]
                    and y_lo[j] <= y_hi[i]
                    and _edges_conflict(vertices, ui, vi, *endpoints[j])
                ):
                    crossings.append((i, j))
    crossings.sort()
    violations.extend(Violation("crossing", pair) for pair in crossings)

    on_edge = []
    for w, p in enumerate(vertices):
        x, y = p.x, p.y
        for k in cells[row[w] * cols + col[w]]:
            u, v = endpoints[k]
            if (
                w != u
                and w != v
                and x_lo[k] <= x <= x_hi[k]
                and y_lo[k] <= y <= y_hi[k]
                and _orient(vertices[u], vertices[v], p) == 0
            ):
                on_edge.append((k, w))
    on_edge.sort()
    violations.extend(Violation("vertex_on_edge", (k,), vertex=w) for k, w in on_edge)
    return tuple(violations)


def validate_embedding(g: EmbeddedGraph) -> ValidationReport:
    """Check that the drawing is a legal straight-line embedding.

    Reports every pair of edges whose closed segments intersect anywhere
    except a shared endpoint, every zero-length edge, and every edge passing
    through a third vertex.  Never raises: a bad drawing yields a report
    with ``ok=False``.
    """
    geometry = g._geometry
    if geometry.violations is None:
        geometry.violations = _validate_geometry(
            g.vertices, tuple(zip(g._tails[0::2], g._heads[0::2]))
        )
    return ValidationReport(ok=not geometry.violations, violations=geometry.violations)


def require_valid_embedding(g: EmbeddedGraph) -> None:
    """Raise InvalidEmbeddingError if the graph fails validation."""
    from .errors import InvalidEmbeddingError

    report = validate_embedding(g)
    if not report.ok:
        first = report.violations[0]
        raise InvalidEmbeddingError(
            f"invalid embedding: {len(report.violations)} violation(s), "
            f"first: {first.kind} on edges {first.edges}"
            + (f" (vertex {first.vertex})" if first.vertex is not None else "")
        )


# -- file format ----------------------------------------------------------
#
# A graph file is a JSON object with exactly two keys:
#   "vertices": list of [x, y] coordinate pairs
#   "edges":    list of [u, v, weight] triples, 0-based vertex indices
# Unknown fields and out-of-range indices are rejected.


def _check_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{what} must be an integer, got {value!r}")
    return value


def loads_graph(text: str) -> EmbeddedGraph:
    """Parse a graph from its text form; strict about shape and fields."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphFormatError("top-level value must be an object")
    extra = set(data) - {"vertices", "edges"}
    if extra:
        raise GraphFormatError(f"unknown fields: {sorted(extra)}")
    if "vertices" not in data or "edges" not in data:
        raise GraphFormatError('missing required fields "vertices" and/or "edges"')
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise GraphFormatError('"vertices" and "edges" must be lists')

    vertices = []
    for i, item in enumerate(data["vertices"]):
        if not isinstance(item, list) or len(item) != 2:
            raise GraphFormatError(f"vertex {i} must be a pair [x, y]")
        vertices.append(
            (_check_number(item[0], f"vertex {i} x"), _check_number(item[1], f"vertex {i} y"))
        )

    edges = []
    for k, item in enumerate(data["edges"]):
        if not isinstance(item, list) or len(item) != 3:
            raise GraphFormatError(f"edge {k} must be a triple [u, v, weight]")
        edges.append(
            (
                _check_int(item[0], f"edge {k} endpoint u"),
                _check_int(item[1], f"edge {k} endpoint v"),
                _check_number(item[2], f"edge {k} weight"),
            )
        )

    try:
        return EmbeddedGraph(vertices, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def dumps_graph(g: EmbeddedGraph) -> str:
    """Serialize to the graph file format; deterministic, round-trips exactly.

    One vertex or edge per line so diffs stay readable; float formatting is
    the shortest exact representation, so parse(dumps(g)) == g bit for bit.
    """

    def block(rows: list[str]) -> str:
        if not rows:
            return "[]"
        inner = ",\n    ".join(rows)
        return "[\n    " + inner + "\n  ]"

    vrows = [json.dumps([p.x, p.y]) for p in g.vertices]
    erows = [json.dumps([e.u, e.v, e.weight]) for e in g.edges]
    return (
        "{\n"
        f'  "vertices": {block(vrows)},\n'
        f'  "edges": {block(erows)}\n'
        "}\n"
    )


def load_graph(path) -> EmbeddedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())


def dump_graph(g: EmbeddedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(g))
