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
from functools import cmp_to_key
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphFormatError, InvalidEmbeddingError


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
    """What a drawing determines, whatever its weights.

    One record per constructed graph, shared by reference with every
    ``with_weights`` copy, and freed with the last graph that holds it.
    ``xy`` is the read-only ``(|V|, 2)`` float array of coordinates and
    ``ends`` the read-only ``(|E|, 2)`` integer array of endpoints, so
    directed id ``d`` runs from ``ends.flat[d]`` to ``ends.flat[d ^ 1]``;
    ``out_ptr``/``out_ids`` list the directed ids leaving each vertex in
    ascending order (CSR).  ``vertices`` is the tuple of ``Point``s,
    ``violations`` the validation verdict; ``layout`` (step pattern, turning
    angles and their half-angle phases) and ``pattern`` (the fill-reducing
    order and the sparse layout of ``I - T``) belong to
    :mod:`kacward.transition`.  All four are filled on first use.
    """

    __slots__ = (
        "xy",
        "ends",
        "out_ptr",
        "out_ids",
        "vertices",
        "violations",
        "layout",
        "pattern",
        "__weakref__",
    )

    def __init__(self, xy: np.ndarray, ends: np.ndarray):
        self.xy = _frozen(xy)
        self.ends = _frozen(np.ascontiguousarray(ends))
        tails = self.ends.reshape(-1)
        self.out_ids = _frozen(np.argsort(tails, kind="stable"))
        out_ptr = np.zeros(len(xy) + 1, dtype=np.intp)
        np.cumsum(np.bincount(tails, minlength=len(xy)), out=out_ptr[1:])
        self.out_ptr = _frozen(out_ptr)
        self.vertices = None
        self.violations = None
        self.layout = None
        self.pattern = None


class EmbeddedGraph:
    """Immutable graph with plane coordinates and weighted straight-line edges.

    Construction rejects structural defects that make a straight-line drawing
    impossible outright (self-loops, parallel edges, bad indices, non-finite
    numbers).  Geometric defects such as crossing edges are *reported* by
    :func:`validate_embedding`, not rejected here, so that diagnostics can
    list all of them.

    The drawing is held as arrays in a geometry record (coordinates,
    endpoints and the out-edge CSR) that ``with_weights`` copies share; the
    weights are a read-only float array beside it.  ``vertices`` and
    ``edges`` are built on first read, so constructing a graph makes no
    ``Point`` or ``Edge``; the other accessors read the arrays.
    """

    __slots__ = (
        "_geometry",
        "_weights",
        "_edges",
    )

    def __init__(self, vertices: Iterable, edges: Iterable):
        _checked_graph(_coordinates(vertices), *_edge_columns(edges), g=self)

    def __setattr__(self, name, value):
        raise AttributeError("EmbeddedGraph is immutable")

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        geometry = self._geometry
        if geometry.vertices is None:
            geometry.vertices = tuple(Point(x, y) for x, y in geometry.xy.tolist())
        return geometry.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            ends = zip(self._geometry.ends.tolist(), self._weights.tolist())
            object.__setattr__(self, "_edges", tuple(Edge(u, v, w) for (u, v), w in ends))
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._geometry.xy)

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    @property
    def num_directed(self) -> int:
        return 2 * len(self._weights)

    @property
    def degrees(self) -> tuple[int, ...]:
        ptr = self._geometry.out_ptr
        return tuple((ptr[1:] - ptr[:-1]).tolist())

    def degree(self, v: int) -> int:
        return len(self.out_edges(v))

    def out_edges(self, v: int) -> tuple[int, ...]:
        """Directed edge ids with tail ``v``, in ascending id order."""
        ptr = self._geometry.out_ptr
        v = range(len(ptr) - 1)[v]  # a negative v counts from the end
        return tuple(self._geometry.out_ids[ptr.item(v) : ptr.item(v + 1)].tolist())

    def tail(self, d: int) -> int:
        return self._geometry.ends.item(d)

    def head(self, d: int) -> int:
        return self._geometry.ends.item(d ^ 1)

    def edge_weight(self, k: int) -> float:
        return self._weights[k].item()

    def directed_weight(self, d: int) -> float:
        """Weight of the undirected edge underlying directed id ``d``."""
        return self._weights[d >> 1].item()

    def direction(self, d: int) -> tuple[float, float]:
        """Displacement vector (head - tail) of directed edge ``d``; a
        component past the float range is inf."""
        xy, t, h = self._geometry.xy, self.tail(d), self.head(d)
        return xy.item(h, 0) - xy.item(t, 0), xy.item(h, 1) - xy.item(t, 1)

    def weights(self) -> tuple[float, ...]:
        return tuple(self._weights.tolist())

    def with_weights(self, weights: Sequence[float]) -> "EmbeddedGraph":
        """Same geometry and topology, new edge weights.

        Shares this graph's geometry record, so coordinates, adjacency, a
        validation verdict or a transition layout computed for either graph
        serve both; only the weights are checked.
        """
        w = _floats(weights, "edge {} weight")
        if w.shape != self._weights.shape:
            raise ValueError(f"expected {len(self._weights)} weights, got {len(w)}")
        finite = np.isfinite(w)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"edge {k} has non-finite weight {w[k].item()}")
        return _fill(object.__new__(EmbeddedGraph), self._geometry, w)

    # -- equality / hashing (value semantics; safe because immutable) ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        mine, theirs = self._geometry, other._geometry
        return (
            (
                mine is theirs
                or bool(np.array_equal(mine.xy, theirs.xy))
                and bool(np.array_equal(mine.ends, theirs.ends))
            )
            and bool(np.array_equal(self._weights, other._weights))
        )

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, which == treats as equal.
        geometry = self._geometry
        return hash(
            (
                (geometry.xy + 0.0).tobytes(),
                geometry.ends.tobytes(),
                (self._weights + 0.0).tobytes(),
            )
        )

    def __repr__(self) -> str:
        return f"EmbeddedGraph({self.num_vertices} vertices, {self.num_edges} edges)"


def _fill(g: EmbeddedGraph, geometry: _Geometry, weights: np.ndarray) -> EmbeddedGraph:
    """Set the fields of a new graph ``g``; ``weights`` becomes read-only."""
    object.__setattr__(g, "_geometry", geometry)
    object.__setattr__(g, "_weights", _frozen(weights))
    object.__setattr__(g, "_edges", None)
    return g


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only so that graphs sharing it stay immutable."""
    a.flags.writeable = False
    return a


def _float(value, what: str) -> float:
    """``float(value)``; an int beyond the float range raises ValueError naming
    ``what``, and a value ``float`` refuses raises what ``float`` raised, with
    a message that names ``what`` as ``loads_graph`` does."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is an integer beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{what} must be a number, got {value!r}") from None


def _floats(values: Iterable, name: str) -> np.ndarray:
    """The float array of ``values``, the one reader of weights and couplings:
    in bulk when numpy reads every value as a finite float, else one item at
    a time through ``_float``, item ``k`` named ``name.format(k)``.  A value
    that is not finite passes, for the caller to name."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    try:
        a = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.ndim == 1 and np.isfinite(a).all():
        return a
    return np.array([_float(x, name.format(k)) for k, x in enumerate(values)], dtype=np.float64)


def _int(value, what: str) -> int:
    """``int(value)`` of a value equal to it; any other value raises what
    ``int`` raised (a ValueError for an infinity or a float that is not
    integral), with a message that names ``what`` as ``loads_graph`` does."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        error = ValueError if isinstance(exc, OverflowError) else type(exc)
        raise error(f"{what} must be an integer, got {value!r}") from None
    if i != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return i


# How ``loads_graph`` words the shape of a vertex row and an edge row.
_ROW_SHAPE = {Point: "a pair [x, y]", Edge: "a triple [u, v, weight]"}


def _unpacked(item, record: type, what: str) -> tuple:
    """The fields of ``item`` if it is a ``record`` (``Point`` or ``Edge``),
    else the items of a sequence of as many; anything else raises what
    unpacking raises, with a message that names ``what`` as ``loads_graph``
    does."""
    names = record.__dataclass_fields__
    if isinstance(item, record):
        return tuple(getattr(item, name) for name in names)
    try:
        values = tuple(item)
    except TypeError:
        raise TypeError(f"{what} must be {_ROW_SHAPE[record]}") from None
    if len(values) != len(names):
        raise ValueError(f"{what} must be {_ROW_SHAPE[record]}")
    return values


def _coordinates(vertices: Iterable) -> np.ndarray:
    """The ``(n, 2)`` float array of the vertices, converted as ``float`` converts.

    Input that numpy cannot read as ``n`` finite pairs (``Point`` objects,
    ragged or malformed items, ``None``, which numpy reads as nan) is
    converted one vertex at a time, which raises for the first item that
    does not convert, named as ``loads_graph`` names it.  ``_checked_graph``
    decides finiteness.
    """
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    try:
        xy = np.array(vertices, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        xy = None
    if xy is not None and xy.shape == (len(vertices), 2) and np.isfinite(xy).all():
        return xy
    rows = []
    for i, p in enumerate(vertices):
        x, y = _unpacked(p, Point, f"vertex {i}")
        rows.append((_float(x, f"vertex {i} x"), _float(y, f"vertex {i} y")))
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def _edge_columns(edges: Iterable) -> tuple[Sequence[int], Sequence[int], np.ndarray]:
    """The endpoint columns and the weight array of the edges, converted as
    ``int`` and ``float`` convert.

    Triples whose endpoints are Python ints have their weights read by
    ``_floats``; any other input (``Edge`` objects, float indices) is
    converted one edge at a time, which raises for the first item that does
    not convert, named as ``loads_graph`` names it.  ``_checked_graph``
    decides what the edges describe.
    """
    items = edges if isinstance(edges, list) else list(edges)
    try:
        columns = tuple(zip(*items)) if set(map(len, items)) == {3} else ()
    except TypeError:  # an item without a length, such as an ``Edge``
        columns = ()
    if columns and set(map(type, columns[0] + columns[1])) == {int}:
        return columns[0], columns[1], _floats(columns[2], "edge {} weight")
    us, vs, ws = [], [], []
    for k, e in enumerate(items):
        u, v, w = _unpacked(e, Edge, f"edge {k}")
        us.append(_int(u, f"edge {k} endpoint u"))
        vs.append(_int(v, f"edge {k} endpoint v"))
        ws.append(_float(w, f"edge {k} weight"))
    return us, vs, np.array(ws, dtype=np.float64)


def _edge_error(k: int, u: int, v: int, w: float, n: int, duplicate: bool) -> ValueError:
    """Why edge ``k`` = (u, v, w) of a graph on ``n`` vertices is rejected."""
    if not (0 <= u < n and 0 <= v < n):
        return ValueError(f"edge {k} references vertex out of range: ({u}, {v})")
    if u == v:
        return ValueError(f"edge {k} is a self-loop at vertex {u}")
    if duplicate:
        return ValueError(f"edge {k} duplicates undirected edge {(min(u, v), max(u, v))}")
    return ValueError(f"edge {k} has non-finite weight {w}")


def _checked_graph(xy: np.ndarray, us, vs, weights: np.ndarray, g=None) -> EmbeddedGraph:
    """The graph ``g`` (a new one if None) of the coordinates ``xy`` and the
    converted edge columns, filled once they pass the one check of what
    they describe: raises ``ValueError`` for the first vertex with a
    non-finite coordinate, else for the first defective edge.
    """
    finite = np.isfinite(xy).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"vertex {i} has non-finite coordinates {tuple(xy[i].tolist())}")
    n = len(xy)
    try:
        ends = np.array((us, vs), dtype=np.intp).T
    except OverflowError:  # an index beyond any array: -1 marks it, the message names it
        columns = [[x if 0 <= x < n else -1 for x in c] for c in (us, vs)]
        ends = np.array(columns, dtype=np.intp).T
    u, v = ends[:, 0], ends[:, 1]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v) | ~np.isfinite(weights)
    # A later edge with the key of an earlier one is a duplicate.  The key of
    # an out-of-range edge may equal any key, but such an edge is reported no
    # later than the edge whose key it shares.
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    duplicate = np.zeros(len(key), dtype=bool)
    duplicate[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    flagged = (bad | duplicate).nonzero()[0]
    if len(flagged):
        k = int(flagged[0])
        raise _edge_error(k, int(us[k]), int(vs[k]), weights[k].item(), n, bool(duplicate[k]))
    return _fill(object.__new__(EmbeddedGraph) if g is None else g, _Geometry(xy, ends), weights)


def max_degree(g: EmbeddedGraph) -> int:
    """Maximum vertex degree (0 for a graph without edges)."""
    return max(g.degrees, default=0)


def connected_components(g: EmbeddedGraph) -> int:
    """Number of connected components, isolated vertices included.

    Each vertex takes the least label among its own and its neighbors', then
    its label's label, until no label changes; each component's vertices
    then share the label of one of them."""
    u, v = g._geometry.ends.T
    label = np.arange(g.num_vertices)
    while True:
        low = label.copy()
        np.minimum.at(low, u, label[v])
        np.minimum.at(low, v, label[u])
        low = low[low]
        if (low == label).all():
            return len(np.unique(label))
        label = low


# -- turning angles ------------------------------------------------------


# A float turning angle is within about 1e-15 of the exact one, so a turn
# whose float angle is further than this from +-pi is on the side of its sign.
_REVERSAL_TIE = 1e-14


def _turning_angles(xy: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed angles in (-pi, pi] of the turns from ``a[i]`` through ``b[i]``
    to ``c[i]`` (vertex indices into the coordinate array ``xy``), the one
    formula for every turning angle.

    Computed from the cross and dot products of ``b - a`` and ``c - b``,
    taken on the halved points and each scaled by a power of two to a
    largest component in [0.5, 1), so that neither a difference nor a
    product overflows on a huge drawing or underflows on a tiny one; the
    scalings are exact for normal floats and leave the angle unchanged, bit
    for bit.  A float angle within
    ``_REVERSAL_TIE`` of +-pi takes its sign from the exact orientation of
    (a, b, c): negative for a right turn, positive for a left turn or an
    exact reversal.  A zero vector gets 0 or pi, not an error.
    """
    # ``take``: numpy's 2-d fancy indexing is far slower.  The points are
    # halved before subtracting, so that no difference overflows.
    pa, pb, pc = (xy.take(i, axis=0) * 0.5 for i in (a, b, c))
    e, f = pb - pa, pc - pb
    ex, ey, fx, fy = e[:, 0], e[:, 1], f[:, 0], f[:, 1]
    shift = -np.frexp(np.maximum(np.abs(ex), np.abs(ey)))[1]
    ex, ey = np.ldexp(ex, shift), np.ldexp(ey, shift)
    shift = -np.frexp(np.maximum(np.abs(fx), np.abs(fy)))[1]
    fx, fy = np.ldexp(fx, shift), np.ldexp(fy, shift)
    angle = np.arctan2(ex * fy - ey * fx, ex * fx + ey * fy)
    near = (np.abs(angle) >= math.pi - _REVERSAL_TIE).nonzero()[0]
    if len(near):
        right = _orientations(xy.T, a[near], b[near], c[near]) < 0
        angle[near] = np.copysign(angle[near], np.where(right, -1.0, 1.0))
    return angle


# A float angle of ``_clockwise_rotation`` is within about 1e-15 of the exact
# one (displacement, arctangent and shift by 2 pi round by a few ulps each),
# so angles further apart than this are in exact order.
_ANGLE_TIE = 1e-12


def _clockwise_rotation(geometry: _Geometry) -> np.ndarray:
    """``out_ids`` reordered under the same ``out_ptr``: the out-edges of each
    vertex clockwise, the smallest direction angle in [0, 2 pi) first, then
    the others by decreasing angle.  A run of float angles within
    ``_ANGLE_TIE`` of each other spans far less than pi, so ``_orient`` puts
    it in exact order: float rounding never decides the order.
    """
    xy, ids, ptr = geometry.xy, geometry.out_ids, geometry.out_ptr
    flat = geometry.ends.reshape(-1)
    tails, heads = flat[ids], flat[ids ^ 1]  # tails ascend, as ``ids`` is CSR
    d = xy[heads] * 0.5 - xy[tails] * 0.5  # halved, so that no difference overflows
    angle = np.arctan2(d[:, 1], d[:, 0])
    angle[angle < 0] += 2 * math.pi
    order = np.lexsort((angle, tails))
    ids, heads, angle = ids[order], heads[order], angle[order]
    tie = (angle[1:] - angle[:-1] <= _ANGLE_TIE) & (tails[1:] == tails[:-1])
    if tie.any():
        bounds = np.diff(tie, prepend=False, append=False).nonzero()[0].reshape(-1, 2)
        for start, stop in bounds.tolist():
            run = slice(start, stop + 1)
            hub, ends = Point(*xy[tails[start]].tolist()), xy[heads[run]].tolist()
            head = {e: Point(*p) for e, p in zip(ids[run].tolist(), ends)}
            ids[run] = sorted(head, key=cmp_to_key(lambda e, f: -_orient(hub, head[e], head[f])))
    # Ascending angle to clockwise: the first stays, the rest reverse.
    first = ptr[tails]
    rank = np.arange(len(ids)) - first
    return ids[np.where(rank == 0, first, ptr[tails + 1] - rank)]


def _step_angles(g: EmbeddedGraph, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Turning angles of the steps from directed edges ``e[i]`` onto ``f[i]``,
    each leaving the head of ``e[i]``; a zero-length edge raises ValueError."""
    flat, xy = g._geometry.ends.reshape(-1), g._geometry.xy
    a, b, c = flat[e], flat[e ^ 1], flat[f ^ 1]
    pa, pb, pc = xy.take(a, axis=0), xy.take(b, axis=0), xy.take(c, axis=0)
    if ((pa == pb).all(axis=1) | (pb == pc).all(axis=1)).any():
        raise ValueError("turning angle undefined for a zero-length edge")
    return _turning_angles(xy, a, b, c)


def turning_angle(g: EmbeddedGraph, e: int, f: int) -> float:
    """Signed angle in (-pi, pi] of the turn from directed edge ``e`` onto
    ``f``, which must leave the head of ``e``.

    The same numpy computation as the transition layout's angles, on one
    step, so the two agree bit for bit.
    """
    if g.tail(f) != g.head(e):
        raise ValueError(f"directed edge {f} does not leave the head of {e}")
    return _step_angles(g, np.array([e]), np.array([f])).item()


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


def _orientations(pts: np.ndarray, a, b, c) -> np.ndarray:
    """``_orient`` of every triangle of points ``a``, ``b``, ``c``, as an int8 array.

    ``pts`` holds the x and the y coordinates as two rows; ``a``/``b``/``c``
    are index arrays.  The float filter is ``_orient``'s own arithmetic,
    elementwise in the same IEEE operations, so it decides exactly the
    triangles that ``_orient`` decides in floats; only the ones it leaves
    open go to ``_orient``.
    """
    pa = pts.take(a, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        u = pts.take(b, axis=1) - pa
        v = pts.take(c, axis=1) - pa
        left, right = u[0] * v[1], u[1] * v[0]
        det = left - right
        bound = np.abs(left, out=left)
        bound += np.abs(right, out=right)
        bound *= _ORIENT_ERRBOUND
        trusted = (bound >= _MIN_NORMAL) & (bound < math.inf)
        positive = trusted & (det > bound)
        negative = trusted & (det < np.negative(bound, out=bound))
    sign = positive.view(np.int8) - negative.view(np.int8)
    # ``_orient``'s test for an axis-parallel zero, and a repeated point.
    u, v = u == 0.0, v == 0.0
    zero = (u[0] | v[1]) & (u[1] | v[0]) | (b == c)
    for t in (~(positive | negative | zero)).nonzero()[0].tolist():
        corners = pts[:, [a[t], b[t], c[t]]].T.tolist()
        sign[t] = _orient(*(Point(x, y) for x, y in corners))
    return sign


def _grid_shape(cells: int, width: float, height: float) -> tuple[int, int]:
    """Columns and rows for about ``cells`` near-square cells over a width x height box."""
    if not 0.0 < width < math.inf:
        return 1, (cells if 0.0 < height < math.inf else 1)
    if not 0.0 < height < math.inf:
        return cells, 1
    # width / height may overflow to inf or underflow to 0; both clamp.
    cols = int(max(1.0, min(cells, math.sqrt(cells * (width / height)))))
    return cols, max(1, cells // cols)


def _grid(pts: np.ndarray, cells: int) -> tuple[np.ndarray, int, int]:
    """The (column, row) of every point, as two rows, and the number of
    columns and rows, for about ``cells`` cells.

    Each axis's [min, max] is cut into equal cells.  The cell index never
    decreases as the coordinate grows, whatever the rounding, so every point
    of an interval [a, b] lies in a cell from cell(a) to cell(b).  An axis
    whose span floats cannot cut gets one cell.
    """
    low = pts.min(axis=1)
    with np.errstate(over="ignore"):
        extent = (pts.max(axis=1) - low).tolist()
    shape = list(_grid_shape(cells, *extent))
    index = np.zeros(pts.shape, dtype=np.intp)
    for axis, n in enumerate(shape):
        size = extent[axis] / n
        if _MIN_NORMAL <= size < math.inf:
            scaled = (pts[axis] - low[axis]) / size
            np.minimum(scaled.astype(np.intp), n - 1, out=index[axis])
        else:
            shape[axis] = 1
    return index, shape[0], shape[1]


# The validation fills its grid cells, builds its candidate pairs and
# decides their orientations in chunks of about this many, so that its
# memory stays bounded when one cell holds many edges (a hub and its spokes).
_PAIR_CAP = 1 << 12
_NO_PAIRS = (np.zeros(0, dtype=np.intp),) * 2


def _pair_chunks(first: np.ndarray, length: np.ndarray):
    """The index pairs (r, first[r] + a) for every row r and 0 <= a < length[r].

    Yields them as two arrays, in row order, at most ``_PAIR_CAP`` pairs at a
    time; a row longer than the cap is split between chunks.
    """
    end = length.cumsum()
    start = end - length
    total = end[-1].item() if len(end) else 0
    for s in range(0, total, _PAIR_CAP):
        index = np.arange(s, min(s + _PAIR_CAP, total))
        row = end.searchsorted(index, side="right")
        yield row, first[row] + (index - start[row])


def _candidates(pts, a, b, lo, hi, edge_count):
    """The pairs of items that reach the exact tests, as chunks of (i, j) arrays, i < j.

    Item ``t`` is the segment from point ``a[t]`` to point ``b[t]``, with the
    closed box from ``lo[:, t]`` to ``hi[:, t]``; items ``0 .. edge_count - 1``
    are edges and the rest are vertices, as segments from a point to itself.
    Each item goes into every grid cell that its box covers.  A pair shares
    a cell, has overlapping boxes and holds an edge; it is made once, in the
    first cell (lowest column and row) that both items cover, which for a
    vertex is its only cell.  The cells are filled a band of grid rows at a
    time, a band holding about ``_PAIR_CAP`` (item, cell) incidences, and the
    pairs come in chunks of at most ``_PAIR_CAP``.
    """
    cell, cols, rows = _grid(pts, edge_count)
    ca, cb = cell.take(a, axis=1), cell.take(b, axis=1)
    (first_col, first_row), (last_col, last_row) = np.minimum(ca, cb), np.maximum(ca, cb)
    width = last_col - first_col + 1
    bounds = [0, rows]
    if (width * (last_row - first_row + 1)).sum() > _PAIR_CAP:
        # Bands of consecutive rows, each starting before about _PAIR_CAP
        # incidences of the rows above it.
        load = (
            np.bincount(first_row, weights=width, minlength=rows + 1)
            - np.bincount(last_row + 1, weights=width, minlength=rows + 1)
        ).cumsum()[:rows]
        band = (load.cumsum() - load) // _PAIR_CAP
        bounds = [0, *(np.diff(band).nonzero()[0] + 1).tolist(), rows]
    items = np.arange(len(a))
    for top, bottom in zip(bounds, bounds[1:]):
        # The band's (item, cell) incidences, sorted by cell, then by item.
        # ``corner`` has bit 1 where the cell is in its item's first column
        # and bit 2 where it is in its item's first row.
        r0 = np.maximum(first_row, top)
        count = width * np.maximum(np.minimum(last_row, bottom - 1) - r0 + 1, 0)
        item = items.repeat(count)
        offset = np.arange(len(item)) - (count.cumsum() - count).repeat(count)
        span = width.repeat(count)
        down = offset // span
        right = offset - down * span
        at = ((r0 - top) * cols + first_col).repeat(count) + down * cols + right
        corner = (right == 0) + 2 * ((down == 0) & (first_row >= top).repeat(count))
        order = at.argsort(kind="stable")
        item, at, corner = item[order], at[order], corner[order]
        # Each incidence with every earlier one in its cell.  Both items
        # cover the cell, so it is the first they share when it is in the
        # first column of one of them and in the first row of one of them.
        own = at.searchsorted(at)
        for later, earlier in _pair_chunks(own, np.arange(len(at)) - own):
            keep = (corner[later] | corner[earlier]) == 3
            i, j = item[earlier[keep]], item[later[keep]]
            # The closed boxes overlap when each one's low corner is at most
            # the other's high corner, on both axes.
            i_low = lo.take(i, axis=1) <= hi.take(j, axis=1)
            j_low = lo.take(j, axis=1) <= hi.take(i, axis=1)
            keep = i_low[0] & i_low[1] & j_low[0] & j_low[1] & (i < edge_count)
            yield i[keep], j[keep]


def _conflicts(pts, a, b, lo, hi, edge_count, i, j):
    """The candidate pairs (i, j) that fail: edges that meet anywhere except a
    shared endpoint, and vertices j that lie on edge i.

    Disjoint edges need four orientations; an edge and a vertex, or two edges
    with a shared endpoint, need one: of edge i and the end of item j that it
    does not share.  All of them are decided in one ``_orientations`` call.
    """
    a1, b1, a2, b2 = a[i], b[i], a[j], b[j]
    a2_shared = (a2 == a1) | (a2 == b1)
    shared = a2_shared | (b2 == a1) | (b2 == b1)
    single = shared | (j >= edge_count)
    four, one = (~single).nonzero()[0], single.nonzero()[0]
    i4, j4 = i[four], j[four]
    a1f, b1f, a2f, b2f = a1[four], b1[four], a2[four], b2[four]
    other = np.where(a2_shared, b2, a2)[one]
    points = np.concatenate((a2f, b2f, a1f, b1f, other))
    o = _orientations(
        pts,
        np.concatenate((a1f, a1f, a2f, a2f, a1[one])),
        np.concatenate((b1f, b1f, b2f, b2f, b1[one])),
        points,
    )
    n = len(four)
    # Disjoint edges: a proper crossing, or an endpoint of one on the other.
    o1, o2, o3, o4 = o[: 4 * n].reshape(4, n)
    crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
    touch = (o[: 4 * n] == 0).nonzero()[0]
    if len(touch):
        owner = np.concatenate((i4, i4, j4, j4))[touch]
        at = pts.take(points[touch], axis=1)
        inside = np.zeros(4 * n, dtype=bool)
        within = (lo.take(owner, axis=1) <= at) & (at <= hi.take(owner, axis=1))
        inside[touch] = within[0] & within[1]
        crossing |= inside.reshape(4, n).any(axis=0)
    # A vertex in an edge's box is on it when the three are collinear.  Edges
    # with a shared endpoint s overlap when they leave it collinear and the
    # same way: the other ends p and q have p - s and q - s of equal signs
    # (a float difference has the sign of the exact one).  A vertex never
    # does so with its own edge, as q - s is zero there.
    meet = o[4 * n :] == 0
    check = (meet & shared[one]).nonzero()[0]
    if len(check):
        k = one[check]
        si = np.where(a2_shared[k], a2[k], b2[k])
        s = pts.take(si, axis=1)
        p = pts.take(np.where(a1[k] == si, b1[k], a1[k]), axis=1)
        with np.errstate(over="ignore"):
            ahead = np.sign(p - s) == np.sign(pts.take(other[check], axis=1) - s)
        meet[check] = ahead[0] & ahead[1]
    return (
        np.concatenate((i4[crossing], i[one][meet])),
        np.concatenate((j4[crossing], j[one][meet])),
    )


def _validate_geometry(xy: np.ndarray, ends: np.ndarray) -> tuple[Violation, ...]:
    """Weight-independent geometry checks; ``validate_embedding`` keeps the verdict.

    ``xy`` holds the vertex coordinates, one row per vertex, and ``ends`` the
    two endpoints of each edge.  Each non-zero-length edge goes into every
    cell of a uniform grid that its bounding box covers, and each vertex into
    its cell.  Only pairs of edges that share a cell and whose closed
    bounding boxes overlap reach the exact tests, and a vertex is tested only
    against the edges in its own cell (``_candidates``); the grid is a filter
    and never decides a verdict.

    All of it runs on numpy arrays, a chunk of about ``_PAIR_CAP`` pairs at a
    time, and the orientations of the candidates are decided in batches of
    about ``_PAIR_CAP`` pairs (one batch for a small graph).  About O(|E|) on
    lattices; a hub whose spokes' boxes cover much of the grid makes
    O(|E|^3) candidate pairs.
    """
    pts = np.ascontiguousarray(xy.T)
    u, v = ends[:, 0], ends[:, 1]
    pu, pv = pts.take(u, axis=1), pts.take(v, axis=1)
    same = pu == pv
    zero = same[0] & same[1]
    live = (~zero).nonzero()[0]
    violations = [Violation("zero_length", (k,)) for k in zero.nonzero()[0].tolist()]
    if not len(live):
        return tuple(violations)
    if violations:
        u, v, pu, pv = u[live], v[live], pu[:, live], pv[:, live]
    edge_count = len(live)
    vertex = np.arange(len(xy))
    a, b = np.concatenate((u, vertex)), np.concatenate((v, vertex))
    lo = np.concatenate((np.minimum(pu, pv), pts), axis=1)
    hi = np.concatenate((np.maximum(pu, pv), pts), axis=1)

    found, batch, pending = [], [], 0
    for i, j in _candidates(pts, a, b, lo, hi, edge_count):
        if pending + len(i) > _PAIR_CAP:
            pairs = map(np.concatenate, zip(*batch))
            found.append(_conflicts(pts, a, b, lo, hi, edge_count, *pairs))
            batch, pending = [], 0
        batch.append((i, j))
        pending += len(i)
    pairs = map(np.concatenate, zip(_NO_PAIRS, *batch))
    found.append(_conflicts(pts, a, b, lo, hi, edge_count, *pairs))

    i, j = map(np.concatenate, zip(*found))
    order = np.lexsort((j, i))
    i, j = live[i[order]], j[order]
    pair = j < edge_count
    violations.extend(
        Violation("crossing", e) for e in zip(i[pair].tolist(), live[j[pair]].tolist())
    )
    violations.extend(
        Violation("vertex_on_edge", (k,), vertex=w)
        for k, w in zip(i[~pair].tolist(), (j[~pair] - edge_count).tolist())
    )
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
        geometry.violations = _validate_geometry(geometry.xy, geometry.ends)
    return ValidationReport(ok=not geometry.violations, violations=geometry.violations)


def require_valid_embedding(g: EmbeddedGraph) -> None:
    """Raise InvalidEmbeddingError if the graph fails validation."""
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


def _check_number(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{what} must be a number, got {value!r}")


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{what} must be an integer, got {value!r}")
    return value


_NUMBER = frozenset({int, float})
_INT = frozenset({int})


def _rows_of(rows: list, kinds: tuple[frozenset, ...]) -> bool:
    """Is every row a list of ``len(kinds)`` items, item ``c`` of an exact type in ``kinds[c]``?

    JSON decodes to exact ``int``, ``float`` and ``bool``, so this is the
    per-item ``_check_number``/``_check_int`` test, made on whole columns.
    """
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {len(kinds)}:
        return False
    return all(set(map(type, column)) <= kind for column, kind in zip(zip(*rows), kinds))


def _raise_first_format_error(vertices: list, edges: list) -> None:
    """Check the rows one at a time, in file order, and raise at the first bad one."""
    for i, item in enumerate(vertices):
        if not isinstance(item, list) or len(item) != 2:
            raise GraphFormatError(f"vertex {i} must be a pair [x, y]")
        _check_number(item[0], f"vertex {i} x")
        _check_number(item[1], f"vertex {i} y")
    for k, item in enumerate(edges):
        if not isinstance(item, list) or len(item) != 3:
            raise GraphFormatError(f"edge {k} must be a triple [u, v, weight]")
        _check_int(item[0], f"edge {k} endpoint u")
        _check_int(item[1], f"edge {k} endpoint v")
        _check_number(item[2], f"edge {k} weight")


def loads_graph(text: str) -> EmbeddedGraph:
    """Parse a graph from its text form; strict about shape and fields.

    The rows are type-checked a column at a time; only a file with a bad row
    is checked again one row at a time, to name that row.  The numbers are
    then read as the constructor reads them.
    """
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
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError('"vertices" and "edges" must be lists')

    if not (_rows_of(vertices, (_NUMBER, _NUMBER)) and _rows_of(edges, (_INT, _INT, _NUMBER))):
        _raise_first_format_error(vertices, edges)
    us, vs, ws = zip(*edges) if edges else ((), (), ())
    try:
        return _checked_graph(_coordinates(vertices), us, vs, _floats(ws, "edge {} weight"))
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

    vrows = [json.dumps(p) for p in g._geometry.xy.tolist()]
    ends = zip(g._geometry.ends.tolist(), g._weights.tolist())
    erows = [json.dumps([u, v, w]) for (u, v), w in ends]
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
