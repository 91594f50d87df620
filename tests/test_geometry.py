"""Exact, grid-bucketed embedding validation against the all-pairs reference scan."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, QhullError

from kacward import EmbeddedGraph, graph, validate_embedding
from kacward.graph import Point, Violation, _orient, _validate_geometry

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference: the all-pairs O(E^2 + E*V) scan, on the exact predicate ----------


def _within_box(a: Point, b: Point, p: Point) -> bool:
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _segments_conflict(p1, p2, q1, q2) -> bool:
    o1 = _orient(p1, p2, q1)
    o2 = _orient(p1, p2, q2)
    o3 = _orient(q1, q2, p1)
    o4 = _orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    return (
        (o1 == 0 and _within_box(p1, p2, q1))
        or (o2 == 0 and _within_box(p1, p2, q2))
        or (o3 == 0 and _within_box(q1, q2, p1))
        or (o4 == 0 and _within_box(q1, q2, p2))
    )


def reference_violations(vertices, endpoints) -> tuple[Violation, ...]:
    """Every pair of edges and every (edge, vertex) pair, tested one by one."""
    violations = []
    zero_length = set()
    for k, (u, v) in enumerate(endpoints):
        a, b = vertices[u], vertices[v]
        if a.x == b.x and a.y == b.y:
            violations.append(Violation("zero_length", (k,)))
            zero_length.add(k)

    m = len(endpoints)
    for i in range(m):
        if i in zero_length:
            continue
        ui, vi = endpoints[i]
        for j in range(i + 1, m):
            if j in zero_length:
                continue
            uj, vj = endpoints[j]
            shared = {ui, vi} & {uj, vj}
            if len(shared) >= 2:
                violations.append(Violation("crossing", (i, j)))
                continue
            if len(shared) == 1:
                s = shared.pop()
                sp = vertices[s]
                p = vertices[vi if ui == s else ui]
                q = vertices[vj if uj == s else uj]
                if _orient(sp, p, q) == 0:
                    dot = (Fraction(p.x) - Fraction(sp.x)) * (Fraction(q.x) - Fraction(sp.x)) + (
                        Fraction(p.y) - Fraction(sp.y)
                    ) * (Fraction(q.y) - Fraction(sp.y))
                    if dot > 0:
                        violations.append(Violation("crossing", (i, j)))
                continue
            if _segments_conflict(vertices[ui], vertices[vi], vertices[uj], vertices[vj]):
                violations.append(Violation("crossing", (i, j)))

    for k, (u, v) in enumerate(endpoints):
        if k in zero_length:
            continue
        a, b = vertices[u], vertices[v]
        for w, p in enumerate(vertices):
            if w != u and w != v and _orient(a, b, p) == 0 and _within_box(a, b, p):
                violations.append(Violation("vertex_on_edge", (k,), vertex=w))
    return tuple(violations)


def exact_orient(a, b, c) -> int:
    fa = (Fraction(a[0]), Fraction(a[1]))
    det = (Fraction(b[0]) - fa[0]) * (Fraction(c[1]) - fa[1]) - (Fraction(b[1]) - fa[1]) * (
        Fraction(c[0]) - fa[0]
    )
    return (det > 0) - (det < 0)


# -- strategies -----------------------------------------------------------------


def _delaunay_pairs(pts) -> list[tuple[int, int]]:
    try:
        tri = Delaunay(np.asarray(pts, dtype=float))
    except (QhullError, ValueError):
        return []
    pairs = set()
    for simplex in tri.simplices:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            u, v = int(simplex[a]), int(simplex[b])
            pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


@st.composite
def delaunay_graphs(draw, width=10.0, height=10.0):
    """Random points, their Delaunay triangulation, then random edge deletion."""
    n = draw(st.integers(4, 16))
    xs = draw(st.lists(st.floats(0.0, width), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(0.0, height), min_size=n, max_size=n))
    pts = list(zip(xs, ys))
    pairs = _delaunay_pairs(pts)
    keep = [p for p in pairs if draw(st.booleans()) or draw(st.booleans())]
    return pts, keep


@st.composite
def degenerate_graphs(draw):
    """Points on a tiny integer grid: repeats, collinear overlaps, vertices on edges."""
    size = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    pts = draw(st.lists(st.tuples(st.integers(0, size), st.integers(0, size)), min_size=n, max_size=n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            max_size=24,
            unique=True,
        )
    )
    return [(float(x), float(y)) for x, y in pts], pairs


@st.composite
def hub_graphs(draw):
    """A hub in one corner whose spokes cross the whole box to the far sides."""
    pts, pairs = draw(delaunay_graphs())
    hub = len(pts)
    rim = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
    pts = pts + [(0.0, 0.0)] + [(10.0, t) if draw(st.booleans()) else (t, 10.0) for t in rim]
    pairs = pairs + [(hub, hub + 1 + r) for r in range(len(rim))]
    return pts, pairs


TRANSFORMS = {
    "identity": lambda x, y: (x, y),
    "scale-1e-160": lambda x, y: (x * 1e-160, y * 1e-160),
    "scale-1e150": lambda x, y: (x * 1e150, y * 1e150),
    "translate-1e6": lambda x, y: (x + 1e6, y + 1e6),
}


def _geometry(pts, pairs, transform):
    f = TRANSFORMS[transform]
    vertices = tuple(Point(*f(x, y)) for x, y in pts)
    return vertices, tuple(pairs)


def _assert_same_as_reference(pts, pairs, transform):
    vertices, endpoints = _geometry(pts, pairs, transform)
    assert _validate_geometry(vertices, endpoints) == reference_violations(vertices, endpoints)


transforms = st.sampled_from(sorted(TRANSFORMS))


@PROPERTY
@given(delaunay_graphs(), transforms)
def test_grid_matches_reference_on_delaunay_graphs(graph_, transform):
    _assert_same_as_reference(*graph_, transform)


@PROPERTY
@given(degenerate_graphs(), transforms)
def test_grid_matches_reference_on_degenerate_graphs(graph_, transform):
    _assert_same_as_reference(*graph_, transform)


@PROPERTY
@given(delaunay_graphs(width=1000.0, height=1.0), transforms)
def test_grid_matches_reference_on_thin_strips(graph_, transform):
    _assert_same_as_reference(*graph_, transform)


@PROPERTY
@given(hub_graphs(), transforms)
def test_grid_matches_reference_with_long_hub_edges(graph_, transform):
    _assert_same_as_reference(*graph_, transform)


def test_grid_matches_reference_on_crossing_soup():
    # Many long random segments: dense crossings in most grid cells.
    rng = np.random.default_rng(11)
    for transform in TRANSFORMS:
        pts = [tuple(p) for p in rng.uniform(0.0, 10.0, size=(40, 2))]
        pairs = sorted({(min(e), max(e)) for e in rng.integers(0, 40, size=(60, 2)) if e[0] != e[1]})
        _assert_same_as_reference(pts, [(int(u), int(v)) for u, v in pairs], transform)


# -- the predicate ----------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def near_collinear(draw):
    """c on the float-rounded line through a and b, at any scale."""
    scale = draw(st.sampled_from([1.0, 1e-154, 1e-160, 1e-300, 1e150, 1e300]))
    a = (draw(st.floats(-10, 10)) * scale, draw(st.floats(-10, 10)) * scale)
    b = (draw(st.floats(-10, 10)) * scale, draw(st.floats(-10, 10)) * scale)
    t = draw(st.floats(-2, 2))
    c = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    return a, b, c


@PROPERTY
@given(st.one_of(near_collinear(), st.tuples(*[st.tuples(finite, finite)] * 3)))
def test_orient_is_exact(abc):
    a, b, c = abc
    assert _orient(Point(*a), Point(*b), Point(*c)) == exact_orient(a, b, c)


# -- near-degenerate drawings are judged exactly -----------------------------------


def test_no_geometry_tolerance_left():
    assert not hasattr(graph, "GEOMETRY_EPS")


def test_thin_fan_is_accepted():
    # Two spokes 1e-13 rad apart, closed by a short rim edge.
    angle = 1e-13
    g = EmbeddedGraph(
        [(0.0, 0.0), (1.0, 0.0), (math.cos(angle), math.sin(angle))],
        [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)],
    )
    assert validate_embedding(g).ok


def test_thin_crossing_is_reported():
    # An X whose arms are 1e-13 apart at their ends.
    g = EmbeddedGraph(
        [(0.0, 0.0), (1.0, 1e-13), (0.0, 1e-13), (1.0, 0.0)],
        [(0, 1, 0.5), (2, 3, 0.5)],
    )
    assert validate_embedding(g).violations == (Violation("crossing", (0, 1)),)


def test_vertex_just_off_an_edge_is_not_on_it():
    g = EmbeddedGraph(
        [(0.0, 0.0), (2.0, 0.0), (1.0, 1e-17), (1.0, 1.0)],
        [(0, 1, 0.5), (2, 3, 0.5)],
    )
    assert validate_embedding(g).ok
    on = EmbeddedGraph(g.vertices[:2] + ((1.0, 0.0), (1.0, 1.0)), [(0, 1, 0.5), (2, 3, 0.5)])
    assert Violation("vertex_on_edge", (0,), vertex=2) in validate_embedding(on).violations


def test_overlap_is_reported_where_float_products_underflow():
    # Collinear edges from vertex 0, one inside the other; a * 2a underflows to 0.
    a = 1e-165
    g = EmbeddedGraph([(0.0, 0.0), (a, a), (2 * a, 2 * a)], [(0, 1, 0.5), (0, 2, 0.5)])
    assert validate_embedding(g).violations == (
        Violation("crossing", (0, 1)),
        Violation("vertex_on_edge", (1,), vertex=1),
    )


def test_violation_order_is_kind_then_index():
    # Edge 0 is zero-length; edges 1..3 pairwise cross at (1, 1); vertex 8 sits on edge 3.
    g = EmbeddedGraph(
        [(5, 5), (5, 5), (0, 0), (2, 2), (0, 2), (2, 0), (1, 0), (1, 2), (1.0, 1.5)],
        [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0), (6, 7, 1.0)],
    )
    assert validate_embedding(g).violations == (
        Violation("zero_length", (0,)),
        Violation("crossing", (1, 2)),
        Violation("crossing", (1, 3)),
        Violation("crossing", (2, 3)),
        Violation("vertex_on_edge", (3,), vertex=8),
    )
