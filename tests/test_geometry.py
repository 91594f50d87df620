"""Exact, grid-bucketed embedding validation against the all-pairs reference scan."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
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


def _arrays(vertices, endpoints):
    """The coordinate and endpoint arrays that ``_validate_geometry`` reads."""
    xy = np.array([(p.x, p.y) for p in vertices], dtype=np.float64).reshape(-1, 2)
    return xy, np.array(endpoints, dtype=np.intp).reshape(-1, 2)


def _assert_same_as_reference(pts, pairs, transform):
    vertices, endpoints = _geometry(pts, pairs, transform)
    assert _validate_geometry(*_arrays(vertices, endpoints)) == reference_violations(
        vertices, endpoints
    )


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


def crossing_soups():
    """Many long random segments, one soup per transform: dense crossings in most grid cells."""
    rng = np.random.default_rng(11)
    for transform in TRANSFORMS:
        pts = [tuple(p) for p in rng.uniform(0.0, 10.0, size=(40, 2))]
        pairs = sorted({(min(e), max(e)) for e in rng.integers(0, 40, size=(60, 2)) if e[0] != e[1]})
        yield pts, [(int(u), int(v)) for u, v in pairs], transform


def test_grid_matches_reference_on_crossing_soup():
    for soup in crossing_soups():
        _assert_same_as_reference(*soup)


def _ulp_run(x: float, count: int) -> list[float]:
    """``x`` and the ``count - 1`` floats after it."""
    run = [x]
    for _ in range(count - 1):
        run.append(math.nextafter(run[-1], math.inf))
    return run


# Coordinates one ulp apart, where sums and differences round, overflow or
# underflow: near 1, near the top of the float range on both sides, and
# among subnormals.
ULP_POOLS = (
    _ulp_run(1.0, 4) + _ulp_run(-1.0, 3) + [0.0, 2.0],
    _ulp_run(1.5e308, 3) + _ulp_run(-1.5e308, 3) + [1.7e308, -1.7e308, 0.0],
    _ulp_run(1.4e308, 2) + _ulp_run(1.6e308, 2) + [1.5e308],
    [5e-324, -5e-324, 1e-308, 2.2e-308, 0.0, 1e-300, -1e-300],
)


@st.composite
def ulp_graphs(draw):
    """Up to 8 points drawn from one ``ULP_POOLS`` pool, often on the diagonal."""
    pool = draw(st.sampled_from(ULP_POOLS))
    n = draw(st.integers(2, 8))
    coordinate = st.sampled_from(pool)
    if draw(st.booleans()):
        pts = [(c, c) for c in draw(st.lists(coordinate, min_size=n, max_size=n))]
    else:
        pts = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=12,
            unique_by=lambda e: (min(e), max(e)),
        )
    )
    return pts, pairs


@PROPERTY
@given(ulp_graphs())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_matches_reference_on_coordinates_one_ulp_apart(graph_):
    _assert_same_as_reference(*graph_, "identity")


# -- the pair arrays are built in bounded chunks -------------------------------------


def _capped(monkeypatch, cap):
    """Set the chunk cap; returns the sizes of the pair chunks built, and of the
    batches whose orientations were decided, from then on."""
    sizes = []
    real_chunks, real_conflicts = graph._pair_chunks, graph._conflicts

    def recording(first, length):
        for rows, partners in real_chunks(first, length):
            sizes.append(len(rows))
            yield rows, partners

    def deciding(*args):
        sizes.append(len(args[-1]))
        return real_conflicts(*args)

    monkeypatch.setattr(graph, "_PAIR_CAP", cap)
    monkeypatch.setattr(graph, "_pair_chunks", recording)
    monkeypatch.setattr(graph, "_conflicts", deciding)
    return sizes


@pytest.mark.parametrize("cap", [1, 7, graph._PAIR_CAP])
def test_chunk_cap_changes_no_verdict_on_the_crossing_soup(monkeypatch, cap):
    sizes = _capped(monkeypatch, cap)
    for soup in crossing_soups():
        _assert_same_as_reference(*soup)
    assert sizes and max(sizes) <= cap
    if cap < 100:
        assert len(sizes) > len(TRANSFORMS)  # the pairs really were split


@pytest.mark.parametrize("cap", [1, 7, graph._PAIR_CAP])
def test_chunk_cap_changes_no_verdict_on_hub_graphs(cap):
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(hub_graphs(), transforms)
    def check(graph_, transform):
        with pytest.MonkeyPatch.context() as m:
            sizes = _capped(m, cap)
            _assert_same_as_reference(*graph_, transform)
        assert max(sizes, default=0) <= cap

    check()


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


def _check_against_reference(vertices, endpoints, expected):
    vertices = tuple(Point(*p) for p in vertices)
    assert reference_violations(vertices, endpoints) == expected
    assert _validate_geometry(*_arrays(vertices, endpoints)) == expected


def test_edge_one_ulp_long_is_accepted():
    # The far end of the edge from its own endpoint is one ulp away.
    _check_against_reference([(1.0, 0.0), (math.nextafter(1.0, 2.0), 0.0)], [(0, 1)], ())


def test_overlap_of_edges_one_ulp_apart_is_reported():
    x1 = math.nextafter(1.0, 2.0)
    x2 = math.nextafter(x1, 2.0)
    _check_against_reference(
        [(1.0, 0.0), (x1, 0.0), (x2, 0.0)],
        [(0, 1), (0, 2)],
        (Violation("crossing", (0, 1)), Violation("vertex_on_edge", (1,), vertex=1)),
    )


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overlap_near_the_float_limit_is_reported(sign):
    # From the shared vertex 0 both edges run towards the origin, so the sum
    # of the ends of either edge overflows.
    far = [(sign * c, sign * c) for c in (1.6e308, 1.5e308, 1.4e308)]
    _check_against_reference(
        far,
        [(0, 1), (2, 0)],
        (Violation("crossing", (0, 1)), Violation("vertex_on_edge", (1,), vertex=1)),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_drawing_wider_than_the_float_range():
    # The bounding box's extent overflows to inf on both axes.
    _check_against_reference(
        [(-1.5e308, -1.5e308), (1.5e308, 1.5e308), (-1.5e308, 1.5e308), (1.5e308, -1.5e308)],
        [(0, 1), (2, 3)],
        (Violation("crossing", (0, 1)),),
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


# -- the verdict, kept in the geometry record ----------------------------------------


def count_validations(monkeypatch) -> list:
    calls = []
    real = graph._validate_geometry

    def counting(vertices, endpoints):
        calls.append(len(endpoints))
        return real(vertices, endpoints)

    monkeypatch.setattr(graph, "_validate_geometry", counting)
    return calls


def test_beta_sweep_validates_the_geometry_once(monkeypatch):
    from kacward import gen_square, ising_partition_kw, uniform_ising

    calls = count_validations(monkeypatch)
    g = gen_square(6, 4, 0.5)
    for beta in np.linspace(0.1, 0.8, 8):
        ising_partition_kw(uniform_ising(g, float(beta)))
    assert calls == [g.num_edges]


def test_verdict_cache_stays_small():
    # No module-level cache holds a geometry: its record, verdict included,
    # lives exactly as long as the graphs that share it.
    import gc
    import weakref

    from kacward import gen_square, ising_partition_kw, uniform_ising

    records = []
    for width in range(1, 13):
        g = gen_square(width, 1, 0.5)
        assert validate_embedding(g).ok
        ising_partition_kw(uniform_ising(g, 0.3))
        records.append(weakref.ref(g._geometry))
    h = g.with_weights([0.25] * g.num_edges)
    del g
    gc.collect()
    assert [r() is None for r in records] == [True] * 11 + [False]
    assert records[-1]() is h._geometry and h._geometry.violations == ()
    del h
    gc.collect()
    assert records[-1]() is None


def test_invalid_drawing_is_refused_on_every_beta(monkeypatch):
    from kacward import InvalidEmbeddingError, ising_partition_kw, uniform_ising

    calls = count_validations(monkeypatch)
    # Edges 0 and 1 cross at (1, 1); edge 2 is a legal pendant.
    g = EmbeddedGraph([(0, 0), (2, 2), (0, 2), (2, 0), (3, 0)], [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    messages = []
    for beta in (0.1, 0.44, 1.0, 40.0):
        with pytest.raises(InvalidEmbeddingError) as info:
            ising_partition_kw(uniform_ising(g, beta))
        messages.append(str(info.value))
    assert messages == [
        "invalid embedding: 1 violation(s), first: crossing on edges (0, 1)"
    ] * 4
    assert calls == [3]
