"""Embedded-graph data model: validation, turning angles, directed ids, file I/O."""

import json
import math

import numpy as np
import pytest

from kacward import (
    Edge,
    EmbeddedGraph,
    GraphFormatError,
    Point,
    connected_components,
    dumps_graph,
    edge_index,
    gen_hex,
    gen_square,
    loads_graph,
    max_degree,
    reverse_edge,
    turning_angle,
    validate_embedding,
)
from kacward.graph import _clockwise_rotation
from kacward.transition import _layout
from conftest import (
    disjoint_union,
    make_bowtie,
    make_path3,
    make_single_edge,
    make_tied_hub,
    make_triangle,
    make_wheel,
)


# -- construction ---------------------------------------------------------


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        EmbeddedGraph([(0, 0), (1, 0)], [(0, 0, 1.0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicates"):
        EmbeddedGraph([(0, 0), (1, 0)], [(0, 1, 1.0), (1, 0, 2.0)])


def test_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        EmbeddedGraph([(0, 0), (1, 0)], [(0, 2, 1.0)])


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        EmbeddedGraph([(0, 0), (float("nan"), 0)], [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        EmbeddedGraph([(0, 0), (1, 0)], [(0, 1, float("inf"))])


def test_first_defective_edge_is_reported():
    # Edge 3 duplicates edge 0; edge 5 has an out-of-range index.
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 0, 1.0), (0, 2, 1.0), (0, 9, 1.0)]
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    message = r"^edge 3 duplicates undirected edge \(0, 1\)$"
    with pytest.raises(ValueError, match=message):
        EmbeddedGraph(vertices, edges)
    with pytest.raises(ValueError, match=message):
        EmbeddedGraph(vertices, [Edge(*e) for e in edges])  # one edge at a time
    text = json.dumps({"vertices": vertices, "edges": edges})
    with pytest.raises(GraphFormatError, match=message):
        loads_graph(text)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1, 1.0), (2, -1, 1.0)], "edge 1 references vertex out of range: (2, -1)"),
        ([(0, 1, 1.0), (2, 2**70, 1.0)], f"edge 1 references vertex out of range: (2, {2**70})"),
        ([(0, 1, 1.0), (2, 2, 1.0)], "edge 1 is a self-loop at vertex 2"),
        ([(0, 1, 1.0), (1, 2, math.nan), (0, 9, 1.0)], "edge 1 has non-finite weight nan"),
        ([(0, 1, -math.inf), (1, 1, 1.0)], "edge 0 has non-finite weight -inf"),
        ([(0, 1, 1.0), (2, 1, 1.0), (1, 2, 1.0)], "edge 2 duplicates undirected edge (1, 2)"),
    ],
)
def test_edge_errors_are_the_same_in_bulk_and_one_at_a_time(edges, message):
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    for given in (edges, [Edge(*e) for e in edges]):
        with pytest.raises(ValueError) as info:
            EmbeddedGraph(vertices, given)
        assert str(info.value) == message
    with pytest.raises(GraphFormatError) as info:
        loads_graph(json.dumps({"vertices": vertices, "edges": edges}))
    assert str(info.value) == message


def test_vertex_errors_are_the_same_in_bulk_and_one_at_a_time():
    message = "vertex 1 has non-finite coordinates (inf, 0.0)"
    in_bulk = [(0.0, 0.0), (math.inf, 0.0), (math.nan, 0.0)]
    for given in (in_bulk, [Point(0.0, 0.0), Point(math.inf, 0.0)]):
        with pytest.raises(ValueError) as info:
            EmbeddedGraph(given, [])
        assert str(info.value) == message
    with pytest.raises(GraphFormatError) as info:
        loads_graph('{"vertices": [[0, 0], [Infinity, 0]], "edges": []}')
    assert str(info.value) == message


HUGE = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (f"[[0, 0], [1, -{HUGE}], [1, 1]]", "[[0, 0, 0.5]]", "vertex 1 y"),
        ("[[0, 0], [1, 0], [1, 1]]", f"[[0, 0, 0.5], [1, 2, {HUGE}]]", "edge 1 weight"),
    ],
    ids=["coordinate", "weight"],
)
def test_an_integer_beyond_the_float_range_is_named(vertices, edges, message):
    # Named as it is parsed, before edge 0, a self-loop, is looked at.
    with pytest.raises(GraphFormatError) as info:
        loads_graph(f'{{"vertices": {vertices}, "edges": {edges}}}')
    assert str(info.value) == f"{message} is an integer beyond the float range"


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([(0, 0), (1, 0)], [(0, 0, 1.0), (0, 1, 10**400)], "edge 1 weight"),
        ([(0, 0), (1, 0), (1, 1)], [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 10**400)], "edge 2 weight"),
        ([(0, 0), (math.inf, 0), (1, 1)], [(0, 1, 1.0), (1, 2, 10**400)], "edge 1 weight"),
        ([(0, 0), (math.nan, 0), (1, 10**400)], [(0, 1, 1.0)], "vertex 2 y"),
    ],
    ids=["self-loop", "duplicate", "vertex-then-weight", "vertex-then-coordinate"],
)
def test_every_input_form_names_a_conversion_defect_first(vertices, edges, message):
    # Conversion defects come first, in item order, as a graph file is read;
    # then the first non-finite vertex, then the first defective edge.
    message += " is an integer beyond the float range"
    points, objects = [Point(*p) for p in vertices], [Edge(*e) for e in edges]
    for given in ((vertices, edges), (points, objects)):
        with pytest.raises(ValueError) as info:
            EmbeddedGraph(*given)
        assert str(info.value) == message
    with pytest.raises(GraphFormatError) as info:
        loads_graph(json.dumps({"vertices": vertices, "edges": edges}))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: EmbeddedGraph([(0, 0), (10**400, 0)], [(0, 1, 0.5)]), "vertex 1 x"),
        (lambda: EmbeddedGraph([Point(0, 0), Point(1, -(10**400))], []), "vertex 1 y"),
        (lambda: EmbeddedGraph([(0, 0), (1, 0), (1, 1)], [(0, 1, 0.5), (1, 2, 10**400)]),
         "edge 1 weight"),
        (lambda: EmbeddedGraph([(0, 0), (1, 0)], [Edge(0, 1, 10**400)]), "edge 0 weight"),
        (lambda: make_triangle().with_weights([0.5, 0.5, -(10**400)]), "edge 2 weight"),
    ],
    ids=["coordinate", "point", "weight", "edge-object", "with-weights"],
)
def test_library_callers_get_an_integer_beyond_the_float_range_named(make, message):
    # Worded as ``loads_graph`` words it, and a ValueError, not OverflowError.
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == f"{message} is an integer beyond the float range"


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([(0, 0), (1, 0)], [(0, 1, None)], "edge 0 weight must be a number, got None"),
        ([(0, 0), (1, 0)], [(0, 1, 0.5), (0, 1, "w")], "edge 1 weight must be a number, got 'w'"),
        ([(0, 0), (1, 0)], [("a", 1, 0.5)], "edge 0 endpoint u must be an integer, got 'a'"),
        ([(0, 0), (1, 0)], [(0, None, 0.5)], "edge 0 endpoint v must be an integer, got None"),
        ([(0, 0), (1, 0)], [(0, 1)], "edge 0 must be a triple [u, v, weight]"),
        ([(0, 0), (1, 0)], [(0, 1, 0.5, 0.5)], "edge 0 must be a triple [u, v, weight]"),
        ([(0, 0), (1, 0)], [7], "edge 0 must be a triple [u, v, weight]"),
        ([(0, 0), (1, None)], [(0, 1, None)], "vertex 1 y must be a number, got None"),
        ([("x", 0), (1, 0)], [], "vertex 0 x must be a number, got 'x'"),
        ([(0, 0), (1,)], [], "vertex 1 must be a pair [x, y]"),
        ([(0, 0), 3], [], "vertex 1 must be a pair [x, y]"),
    ],
    ids=[
        "weight-none", "weight-string", "endpoint-string", "endpoint-none", "pair",
        "quadruple", "scalar-edge", "vertex-first", "coordinate-string", "single", "scalar-vertex",
    ],
)
def test_a_value_that_does_not_convert_is_named_as_a_graph_file_names_it(
    vertices, edges, message
):
    # The library raises the TypeError or ValueError that the conversion
    # raised, worded as ``loads_graph`` words the same defect.
    with pytest.raises((TypeError, ValueError)) as info:
        EmbeddedGraph(vertices, edges)
    assert str(info.value) == message
    with pytest.raises(GraphFormatError) as info:
        loads_graph(json.dumps({"vertices": vertices, "edges": edges}))
    assert str(info.value) == message


def test_point_and_edge_objects_name_a_value_that_does_not_convert():
    with pytest.raises(TypeError, match=r"^vertex 1 y must be a number, got None$"):
        EmbeddedGraph([Point(0, 0), Point(1, None)], [])
    with pytest.raises(TypeError, match=r"^edge 0 weight must be a number, got None$"):
        EmbeddedGraph([(0, 0), (1, 0)], [Edge(0, 1, None)])
    with pytest.raises(ValueError, match=r"^edge 0 endpoint u must be an integer, got inf$"):
        EmbeddedGraph([(0, 0), (1, 0)], [Edge(math.inf, 1, 0.5)])


def test_signed_zeros_give_equal_graphs_and_hashes():
    g = EmbeddedGraph([(0.0, -0.0), (1.0, 0.0)], [(0, 1, 0.0)])
    h = EmbeddedGraph([(-0.0, 0.0), (1.0, -0.0)], [(0, 1, -0.0)])
    assert g == h and hash(g) == hash(h)
    assert g.with_weights([-0.0]) == g and hash(g.with_weights([-0.0])) == hash(g)


def test_large_integer_coordinates_parse_as_float_does():
    text = json.dumps({"vertices": [[2**70, -(2**70) - 1], [0, 3]], "edges": [[0, 1, 2**60]]})
    g = loads_graph(text)
    assert g.vertices == (Point(float(2**70), float(-(2**70) - 1)), Point(0.0, 3.0))
    assert g.weights() == (float(2**60),)
    assert all(type(c) is float for p in g.vertices for c in (p.x, p.y))


def test_construction_makes_no_point_until_vertices_are_read(monkeypatch):
    from kacward import graph

    made = []

    class CountingPoint(Point):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(graph, "Point", CountingPoint)
    g = loads_graph(dumps_graph(gen_square(3, 2, 0.5)))  # no orientation needs rationals
    h = g.with_weights([0.25] * g.num_edges)
    assert validate_embedding(h).ok and made == []
    assert h.vertices is g.vertices and len(made) == g.num_vertices == 12


def test_graph_is_immutable():
    g = make_triangle()
    with pytest.raises(AttributeError):
        g.vertices = ()


def test_with_weights_preserves_geometry():
    g = make_triangle()
    h = g.with_weights([0.1, 0.2, 0.3])
    assert h.vertices == g.vertices
    assert h.weights() == (0.1, 0.2, 0.3)
    assert h != g


def test_with_weights_checks_only_weights():
    g = make_triangle()
    h = g.with_weights([0.1, 0.2, 0.3])
    assert h == EmbeddedGraph(g.vertices, [(0, 1, 0.1), (1, 2, 0.2), (2, 0, 0.3)])
    assert h.vertices is g.vertices and h._geometry is g._geometry
    with pytest.raises(ValueError, match="expected 3 weights, got 2"):
        g.with_weights([0.1, 0.2])
    with pytest.raises(ValueError, match="edge 1 has non-finite weight nan"):
        g.with_weights([0.1, float("nan"), 0.3])


@pytest.mark.parametrize("make", [make_triangle, make_bowtie, lambda: EmbeddedGraph([], [])])
def test_with_weights_copy_has_the_fresh_graphs_value_semantics(make):
    g = make()
    ws = [(-1.0) ** k * (k + 1) / 8 for k in range(g.num_edges)]
    if ws:
        ws[-1] = 0.0
    h = g.with_weights(ws)
    fresh = EmbeddedGraph(
        [(p.x, p.y) for p in g.vertices], [(e.u, e.v, w) for e, w in zip(g.edges, ws)]
    )
    assert h.edges == fresh.edges and all(type(e.weight) is float for e in h.edges)
    assert h == fresh and hash(h) == hash(fresh)
    assert h.weights() == fresh.weights() == tuple(ws)
    for k in range(g.num_edges):
        assert type(h.edge_weight(k)) is float and h.edge_weight(k) == fresh.edge_weight(k)
    for d in range(g.num_directed):
        assert type(h.directed_weight(d)) is float
        assert h.directed_weight(d) == fresh.directed_weight(d)
    assert dumps_graph(h) == dumps_graph(fresh)
    assert loads_graph(dumps_graph(h)) == h
    assert (h != g) == (ws != list(g.weights()))


def test_with_weights_copies_its_input_and_keeps_error_messages():
    g = make_bowtie()
    ws = np.full(6, 0.25)
    h = g.with_weights(ws)
    ws[0] = 0.5
    assert h.weights() == (0.25,) * 6
    with pytest.raises(ValueError, match=r"^expected 6 weights, got 7$"):
        g.with_weights([0.1] * 7)
    with pytest.raises(ValueError, match=r"^edge 2 has non-finite weight inf$"):
        g.with_weights([0.1, 0.2, math.inf, float("nan"), 0.3, 0.4])
    with pytest.raises(ValueError, match=r"^edge 5 has non-finite weight -inf$"):
        g.with_weights([0.1] * 5 + [-math.inf])
    with pytest.raises(ValueError, match=r"^edge 0 has non-finite weight nan$"):
        g.with_weights(np.array([np.nan] * 6))


# -- directed edge conventions -------------------------------------------


def test_directed_id_conventions():
    g = make_triangle()
    for d in range(g.num_directed):
        assert reverse_edge(reverse_edge(d)) == d
        assert edge_index(d) == d // 2
        assert g.tail(reverse_edge(d)) == g.head(d)
        assert g.head(reverse_edge(d)) == g.tail(d)


def test_out_edges_partition_directed_ids():
    g = make_bowtie()
    collected = sorted(d for v in range(g.num_vertices) for d in g.out_edges(v))
    assert collected == list(range(g.num_directed))


def test_scalar_accessors_agree_with_edges_and_vertices(corpus):
    graphs = corpus + [make_wheel(k) for k in range(3, 7)] + [EmbeddedGraph([], [])]
    sizes = [(w, h) for w in range(1, 9) for h in range(1, 9)]
    graphs += [gen(w, h, 0.5) for gen in (gen_square, gen_hex) for w, h in sizes]
    for g in graphs:
        pts, edges = g.vertices, g.edges
        tails = [x for e in edges for x in (e.u, e.v)]
        heads = [x for e in edges for x in (e.v, e.u)]
        out = [[] for _ in pts]
        for d, t in enumerate(tails):
            out[t].append(d)
        ids, vs = range(g.num_directed), range(len(pts))
        got_tails, got_heads = [g.tail(d) for d in ids], [g.head(d) for d in ids]
        got_out = [g.out_edges(v) for v in vs]
        assert got_tails == tails and got_heads == heads
        assert got_out == [tuple(o) for o in out]
        assert g.degrees == tuple(map(len, out)) == tuple(g.degree(v) for v in vs)
        assert [g.direction(d) for d in ids] == [
            (pts[h].x - pts[t].x, pts[h].y - pts[t].y) for t, h in zip(tails, heads)
        ]
        assert max_degree(g) == max(map(len, out), default=0)
        ints = got_tails + got_heads + [d for o in got_out for d in o] + list(g.degrees)
        assert all(type(x) is int for x in ints + [max_degree(g)])


def test_scalar_accessors_index_as_tuples_do():
    g = make_bowtie()
    last_d, last_v = g.num_directed - 1, g.num_vertices - 1
    assert (g.tail(-1), g.head(-1)) == (g.tail(last_d), g.head(last_d))
    assert (g.out_edges(-1), g.degree(-1)) == (g.out_edges(last_v), g.degree(last_v))
    assert g.direction(-1) == g.direction(last_d)
    for read, past in [(g.tail, last_d + 1), (g.head, last_d + 1), (g.out_edges, last_v + 1),
                       (g.degree, last_v + 1), (g.direction, last_d + 1)]:
        with pytest.raises(IndexError):
            read(past)


# -- validation -----------------------------------------------------------


def test_triangle_validates():
    assert validate_embedding(make_triangle()).ok


def test_proper_crossing_detected():
    g = EmbeddedGraph(
        [(0, 0), (2, 0), (1, -1), (1, 1)],
        [(0, 1, 1.0), (2, 3, 1.0)],
    )
    report = validate_embedding(g)
    assert not report.ok
    assert any(v.kind == "crossing" and v.edges == (0, 1) for v in report.violations)


def test_shared_endpoint_is_fine():
    g = EmbeddedGraph(
        [(0, 0), (1, 0), (2, 0)],
        [(0, 1, 1.0), (1, 2, 1.0)],
    )
    assert validate_embedding(g).ok


def test_collinear_overlap_through_shared_endpoint_detected():
    # Both edges leave vertex 1 leftward along the x axis and overlap.
    g = EmbeddedGraph(
        [(0, 0), (2, 0), (1, 0)],
        [(0, 1, 1.0), (2, 1, 1.0)],
    )
    report = validate_embedding(g)
    assert not report.ok


def test_zero_length_edge_detected():
    g = EmbeddedGraph([(0, 0), (0, 0), (1, 1)], [(0, 1, 1.0), (1, 2, 1.0)])
    report = validate_embedding(g)
    assert any(v.kind == "zero_length" for v in report.violations)


def test_edge_through_third_vertex_detected():
    g = EmbeddedGraph([(0, 0), (2, 0), (1, 0)], [(0, 1, 1.0)])
    report = validate_embedding(g)
    assert any(
        v.kind == "vertex_on_edge" and v.vertex == 2 for v in report.violations
    )


def test_t_junction_detected():
    # Edge 1 ends in the middle of edge 0 without sharing a vertex.
    g = EmbeddedGraph(
        [(0, 0), (2, 0), (1, 0.0), (1, 1)],
        [(0, 1, 1.0), (2, 3, 1.0)],
    )
    report = validate_embedding(g)
    assert not report.ok


def test_validation_order_independent():
    rng = np.random.default_rng(7)
    g = EmbeddedGraph(
        [(0, 0), (2, 0), (1, -1), (1, 1), (3, 3), (3, 0)],
        [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)],
    )
    base = validate_embedding(g)
    perm = rng.permutation(g.num_edges)
    permuted = EmbeddedGraph(
        g.vertices, [g.edges[k] for k in perm]
    )
    report = validate_embedding(permuted)
    # Map violations back through the permutation and compare as sets.
    inverse = {int(new): old for old, new in enumerate(perm)}

    def canon(report, relabel):
        out = set()
        for v in report.violations:
            edges = tuple(sorted(relabel[e] for e in v.edges))
            out.add((v.kind, edges, v.vertex))
        return out

    assert canon(report, {i: int(perm[i]) for i in range(len(perm))}) == canon(
        base, {i: i for i in range(g.num_edges)}
    )
    assert base.ok == report.ok


# -- turning angles -------------------------------------------------------


def test_turning_angle_collinear_continuation():
    g = EmbeddedGraph([(0, 0), (1, 0), (2, 0)], [(0, 1, 1.0), (1, 2, 1.0)])
    assert turning_angle(g, 0, 2) == 0.0


def test_turning_angle_left_turn():
    g = EmbeddedGraph([(0, 0), (1, 0), (1, 1)], [(0, 1, 1.0), (1, 2, 1.0)])
    assert turning_angle(g, 0, 2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_turning_angle_backtrack_is_plus_pi():
    g = make_single_edge()
    assert turning_angle(g, 0, 1) == math.pi
    assert turning_angle(g, 1, 0) == math.pi


def test_turning_angle_zero_length_errors():
    g = EmbeddedGraph([(0, 0), (0, 0), (1, 0)], [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        turning_angle(g, 0, 2)


def test_turning_angle_needs_consecutive_edges():
    g = make_triangle()
    with pytest.raises(ValueError, match="does not leave the head of 0"):
        turning_angle(g, 0, 4)


def test_turning_angle_antisymmetry():
    # angle(e, f) == -angle(reverse(f), reverse(e)) away from the pi boundary.
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = rng.uniform(-5, 5, size=(3, 2))
        try:
            g = EmbeddedGraph(pts, [(0, 1, 1.0), (1, 2, 1.0)])
        except ValueError:
            continue
        if (pts[0] == pts[1]).all() or (pts[1] == pts[2]).all():
            continue
        a = turning_angle(g, 0, 2)
        b = turning_angle(g, reverse_edge(2), reverse_edge(0))
        if abs(a) == math.pi:
            continue
        assert a == pytest.approx(-b, abs=1e-15)


def test_turning_angle_strict_interior_unless_backtracking(corpus):
    # On validated graphs, consecutive distinct directed edges never turn by pi.
    for g in corpus[:20]:
        for d in range(g.num_directed):
            for f in g.out_edges(g.head(d)):
                if f == reverse_edge(d):
                    continue
                a = turning_angle(g, d, f)
                assert -math.pi < a < math.pi


# -- clockwise rotation ----------------------------------------------------


def rotations(g):
    """The out-edges of each vertex in the clockwise rotation."""
    rotation, ptr = _clockwise_rotation(g._geometry).tolist(), g._geometry.out_ptr.tolist()
    return [rotation[a:b] for a, b in zip(ptr, ptr[1:])]


def float_fan_order(g, v):
    """Clockwise order from sorted ``math.atan2`` angles in [0, 2 pi): the
    smallest first, then the others by decreasing angle, ties by id."""

    def angle_of(d):
        a = math.atan2(g.direction(d)[1], g.direction(d)[0])
        return a if a >= 0 else a + 2 * math.pi

    outs = sorted(g.out_edges(v), key=angle_of)
    return [outs[0]] + sorted(outs[1:], key=angle_of, reverse=True)


def faces(g):
    """The cycles of next(d), the out-edge that follows ``d ^ 1`` in the
    clockwise rotation at the head of ``d``: the faces of each component,
    each as the list of its directed edges."""
    fans = rotations(g)

    def nxt(d):
        fan = fans[g.head(d)]
        return fan[(fan.index(d ^ 1) + 1) % len(fan)]

    seen, cycles = [False] * g.num_directed, []
    for d in range(g.num_directed):
        if not seen[d]:
            cycles.append([])
        while not seen[d]:
            seen[d] = True
            cycles[-1].append(d)
            d = nxt(d)
    return cycles


def rotation_graphs(corpus):
    yield from corpus
    for L in range(1, 17):
        yield gen_square(L, L, 0.5)
        yield gen_hex(L, L, 0.5)
    for spokes in (3, 4, 5, 6, 200):
        yield make_wheel(spokes)


def test_rotation_is_the_float_fan_order_away_from_ties(corpus):
    for g in rotation_graphs(corpus):
        for v, fan in enumerate(rotations(g)):
            if fan:
                assert fan == float_fan_order(g, v)


def test_eulers_formula_holds_for_the_rotations_faces(corpus):
    # A cross-check of the rotation, not of the drawing: V - E + F = 2 per
    # component, an isolated vertex being a component without faces.
    for g in rotation_graphs(corpus):
        isolated = g.degrees.count(0)
        count = len(faces(g))
        assert g.num_vertices - g.num_edges + count + isolated == 2 * connected_components(g)


def component_labels(g):
    """A label per vertex, shared by exactly the vertices of one component."""
    label = list(range(g.num_vertices))

    def root(v):
        while label[v] != v:
            v = label[v]
        return v

    for e in g.edges:
        label[root(e.u)] = root(e.v)
    return [root(v) for v in range(g.num_vertices)]


def test_every_face_turns_by_two_pi(corpus):
    # Along the layout's turning angles, with -pi for the backtrack at a
    # degree-1 vertex, each bounded face turns by +2 pi and the outer face
    # of each component with edges by -2 pi.  This ties the layout's angles,
    # its signed turns near +-pi included, to the rotation's faces.
    graphs = [*corpus, make_path3(), make_single_edge(), make_bowtie()]
    graphs += [gen(L, L, 0.5) for L in range(1, 9) for gen in (gen_square, gen_hex)]
    graphs += [make_wheel(spokes) for spokes in (3, 4, 5, 6, 200)]
    graphs += [make_tied_hub(), make_tied_hub(True), disjoint_union(make_bowtie(), make_path3())]
    # The hub's two tied spokes alone: the face turns at the hub by
    # pi - 1e-17 one way and -pi + 1e-17 the other, both +-pi in floats.
    spokes = [(0.0, 0.0), (-1.0, 1e-17), (-1.0, 2e-17)]
    graphs.append(EmbeddedGraph(spokes, [(0, 1, 0.5), (0, 2, 0.5)]))
    for g in graphs:
        layout = _layout(g)
        angle = dict(zip(zip(layout.rows.tolist(), layout.cols.tolist()), layout.angle.tolist()))
        labels = component_labels(g)
        outer = []
        for face in faces(g):
            steps = zip(face, face[1:] + face[:1])
            turn = sum(-math.pi if f == d ^ 1 else angle[d, f] for d, f in steps)
            if turn < 0:
                assert turn == pytest.approx(-2 * math.pi, abs=1e-9)
                outer.append(labels[g.tail(face[0])])
            else:
                assert turn == pytest.approx(2 * math.pi, abs=1e-9)
        assert sorted(outer) == sorted({labels[e.u] for e in g.edges})


def components_by_search(g):
    """Reference: connected components by depth-first search, isolated vertices included."""
    seen, count = [False] * g.num_vertices, 0
    for start in range(g.num_vertices):
        if seen[start]:
            continue
        count += 1
        stack, seen[start] = [start], True
        while stack:
            for d in g.out_edges(stack.pop()):
                if not seen[g.head(d)]:
                    seen[g.head(d)] = True
                    stack.append(g.head(d))
    return count


def test_connected_components_match_a_depth_first_search(corpus):
    rng = np.random.default_rng(5)
    sparse = []
    for n in rng.integers(0, 40, size=100).tolist():
        pairs = {tuple(sorted(p)) for p in rng.integers(0, max(n, 1), size=(n, 2)).tolist()}
        edges = [(u, v, 0.5) for u, v in pairs if u != v]
        sparse.append(EmbeddedGraph(rng.uniform(0, 1, size=(n, 2)), edges))
    for g in [*rotation_graphs(corpus), *sparse]:
        assert connected_components(g) == components_by_search(g)


@pytest.mark.parametrize("seed", range(4))
def test_rotation_orders_directions_that_tie_in_floats_exactly(seed):
    # Clockwise from the smallest angle, 0.  The directions near 0, near pi
    # and near 2 pi each tie under atan2 rounding or lie within 1e-12.
    clockwise = [
        (1.0, 0.0),
        (1.0, -1e-300),
        (1.0, -1e-17),
        (1.0, -2e-17),
        (-1.0, 1e-17),
        (-1.0, 2e-17),
        (1.0, 2e-17),
        (1.0, 1e-17),
        (1.0, 1e-300),
    ]
    listed = [clockwise[i] for i in np.random.default_rng(seed).permutation(len(clockwise))]
    g = EmbeddedGraph([(0.0, 0.0)] + listed, [(0, k + 1, 0.5) for k in range(len(listed))])
    assert validate_embedding(g).ok
    assert [listed[d >> 1] for d in rotations(g)[0]] == clockwise


# -- degrees ---------------------------------------------------------------


def test_max_degree_examples():
    assert max_degree(make_triangle()) == 2
    assert max_degree(make_single_edge()) == 1
    assert max_degree(make_bowtie()) == 4
    assert max_degree(EmbeddedGraph([(0, 0)], [])) == 0


# -- file format ------------------------------------------------------------


def test_round_trip_exact():
    g = make_bowtie(weights=[0.1, 0.25, 1 / 3, 0.7, 1e-3, 0.99])
    assert loads_graph(dumps_graph(g)) == g


def test_round_trip_is_deterministic():
    g = make_triangle()
    assert dumps_graph(g) == dumps_graph(loads_graph(dumps_graph(g)))


def test_parse_rejects_unknown_fields():
    with pytest.raises(GraphFormatError, match="unknown"):
        loads_graph('{"vertices": [[0,0],[1,0]], "edges": [[0,1,1.0]], "extra": 1}')


def test_parse_rejects_missing_fields():
    with pytest.raises(GraphFormatError):
        loads_graph('{"vertices": [[0,0],[1,0]]}')


def test_parse_rejects_out_of_range():
    with pytest.raises(GraphFormatError):
        loads_graph('{"vertices": [[0,0],[1,0]], "edges": [[0,5,1.0]]}')


def test_parse_rejects_malformed():
    with pytest.raises(GraphFormatError):
        loads_graph("not json at all")
    with pytest.raises(GraphFormatError):
        loads_graph('[1, 2, 3]')
    with pytest.raises(GraphFormatError):
        loads_graph('{"vertices": [[0,0],[1,0]], "edges": [[0,1]]}')
    with pytest.raises(GraphFormatError):
        loads_graph('{"vertices": [[0,0],[1,0]], "edges": [[0, true, 1.0]]}')
