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
    dumps_graph,
    edge_index,
    gen_square,
    loads_graph,
    max_degree,
    reverse_edge,
    turning_angle,
    validate_embedding,
)
from conftest import make_bowtie, make_single_edge, make_triangle


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
    assert h.vertices is g.vertices and h.out_edges(1) is g.out_edges(1)
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
