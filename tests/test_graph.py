"""Embedded-graph data model: validation, turning angles, directed ids, file I/O."""

import math

import numpy as np
import pytest

from kacward import (
    EmbeddedGraph,
    GraphFormatError,
    dumps_graph,
    edge_index,
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
