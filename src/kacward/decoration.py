"""Vertex decoration: replace each high-degree vertex by a trivalent fan.

Every vertex with more than three neighbors is replaced by one new vertex
per neighbor, placed on a small circle around the original position in the
direction of that neighbor.  Incident edges keep their weights and shrink
onto the fan; consecutive fan vertices (in clockwise order) are joined by
weight-1 edges, with the closing chord deliberately absent.  The result is
a graph of maximum degree 3 with the same even-subgraph generating function
and the same loop weights, which is what ``lift_loop`` realizes walk by walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidEmbeddingError
from .graph import EmbeddedGraph, Point, require_valid_embedding
from .loops import Loop, _check_in_graph

# Fan radius as a fraction of the available clearance around the vertex.
_RADIUS_FRACTION = 0.25


@dataclass(frozen=True)
class Decoration:
    """Decorated graph plus the bookkeeping needed to move between the two.

    ``edge_map[k]`` is the decorated-graph index of the edge that inherited
    the weight of original edge ``k`` (endpoint order preserved, so directed
    ids map as ``2k -> 2*edge_map[k]`` and ``2k+1 -> 2*edge_map[k]+1``).
    ``unit_edges`` lists the added weight-1 edges.  ``vertex_fan`` maps each
    replaced original vertex to its clockwise-ordered fan of new vertex ids,
    and ``vertex_image`` maps each untouched original vertex to its new id.
    """

    decorated: EmbeddedGraph
    edge_map: tuple[int, ...]
    unit_edges: tuple[int, ...]
    vertex_fan: dict[int, tuple[int, ...]]
    vertex_image: dict[int, int]


def _clockwise_fan_order(g: EmbeddedGraph, v: int) -> list[int]:
    """Directed edges out of ``v`` ordered clockwise, starting just above angle 0.

    Clockwise means decreasing mathematical angle; the first neighbor is the
    one with the smallest nonnegative direction angle.  The starting choice
    only fixes which chord of the fan is omitted; any choice is valid.
    """
    def angle_of(d: int) -> float:
        dx, dy = g.direction(d)
        a = math.atan2(dy, dx)
        return a if a >= 0 else a + 2 * math.pi

    outs = sorted(g.out_edges(v), key=angle_of)
    return [outs[0]] + sorted(outs[1:], key=angle_of, reverse=True)


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = b.x - a.x, b.y - a.y
    px, py = p.x - a.x, p.y - a.y
    denom = ax * ax + ay * ay
    if denom == 0.0:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * ax + py * ay) / denom))
    return math.hypot(px - t * ax, py - t * ay)


def _fan_radius(g: EmbeddedGraph, v: int) -> float:
    p = g.vertices[v]
    shortest = min(
        math.hypot(*g.direction(d)) for d in g.out_edges(v)
    )
    clearance = math.inf
    for e in g.edges:
        if e.u == v or e.v == v:
            continue
        clearance = min(
            clearance,
            _point_segment_distance(p, g.vertices[e.u], g.vertices[e.v]),
        )
    return _RADIUS_FRACTION * min(shortest, clearance)


def decorate(g: EmbeddedGraph) -> Decoration:
    """Build the trivalent decoration; the identity for graphs of degree <= 3."""
    require_valid_embedding(g)
    fanned = [v for v in range(g.num_vertices) if g.degree(v) > 3]
    if not fanned:
        return Decoration(
            decorated=g,
            edge_map=tuple(range(g.num_edges)),
            unit_edges=(),
            vertex_fan={},
            vertex_image={v: v for v in range(g.num_vertices)},
        )

    fan_set = set(fanned)
    new_points: list[Point] = []
    vertex_image: dict[int, int] = {}
    for v in range(g.num_vertices):
        if v not in fan_set:
            vertex_image[v] = len(new_points)
            new_points.append(g.vertices[v])

    # One fan vertex per incident directed edge, on a circle of radius
    # eps(v) in the direction of the neighbor, clockwise order.
    vertex_fan: dict[int, tuple[int, ...]] = {}
    fan_vertex_of: dict[int, int] = {}  # outgoing directed id -> new vertex id
    for v in fanned:
        eps = _fan_radius(g, v)
        if not eps > 0:
            raise InvalidEmbeddingError(
                f"cannot place a fan around vertex {v}: no clearance"
            )
        p = g.vertices[v]
        ids = []
        for d in _clockwise_fan_order(g, v):
            dx, dy = g.direction(d)
            norm = math.hypot(dx, dy)
            ids.append(len(new_points))
            fan_vertex_of[d] = len(new_points)
            new_points.append(Point(p.x + eps * dx / norm, p.y + eps * dy / norm))
        vertex_fan[v] = tuple(ids)

    def image_endpoint(d: int) -> int:
        # New endpoint that directed edge d leaves from.
        t = g.tail(d)
        return fan_vertex_of[d] if t in fan_set else vertex_image[t]

    new_edges: list[tuple[int, int, float]] = []
    edge_map = []
    for k, e in enumerate(g.edges):
        edge_map.append(len(new_edges))
        new_edges.append((image_endpoint(2 * k), image_endpoint(2 * k + 1), e.weight))

    unit_edges = []
    for v in fanned:
        fan = vertex_fan[v]
        for a, b in zip(fan, fan[1:]):
            unit_edges.append(len(new_edges))
            new_edges.append((a, b, 1.0))

    decorated = EmbeddedGraph(new_points, new_edges)
    try:
        require_valid_embedding(decorated)
    except InvalidEmbeddingError as exc:
        raise InvalidEmbeddingError(f"decorated graph: {exc}") from exc
    return Decoration(
        decorated=decorated,
        edge_map=tuple(edge_map),
        unit_edges=tuple(unit_edges),
        vertex_fan=vertex_fan,
        vertex_image=vertex_image,
    )


def _mapped_directed(d: Decoration, step: int) -> int:
    return 2 * d.edge_map[step >> 1] + (step & 1)


def _find_directed(g: EmbeddedGraph, tail: int, head: int) -> int:
    for cand in g.out_edges(tail):
        if g.head(cand) == head:
            return cand
    raise RuntimeError(f"no directed edge {tail} -> {head} in decorated graph")


def lift_loop(d: Decoration, l: Loop) -> Loop:
    """Image of a loop of the original graph in the decorated graph.

    Each passage through a replaced vertex is rerouted along the unique
    unit-edge path between the two fan vertices involved.  The edge-weight
    product is preserved exactly (the inserted edges weigh 1) and the
    turning-angle sum is preserved because fan vertices sit on the rays
    toward their neighbors, so the inserted turns telescope.
    """
    g = d.decorated
    n_orig = 2 * len(d.edge_map)
    for s in l.steps:
        if not 0 <= s < n_orig:
            raise ValueError(f"directed edge id {s} out of range for the original graph")

    # New fan vertex -> (original vertex, position in its fan).
    fan_position: dict[int, tuple[int, int]] = {}
    for orig, fan in d.vertex_fan.items():
        for i, nv in enumerate(fan):
            fan_position[nv] = (orig, i)

    steps = l.steps
    out: list[int] = [_mapped_directed(d, steps[0])]
    for i in range(len(steps) - 1):
        nxt = _mapped_directed(d, steps[i + 1])
        arrive = g.head(out[-1])
        depart = g.tail(nxt)
        if arrive != depart:
            # Passage through a fan: walk the unit path from arrive to depart.
            if arrive not in fan_position or depart not in fan_position:
                raise RuntimeError(
                    f"lift cannot connect {arrive} to {depart} in the decorated graph"
                )
            orig, a = fan_position[arrive]
            orig2, b = fan_position[depart]
            if orig != orig2:
                raise RuntimeError(
                    f"lift cannot connect {arrive} to {depart} in the decorated graph"
                )
            fan = d.vertex_fan[orig]
            direction = 1 if b > a else -1
            cur = a
            while cur != b:
                out.append(_find_directed(g, fan[cur], fan[cur + direction]))
                cur += direction
        out.append(nxt)

    lifted = Loop(tuple(out))
    _check_in_graph(g, lifted)
    return lifted
