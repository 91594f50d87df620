"""Vertex decoration: replace each high-degree vertex by a trivalent fan.

Every vertex with more than three neighbors is replaced by one new vertex
per neighbor, placed on a small circle around the original position in the
direction of that neighbor.  Incident edges keep their weights and shrink
onto the fan; consecutive fan vertices (in clockwise order) are joined by
weight-1 edges, with the closing chord deliberately absent.  The result is
a graph of maximum degree 3 with the same even-subgraph generating function
and the same loop weights, which is what ``lift_loop`` realizes walk by walk.

Each fan follows the drawing's exact clockwise rotation, and all of it runs
on the geometry arrays; the edge lengths and clearances that reach the
output come from ``math.hypot``, as numpy's ``hypot`` may round otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEmbeddingError
from .graph import EmbeddedGraph, _checked_graph, _clockwise_rotation, require_valid_embedding
from .loops import Loop, _check_in_graph

# Fan radius as a fraction of the available clearance around the vertex.
_RADIUS_FRACTION = 0.25

# numpy's hypot may differ from math.hypot in the last bit; every distance
# within this relative margin of numpy's minimum is measured again by math.
_HYPOT_MARGIN = 2.0**-48


@dataclass(frozen=True)
class Decoration:
    """Decorated graph plus the bookkeeping needed to move between the two.

    ``edge_map[k]`` is the decorated-graph index of the edge that inherited
    the weight of original edge ``k`` (endpoint order preserved, so directed
    ids map as ``2k -> 2*edge_map[k]`` and ``2k+1 -> 2*edge_map[k]+1``).
    ``unit_edges`` lists the added weight-1 edges.  ``vertex_fan`` maps each
    replaced original vertex to its clockwise-ordered fan of new vertex ids,
    and ``vertex_image`` maps each untouched original vertex to its new id.

    ``lift_loop`` relies on the indices: ``edge_map`` is ``tuple(range(|E|))``,
    the fan vertices are the ids from ``len(vertex_image)`` on and the unit
    edges the ids from ``|E|`` on, both fan by fan by ascending vertex, edge
    ``i`` of a fan joining ``vertex_fan[v][i]`` to ``[i + 1]``.
    """

    decorated: EmbeddedGraph
    edge_map: tuple[int, ...]
    unit_edges: tuple[int, ...]
    vertex_fan: dict[int, tuple[int, ...]]
    vertex_image: dict[int, int]


def _half_clearances(geometry, hubs: list[int]) -> list[float]:
    """Half the distance from each vertex of ``hubs`` to its nearest
    non-incident edge (inf if none), found by numpy and measured by
    ``math.hypot``.

    The coordinates are halved before subtracting, so that no difference
    overflows.  The projection onto edge ``a`` is ``p . a / |a|^2``, with
    ``a / |a|^2`` computed from ``a`` scaled by a power of two to a largest
    component in [0.5, 1), so that it neither overflows on a huge drawing
    nor underflows on a tiny one.  No edge has zero length.
    """
    half, ends, ptr = geometry.xy * 0.5, geometry.ends, geometry.out_ptr
    a = half[ends[:, 0]]
    ax, ay = (half[ends[:, 1]] - a).T
    shift = -np.frexp(np.maximum(np.abs(ax), np.abs(ay)))[1]
    sx, sy = np.ldexp(ax, shift), np.ldexp(ay, shift)
    length2 = sx * sx + sy * sy
    clearance = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inverse_x, inverse_y = np.ldexp(sx / length2, shift), np.ldexp(sy / length2, shift)
        for v in hubs:
            px, py = half[v, 0] - a[:, 0], half[v, 1] - a[:, 1]
            # fmin and fmax turn a nan into the bound, as min and max do.
            t = np.fmax(0.0, np.fmin(1.0, px * inverse_x + py * inverse_y))
            dx, dy = px - t * ax, py - t * ay
            dx[geometry.out_ids[ptr[v] : ptr[v + 1]] >> 1] = math.inf  # incident
            dist = np.hypot(dx, dy)
            close = (dist <= np.fmin.reduce(dist) * (1.0 + _HYPOT_MARGIN)).nonzero()[0]
            near = map(math.hypot, dx[close].tolist(), dy[close].tolist())
            clearance.append(min(near, default=math.inf))
    return clearance


def decorate(g: EmbeddedGraph) -> Decoration:
    """Build the trivalent decoration; the identity for graphs of degree <= 3.

    Validates ``g`` first, and the decorated graph once it is built."""
    require_valid_embedding(g)
    geometry = g._geometry
    xy, ptr, flat = geometry.xy, geometry.out_ptr, geometry.ends.reshape(-1)
    degree = ptr[1:] - ptr[:-1]
    fanned = degree > 3
    if not fanned.any():
        identity = range(g.num_vertices)
        return Decoration(g, tuple(range(g.num_edges)), (), {}, dict(zip(identity, identity)))

    # One fan vertex per directed edge out of a fanned vertex, fan by fan,
    # clockwise, on a circle of radius eps(v) toward the neighbor.  Lengths
    # are measured on the halved coordinates, so that none overflows.
    rotation = _clockwise_rotation(geometry)
    fan = rotation[fanned[flat[rotation]]]
    hub = flat[fan]
    direction = xy[flat[fan ^ 1]] * 0.5 - xy[hub] * 0.5
    norm = np.array([math.hypot(x, y) for x, y in direction.tolist()])
    hubs = fanned.nonzero()[0]
    size = degree[hubs]
    first = np.cumsum(size) - size  # where each hub's fan starts in ``fan``
    shortest = np.minimum.reduceat(norm, first)
    clearances = _half_clearances(geometry, hubs.tolist())
    eps = 2 * _RADIUS_FRACTION * np.minimum(shortest, clearances)
    if not (eps > 0).all():
        v = hubs[np.argmin(eps > 0)]
        raise InvalidEmbeddingError(f"cannot place a fan around vertex {v}: no clearance")
    points = xy[hub] + np.repeat(eps, size)[:, None] * (direction / norm[:, None])

    kept = (~fanned).nonzero()[0]
    leaves = (np.cumsum(~fanned) - 1)[flat]  # the new vertex each directed edge leaves
    leaves[fan] = len(kept) + np.arange(len(fan))
    link = (hub[1:] == hub[:-1]).nonzero()[0] + len(kept)
    us = np.concatenate((leaves[0::2], link))
    vs = np.concatenate((leaves[1::2], link + 1))
    weights = np.concatenate((g._weights, np.ones(len(link))))
    decorated = _checked_graph(np.concatenate((xy[kept], points)), us, vs, weights)
    try:
        require_valid_embedding(decorated)
    except InvalidEmbeddingError as exc:
        raise InvalidEmbeddingError(f"decorated graph: {exc}") from exc
    starts = (len(kept) + first).tolist()
    return Decoration(
        decorated=decorated,
        edge_map=tuple(range(g.num_edges)),
        unit_edges=tuple(range(g.num_edges, g.num_edges + len(link))),
        vertex_fan={
            v: tuple(range(s, s + k)) for v, s, k in zip(hubs.tolist(), starts, size.tolist())
        },
        vertex_image=dict(zip(kept.tolist(), range(len(kept)))),
    )


def lift_loop(d: Decoration, l: Loop) -> Loop:
    """Image of a loop of the original graph in the decorated graph.

    Each passage through a replaced vertex is rerouted along the unique
    unit-edge path between the two fan vertices involved.  The edge-weight
    product is preserved exactly (the inserted edges weigh 1) and the
    turning-angle sum is preserved because fan vertices sit on the rays
    toward their neighbors, so the inserted turns telescope.

    Directed ids keep their numbers, and a fan step from position ``i`` to
    ``i + 1`` is ``2 * (base + i)``, back ``2 * (base + i) + 1``, for ``base``
    the fan's first unit edge (see ``Decoration``).
    """
    g = d.decorated
    n_orig = 2 * len(d.edge_map)
    for s in l.steps:
        if not 0 <= s < n_orig:
            raise ValueError(f"directed edge id {s} out of range for the original graph")

    # Fan vertex w is in fan ``fan[w]`` (-1 for a kept vertex), joined to
    # w + 1 of its fan by unit edge ``unit[w]``.
    kept = len(d.vertex_image)
    fan = np.full(g.num_vertices, -1)
    fan[kept:] = np.repeat(np.arange(len(d.vertex_fan)), [len(f) for f in d.vertex_fan.values()])
    unit = len(d.edge_map) - kept + np.arange(g.num_vertices) - fan

    steps = np.array(l.steps, dtype=np.intp)
    flat = g._geometry.ends.reshape(-1)
    out: list[int] = [l.steps[0]]
    for a, b, nxt in zip(flat[steps[:-1] ^ 1].tolist(), flat[steps[1:]].tolist(), l.steps[1:]):
        if a != b:
            # Passage through a fan: walk the unit path from a to b.
            if fan[a] < 0 or fan[a] != fan[b]:
                raise RuntimeError(f"lift cannot connect {a} to {b} in the decorated graph")
            out.extend((2 * unit[a:b]).tolist() if a < b else (2 * unit[b:a][::-1] + 1).tolist())
        out.append(nxt)

    lifted = Loop(tuple(out))
    _check_in_graph(g, lifted)
    return lifted
