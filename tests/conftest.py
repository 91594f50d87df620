"""Shared fixtures: small named graphs and the random planar corpus."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import Delaunay, QhullError

from kacward import EmbeddedGraph, validate_embedding

CORPUS_SIZE = 200
CORPUS_MAX_EDGES = 20
CORPUS_SEED = 20240913


def make_triangle(weight=0.5, weights=None):
    ws = weights if weights is not None else [weight] * 3
    return EmbeddedGraph(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0, 1, ws[0]), (1, 2, ws[1]), (2, 0, ws[2])],
    )


def make_path3(weight=0.5):
    # 3-vertex path with a right-angle bend.
    return EmbeddedGraph(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
        [(0, 1, weight), (1, 2, weight)],
    )


def make_single_edge(weight=0.7):
    return EmbeddedGraph([(0.0, 0.0), (1.0, 0.0)], [(0, 1, weight)])


def make_square_cycle(weight=0.5):
    return EmbeddedGraph(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1, weight), (1, 2, weight), (2, 3, weight), (3, 0, weight)],
    )


def make_square_with_diagonal(weight=0.5):
    """The unit square 0-1-3-2 with its diagonal 0-3."""
    return EmbeddedGraph(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        [(0, 1, weight), (1, 3, weight), (3, 2, weight), (2, 0, weight), (0, 3, weight)],
    )


def make_bowtie(weight=0.5, weights=None):
    ws = weights if weights is not None else [weight] * 6
    return EmbeddedGraph(
        [(0.0, 0.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, -1.0)],
        [
            (0, 1, ws[0]),
            (0, 2, ws[1]),
            (1, 2, ws[2]),
            (0, 3, ws[3]),
            (0, 4, ws[4]),
            (3, 4, ws[5]),
        ],
    )


def make_wheel(spokes=6, weight=0.5):
    # Hub at the origin, rim on the unit circle; hub degree = spokes.
    import math

    vertices = [(0.0, 0.0)]
    for k in range(spokes):
        a = 2 * math.pi * k / spokes
        vertices.append((math.cos(a), math.sin(a)))
    edges = [(0, k + 1, weight) for k in range(spokes)]
    edges += [(k + 1, (k + 1) % spokes + 1, weight) for k in range(spokes)]
    return EmbeddedGraph(vertices, edges)


def make_huge_wheel(scale=1.1e308):
    """The 5-spoke wheel at weight 0.2, its rim at distance ``scale``: the
    rim edges' vectors are finite, but their squares are not."""
    g = make_wheel(5, weight=0.2)
    return EmbeddedGraph([(scale * p.x, scale * p.y) for p in g.vertices], g.edges)


def make_tied_hub(second_first=False):
    """A degree-5 hub whose spokes to (-1, 1e-17) and (-1, 2e-17) tie under
    atan2 rounding, listed in either order, with three rim edges."""
    spokes = [(1.0, 0.0), (0.0, 1.0), (-1.0, 1e-17), (-1.0, 2e-17), (0.0, -1.0)]
    upper, lower = 4, 3
    if second_first:
        spokes[2], spokes[3] = spokes[3], spokes[2]
        upper, lower = lower, upper
    edges = [(0, k + 1, 0.5) for k in range(5)]
    edges += [(1, 2, 0.4), (2, upper, 0.3), (5, 1, 0.6), (5, lower, 0.7)]
    return EmbeddedGraph([(0.0, 0.0)] + spokes, edges)


def make_rotated_square(scale=1.0, shift=(0.0, 0.0), weight=0.5):
    """The square (0, 0), (3, 1), (2, 4), (-1, 3) with the diagonal from the
    first corner to the third, shifted by ``shift`` and then scaled by
    ``scale``: Z = 1 + 2 x^3 + x^4, which is 1.3125 at x = 0.5."""
    corners = [(0.0, 0.0), (3.0, 1.0), (2.0, 4.0), (-1.0, 3.0)]
    vertices = [((x + shift[0]) * scale, (y + shift[1]) * scale) for x, y in corners]
    edges = [(0, 1, weight), (1, 2, weight), (2, 3, weight), (3, 0, weight), (0, 2, weight)]
    return EmbeddedGraph(vertices, edges)


# (scale, shift) of the rotated square: as drawn, tiny, huge, spanning
# +-1e300 about the origin, and spanning +-1.2e308, whose edge vectors
# overflow.  Unscaled, the cross and dot products of the tiny one's turns
# underflow to 0 and those of the huge ones overflow.
ROTATED_SQUARE_SCALES = [
    (1.0, (0.0, 0.0)),
    (1e-200, (0.0, 0.0)),
    (1e160, (0.0, 0.0)),
    (1e200, (0.0, 0.0)),
    (5e299, (-1.0, -2.0)),
    (6e307, (-1.0, -2.0)),
]
ROTATED_SQUARE_IDS = ["unit", "1e-200", "1e160", "1e200", "span-1e300", "span-1.2e308"]


def disjoint_union(g1: EmbeddedGraph, g2: EmbeddedGraph, gap=10.0):
    """Place g2 to the right of g1 with clearance, renumbering its vertices."""
    max_x = max((p.x for p in g1.vertices), default=0.0)
    min_x = min((p.x for p in g2.vertices), default=0.0)
    shift = max_x - min_x + gap
    vertices = [(p.x, p.y) for p in g1.vertices]
    vertices += [(p.x + shift, p.y) for p in g2.vertices]
    off = g1.num_vertices
    edges = [(e.u, e.v, e.weight) for e in g1.edges]
    edges += [(e.u + off, e.v + off, e.weight) for e in g2.edges]
    return EmbeddedGraph(vertices, edges)


def random_planar_graph(rng: np.random.Generator, max_edges=CORPUS_MAX_EDGES):
    """Random points -> Delaunay triangulation -> random edge deletion."""
    while True:
        n = int(rng.integers(4, 11))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        try:
            tri = Delaunay(pts)
        except QhullError:
            continue
        edge_set = set()
        for simplex in tri.simplices:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                u, v = int(simplex[a]), int(simplex[b])
                edge_set.add((min(u, v), max(u, v)))
        edges = sorted(edge_set)
        keep = [e for e in edges if rng.random() > 0.2]
        if len(keep) < 3:
            keep = edges[:3]
        while len(keep) > max_edges:
            keep.pop(int(rng.integers(len(keep))))
        weights = rng.uniform(0.0, 1.0, size=len(keep))
        g = EmbeddedGraph(
            [(float(x), float(y)) for x, y in pts],
            [(u, v, float(w)) for (u, v), w in zip(keep, weights)],
        )
        if validate_embedding(g).ok:
            return g


# Walks of length <= 10 grow like (max_degree - 1)^10; reference comparisons
# run each corpus graph only up to the longest length whose walk count stays
# in this budget.
REFERENCE_WALK_BUDGET = 1000


def walk_counts(g, max_len):
    """Number of walks of length 0..L, for L = 0..max_len."""
    ahead = [1] * g.num_directed
    totals = [g.num_directed]
    for _ in range(max_len):
        ahead = [
            sum(ahead[f] for f in g.out_edges(g.head(d)) if f != (d ^ 1))
            for d in range(g.num_directed)
        ]
        totals.append(totals[-1] + sum(ahead))
    return totals


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_planar_graph(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture
def triangle():
    return make_triangle()


@pytest.fixture
def bowtie():
    return make_bowtie()


@pytest.fixture
def square_cycle():
    return make_square_cycle()


@pytest.fixture
def factor_calls(monkeypatch):
    """Shapes of the matrices that kac_ward_determinant factors during the test."""
    from kacward import transition

    real = transition._sparse_slogdet
    calls = []

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(transition, "_sparse_slogdet", counting)
    return calls
