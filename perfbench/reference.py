"""Independent Ising reference: an exact log-space sum over spin states.

Vertices are eliminated in row-major order (by y, then x).  The running
table holds log-weights over the spins of the frontier, the placed vertices
that still have unplaced neighbours.  On a strip whose edges join only the
same or adjacent rows the frontier is at most one row plus one vertex, so a
strip with 12 vertices per row needs tables of 2**13 entries at most.

This shares no code with ``kacward``: it reads plain coordinate and edge
lists and never builds a Kac-Ward matrix.
"""

from __future__ import annotations

import numpy as np

FRONTIER_CAP = 20


def ising_log_partition(vertices, edges, beta: float) -> float:
    """log of sum over spins s in {+1,-1}^V of exp(beta * sum_uv J_uv s_u s_v).

    ``vertices`` is a list of (x, y) pairs and ``edges`` a list of
    (u, v, J) triples.  Raises ValueError if the elimination frontier would
    exceed ``FRONTIER_CAP`` spins.
    """
    n = len(vertices)
    order = sorted(range(n), key=lambda v: (vertices[v][1], vertices[v][0]))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    neighbours: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, j in edges:
        neighbours[u].append((v, j))
        neighbours[v].append((u, j))
    # A vertex can be summed out once it and all its neighbours are placed.
    done_at = [max([pos[v]] + [pos[w] for w, _ in neighbours[v]]) for v in range(n)]

    table = np.zeros(())
    frontier: list[int] = []
    for i, v in enumerate(order):
        table = np.stack([table, table], axis=-1)
        frontier.append(v)
        if len(frontier) > FRONTIER_CAP:
            raise ValueError(f"elimination frontier exceeds {FRONTIER_CAP} spins")
        last = len(frontier) - 1
        for w, j in neighbours[v]:
            if pos[w] >= i:
                continue
            a = frontier.index(w)
            shape = [1] * table.ndim
            shape[a] = shape[last] = 2
            k = beta * j
            table = table + np.array([[k, -k], [-k, k]]).reshape(shape)
        for u in [u for u in frontier if done_at[u] <= i]:
            a = frontier.index(u)
            table = np.logaddexp(np.take(table, 0, axis=a), np.take(table, 1, axis=a))
            frontier.pop(a)
    return float(table)
