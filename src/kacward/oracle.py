"""Brute-force reference computations: even-subgraph enumeration and spin sums.

Everything here trades speed for directness so it can serve as an independent
check on the determinant route.  Hard caps keep the exponential scans from
hanging; they fail loudly instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import EmbeddedGraph

NAIVE_EDGE_CAP = 24     # 2^|E| subsets scanned
CYCLE_DIM_CAP = 30      # 2^dim GF(2) combinations scanned
SPIN_VERTEX_CAP = 20    # 2^|V| spin configurations scanned


@dataclass(frozen=True)
class EvenSubgraph:
    """Edge subset (bit mask over edge indices) with all vertex degrees even."""

    mask: int

    def edge_indices(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            lsb = m & -m
            out.append(lsb.bit_length() - 1)
            m ^= lsb
        return tuple(out)

    def size(self) -> int:
        return bin(self.mask).count("1")


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a deterministic spanning forest, one per non-forest edge."""

    basis: tuple[EvenSubgraph, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _vertex_parity_vectors(g: EmbeddedGraph) -> list[int]:
    # Edge k toggles the parity bits of its two endpoints.
    return [(1 << u) ^ (1 << v) for u, v in g._geometry.ends.tolist()]


def enumerate_even_subgraphs_naive(g: EmbeddedGraph) -> list[EvenSubgraph]:
    """All even edge subsets by scanning every subset of E; ascending mask order."""
    ne = g.num_edges
    if ne > NAIVE_EDGE_CAP:
        raise ValueError(
            f"too large for naive enumeration: |E| = {ne} exceeds cap {NAIVE_EDGE_CAP}"
        )
    vecs = _vertex_parity_vectors(g)
    found = [0]
    parity = 0
    mask = 0
    # Gray-code scan: one parity toggle per step.
    for i in range(1, 1 << ne):
        j = (i & -i).bit_length() - 1
        mask ^= 1 << j
        parity ^= vecs[j]
        if parity == 0:
            found.append(mask)
    found.sort()
    return [EvenSubgraph(m) for m in found]


def cycle_space_basis(g: EmbeddedGraph) -> CycleBasis:
    """Fundamental-cycle basis from the lowest-edge-index spanning forest."""
    parent = list(range(g.num_vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ends = g._geometry.ends.tolist()
    forest: list[int] = []
    non_forest: list[int] = []
    for k, (u, v) in enumerate(ends):
        ru, rv = find(u), find(v)
        if ru == rv:
            non_forest.append(k)
        else:
            parent[ru] = rv
            forest.append(k)

    # Adjacency restricted to forest edges, for path recovery.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for k in forest:
        u, v = ends[k]
        adj[u].append((v, k))
        adj[v].append((u, k))

    def forest_path_mask(src: int, dst: int) -> int:
        prev: dict[int, tuple[int, int]] = {src: (-1, -1)}
        stack = [src]
        while stack:
            v = stack.pop()
            if v == dst:
                break
            for nxt, k in adj[v]:
                if nxt not in prev:
                    prev[nxt] = (v, k)
                    stack.append(nxt)
        mask = 0
        v = dst
        while v != src:
            v, k = prev[v]
            mask ^= 1 << k
        return mask

    basis = (EvenSubgraph(forest_path_mask(*ends[k]) ^ (1 << k)) for k in non_forest)
    return CycleBasis(basis=tuple(basis))


def _span(basis: CycleBasis) -> Iterator[int]:
    """The masks of the GF(2) span of the basis, in Gray-code order from the
    empty subgraph; refuses a dimension over ``CYCLE_DIM_CAP``."""
    d = basis.dimension
    if d > CYCLE_DIM_CAP:
        raise ValueError(
            f"cycle space too large: dimension {d} exceeds cap {CYCLE_DIM_CAP}"
        )
    cur = 0
    yield cur
    for i in range(1, 1 << d):
        cur ^= basis.basis[(i & -i).bit_length() - 1].mask
        yield cur


def even_subgraphs_from_basis(basis: CycleBasis) -> list[EvenSubgraph]:
    """The full GF(2) span of the basis; ascending mask order."""
    return [EvenSubgraph(m) for m in sorted(_span(basis))]


def partition_function_oracle(g: EmbeddedGraph) -> float:
    """Z as a literal sum of edge-weight products over all even subgraphs.

    Iterates the GF(2) span of the fundamental-cycle basis in Gray-code order
    and recomputes each monomial from scratch (no incremental multiplication,
    so zero weights cannot poison later terms).
    """
    weights = g._weights.tolist()
    total = 0.0
    for m in _span(cycle_space_basis(g)):
        term = 1.0
        while m:
            lsb = m & -m
            term *= weights[lsb.bit_length() - 1]
            m ^= lsb
        total += term
    return total


def _spin_energies(g: EmbeddedGraph, couplings) -> np.ndarray:
    """sum_k J_k s_u s_v for each of the 2^|V| spin configurations."""
    nv = g.num_vertices
    if nv > SPIN_VERTEX_CAP:
        raise ValueError(
            f"too many vertices for spin enumeration: |V| = {nv} exceeds cap {SPIN_VERTEX_CAP}"
        )
    couplings = list(couplings)
    if len(couplings) != g.num_edges:
        raise ValueError(
            f"expected {g.num_edges} couplings, got {len(couplings)}"
        )
    configs = np.arange(1 << nv, dtype=np.int64)
    energy = np.zeros(1 << nv, dtype=np.float64)
    for (u, v), j in zip(g._geometry.ends.tolist(), couplings):
        su = 1.0 - 2.0 * ((configs >> u) & 1)
        sv = 1.0 - 2.0 * ((configs >> v) & 1)
        energy += j * su * sv
    return energy


def ising_partition_spin_sum(g: EmbeddedGraph, beta: float, couplings) -> float:
    """Ising partition function by summing over all 2^|V| spin configurations."""
    return float(np.exp(beta * _spin_energies(g, couplings)).sum())


def ising_log_partition_spin_sum(g: EmbeddedGraph, beta: float, couplings) -> float:
    """log of ``ising_partition_spin_sum``, by log-sum-exp over the same
    energies, so it stays finite where the linear sum overflows."""
    exponent = beta * _spin_energies(g, couplings)
    top = exponent.max()
    return float(top + np.log(np.exp(exponent - top).sum()))
