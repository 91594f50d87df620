"""Lattice patch generators and the high-temperature Ising conversion.

Both generators use exact integer coordinates and free (open) boundaries;
periodic boundaries would break the straight-line embedding hypothesis.
The Ising conversion maps couplings to tanh weights and tracks the
prefactor in log space so large lattices stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import EmbeddedGraph, _float, _floats
from .transition import _exp, _log_sqrt_det, kac_ward_determinant


@dataclass(frozen=True)
class IsingInstance:
    """An Ising model on an embedded graph; the graph's weight field is ignored."""

    graph: EmbeddedGraph
    beta: float
    couplings: tuple[float, ...]

    def __post_init__(self):
        couplings = _floats(self.couplings, "coupling {}")
        object.__setattr__(self, "couplings", tuple(couplings.tolist()))
        if not math.isfinite(_float(self.beta, "beta")):
            raise ValueError("beta must be finite")
        if len(couplings) != self.graph.num_edges:
            raise ValueError(f"expected {self.graph.num_edges} couplings, got {len(couplings)}")
        finite = np.isfinite(couplings)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"coupling {k} has non-finite value {couplings[k].item()}")


def uniform_ising(g: EmbeddedGraph, beta: float, coupling: float = 1.0) -> IsingInstance:
    return IsingInstance(graph=g, beta=beta, couplings=(coupling,) * g.num_edges)


def gen_square(width: int, height: int, weight: float) -> EmbeddedGraph:
    """width x height grid of unit squares, free boundary, uniform weight."""
    if width < 1 or height < 1:
        raise ValueError("lattice dimensions must be positive")
    cols = width + 1

    def vid(i: int, j: int) -> int:
        return j * cols + i

    vertices = [(float(i), float(j)) for j in range(height + 1) for i in range(cols)]
    edges = []
    for j in range(height + 1):
        for i in range(width):
            edges.append((vid(i, j), vid(i + 1, j), weight))
    for j in range(height):
        for i in range(cols):
            edges.append((vid(i, j), vid(i, j + 1), weight))
    return EmbeddedGraph(vertices, edges)


def gen_hex(rows: int, cols: int, weight: float) -> EmbeddedGraph:
    """Honeycomb patch drawn as a brick wall (rows x cols bricks), free boundary.

    Each brick is a 2 x 1 rectangle with mid-top and mid-bottom vertices;
    alternate rows shift by one unit, so every vertex has degree at most 3
    and all coordinates are exact small integers.
    """
    if rows < 1 or cols < 1:
        raise ValueError("lattice dimensions must be positive")
    vertex_set = set()
    edge_set = set()

    def add_edge(a, b):
        vertex_set.add(a)
        vertex_set.add(b)
        edge_set.add((min(a, b), max(a, b)))

    for r in range(rows):
        off = r % 2
        for c in range(cols):
            x0 = off + 2 * c
            y0, y1 = r, r + 1
            add_edge((x0, y0), (x0 + 1, y0))
            add_edge((x0 + 1, y0), (x0 + 2, y0))
            add_edge((x0, y1), (x0 + 1, y1))
            add_edge((x0 + 1, y1), (x0 + 2, y1))
            add_edge((x0, y0), (x0, y1))
            add_edge((x0 + 2, y0), (x0 + 2, y1))

    coords = sorted(vertex_set, key=lambda p: (p[1], p[0]))
    index = {p: i for i, p in enumerate(coords)}
    edges = sorted(
        (min(index[a], index[b]), max(index[a], index[b])) for a, b in edge_set
    )
    return EmbeddedGraph(
        [(float(x), float(y)) for x, y in coords],
        [(u, v, weight) for u, v in edges],
    )


class HighTemperatureWeights(NamedTuple):
    graph: EmbeddedGraph
    prefactor: float
    log_prefactor: float


def ising_to_even_weights(inst: IsingInstance) -> HighTemperatureWeights:
    """High-temperature expansion: weights tanh(beta*J), prefactor 2^|V| prod cosh(beta*J).

    The Ising partition function equals prefactor times the even-subgraph
    generating function at the returned weights, all of which lie in (-1, 1).
    """
    g = inst.graph
    with np.errstate(over="ignore"):  # |beta * J| past the last double is inf, as log Z is
        y = inst.beta * np.array(inst.couplings, dtype=np.float64)
    # math.tanh, not np.tanh, which differs from it in the last bit.  tanh
    # saturates to +-1.0 in floats around |arg| ~ 19; the conversion
    # contract wants the open interval, so step one ulp inward.
    one_minus = math.nextafter(1.0, 0.0)
    tanh = np.fromiter(map(math.tanh, y.tolist()), dtype=np.float64, count=len(y))
    weights = np.clip(tanh, -one_minus, one_minus)
    # log(cosh(y)) without overflow for large |y|, summed in coupling order.
    log_cosh = np.logaddexp(y, -y) - math.log(2.0)
    log_prefactor = g.num_vertices * math.log(2.0) + sum(log_cosh.tolist())
    return HighTemperatureWeights(
        graph=g.with_weights(weights),
        prefactor=_exp(log_prefactor),
        log_prefactor=log_prefactor,
    )


def ising_partition_kw(inst: IsingInstance) -> tuple[float, float]:
    """(Z_ising, log Z_ising) via the determinant route.

    The log value is assembled entirely in log space and stays finite even
    when the linear value overflows; the linear value is its ``exp``, or inf
    past the last finite double.  A determinant that is not real and positive
    raises NumericalError before either is returned.
    """
    conv = ising_to_even_weights(inst)
    log_z = conv.log_prefactor + _log_sqrt_det(kac_ward_determinant(conv.graph))
    return _exp(log_z), log_z
