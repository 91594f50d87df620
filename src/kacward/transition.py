"""Kac-Ward transition matrix, determinant, and the even-subgraph partition function.

The transition matrix is the sparse complex matrix on directed edges with
entry ``x_e * exp(i * angle / 2)`` wherever a non-backtracking step from one
directed edge to the next is possible; a row has at most ``deg(head) - 1``
nonzeros.  The determinant of ``I - transition`` equals the square of the
even-subgraph generating function, which is how ``partition_function_kw``
evaluates it.  ``I - transition`` is factored once per query by a sparse LU
with a fill-reducing column ordering (SuperLU, COLAMD).

Only the moduli ``x_e`` depend on the weights; the step pattern, the phases
and the sparse layout of ``I - transition`` depend on the drawing alone.
They are computed once per geometry record, which ``with_weights`` copies
share, so a beta sweep pays per query only for the weights, one gather, one
product and the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .graph import EmbeddedGraph, max_degree, require_valid_embedding

# exp(709) is the last finite double; past this the linear determinant overflows.
_LOG_OVERFLOW = 709.0


def _exp(log_value: float) -> float:
    """``exp(log_value)``, or inf past ``_LOG_OVERFLOW``."""
    return math.exp(log_value) if log_value < _LOG_OVERFLOW else math.inf


@dataclass(frozen=True)
class TransitionMatrix:
    """Complex transition matrix on the 2|E| directed edges, as COO triplets.

    Entry ``(rows[k], cols[k])`` holds ``values[k]``; every other entry is
    zero and no position appears twice.  ``rows`` and ``cols`` are read-only
    arrays, shared by every graph with the same drawing.
    """

    size: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """The dense ``size x size`` array, built on each access; small graphs only."""
        m = np.zeros((self.size, self.size), dtype=np.complex128)
        m[self.rows, self.cols] = self.values
        return m


@dataclass(frozen=True)
class DetResult:
    """Determinant of (I - transition) in both linear and log form.

    ``det`` reproduces ``exp(log_abs_det + 1j * phase)`` whenever the linear
    value does not overflow; for very large graphs only the log form is
    meaningful.
    """

    det: complex
    log_abs_det: float
    phase: float


def build_transition_matrix(g: EmbeddedGraph) -> TransitionMatrix:
    """Assemble the directed-edge transition matrix; validates ``g`` first."""
    require_valid_embedding(g)
    return _transition_matrix(g)


class _Layout(NamedTuple):
    """What the transition matrix and ``I - T`` take from the drawing alone.

    ``rows``/``cols`` list the non-backtracking steps and ``phase`` their
    ``exp(i * angle / 2)``; ``indptr``/``indices`` are the CSC pattern of
    ``I - T``, whose data is ``concatenate((ones, -values))[order]``: the
    order in which scipy's COO to CSC conversion (sorted by column, then by
    row) places the identity's diagonal followed by the steps.
    """

    rows: np.ndarray
    cols: np.ndarray
    phase: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray


def _layout(g: EmbeddedGraph) -> _Layout:
    """The layout of ``g``'s drawing, computed once per geometry record.

    Row ``d`` of the steps lists the out-edges of ``d``'s head in ascending
    id order, less the reversal ``d ^ 1``, gathered from the out-edge CSR;
    the turning angles come from the coordinate array, with
    ``turning_angle``'s formula.
    """
    geometry = g._geometry
    if geometry.layout is not None:
        return geometry.layout
    n = g.num_directed
    tails = geometry.ends.reshape(-1)
    heads = geometry.ends[:, ::-1].reshape(-1)
    first = geometry.out_ptr[heads]
    count = geometry.out_ptr[heads + 1] - first
    rows = np.repeat(np.arange(n), count)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count - first, count)
    cols = geometry.out_ids[slot]
    forward = cols != (rows ^ 1)
    rows, cols = rows[forward], cols[forward]
    step = geometry.xy[heads] - geometry.xy[tails]
    ex, ey = step[rows, 0], step[rows, 1]
    fx, fy = step[cols, 0], step[cols, 1]
    angle = np.arctan2(ex * fy - ey * fx, ex * fx + ey * fy)
    angle[angle == -math.pi] = math.pi  # the turning angle lies in (-pi, pi]
    diag = np.arange(n)
    all_rows = np.concatenate((diag, rows))
    all_cols = np.concatenate((diag, cols))
    order = np.lexsort((all_rows, all_cols))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(all_cols, minlength=n), out=indptr[1:])
    arrays = (rows, cols, np.exp(0.5j * angle), indptr, all_rows[order], order)
    for a in arrays:  # shared by every graph with this geometry
        a.flags.writeable = False
    geometry.layout = _Layout(*arrays)
    return geometry.layout


def _transition_matrix(g: EmbeddedGraph) -> TransitionMatrix:
    """The transition matrix of a graph that has been validated."""
    layout = _layout(g)
    values = g._weights[layout.rows >> 1] * layout.phase
    return TransitionMatrix(size=g.num_directed, rows=layout.rows, cols=layout.cols, values=values)


def _parity(perm: np.ndarray) -> int:
    """0 if the permutation is even, 1 if odd.

    A cycle of length c is c - 1 transpositions, so the parity is that of
    ``n - cycles``.  The cycles are counted by pointer jumping: after k rounds
    ``label[i]`` is the least of i and its next 2^k - 1 images, so after
    ceil(log2 n) rounds it is the least element of i's cycle.
    """
    p = np.asarray(perm, dtype=np.intp)
    n = len(p)
    label = np.arange(n)
    for _ in range(max(n - 1, 0).bit_length()):
        label = np.minimum(label, label[p])
        p = p[p]
    return (n - int(np.count_nonzero(label == np.arange(n)))) & 1


def _sparse_slogdet(a) -> tuple[float, float]:
    """(log|det a|, phase of det a in (-pi, pi]) of a square scipy CSC matrix.

    SuperLU factors ``Pr @ a @ Pc = L @ U`` with unit-diagonal ``L``, so
    ``det a`` is the product of ``diag(U)`` times the signs of the two
    permutations.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(a)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"determinant is zero ({exc})") from exc
    pivots = lu.U.diagonal()
    log_abs = float(np.sum(np.log(np.abs(pivots))))
    phase = float(np.sum(np.angle(pivots)))
    # The permutation acting on perm_r's n items and perm_c's, shifted past
    # them, has the parity of the two together.
    n = len(lu.perm_c)
    phase += math.pi * _parity(np.concatenate((lu.perm_r, lu.perm_c + n)))
    phase = math.remainder(phase, 2.0 * math.pi)
    if phase == -math.pi:
        phase = math.pi
    return log_abs, phase


def kac_ward_determinant(g: EmbeddedGraph) -> DetResult:
    """det(I - transition), from one sparse LU in log form to avoid overflow."""
    tm = build_transition_matrix(g)
    if tm.size == 0:
        return DetResult(det=1.0 + 0.0j, log_abs_det=0.0, phase=0.0)
    from scipy.sparse import csc_array

    layout = _layout(g)
    data = np.concatenate((np.ones(tm.size, dtype=np.complex128), -tm.values))[layout.order]
    a = csc_array((data, layout.indices, layout.indptr), shape=(tm.size, tm.size))
    log_abs, phase = _sparse_slogdet(a)
    mag = _exp(log_abs)
    det = complex(mag * math.cos(phase), mag * math.sin(phase))
    return DetResult(det=det, log_abs_det=log_abs, phase=phase)


def _log_sqrt_det(r: DetResult) -> float:
    """log sqrt(det) of a determinant that must be real and positive.

    One test for every determinant, finite or overflowed: its phase is within
    1e-9 of 0.  A sum of even-subgraph weights of both signs that cancels
    below double precision leaves a phase far above that, and a log value
    that would be wrong; it is refused, not returned.
    """
    if not abs(r.phase) <= 1e-9:  # written so that a nan phase is refused too
        raise NumericalError(
            f"determinant not real-positive (phase {r.phase:.3e}); invalid "
            "embedding, or weights of both signs that cancel below double precision"
        )
    return 0.5 * r.log_abs_det


def partition_function_kw(source: EmbeddedGraph | DetResult) -> float:
    """Even-subgraph generating function, as the square root of the determinant.

    ``source`` is a graph, or the ``DetResult`` of one when the caller has
    already factored it.  Returns the positive root, as ``exp`` of half the
    log determinant (inf past the last finite double); a determinant that is
    not real and positive raises NumericalError.  For nonnegative weights
    this is the generating function itself (every monomial is nonnegative
    and the empty subgraph contributes 1); for mixed-sign weights it is its
    absolute value.
    """
    if not isinstance(source, DetResult):
        source = kac_ward_determinant(source)
    return _exp(_log_sqrt_det(source))


def _contraction(g: EmbeddedGraph) -> tuple[float, float]:
    """(rho, max|x|), rho = (max_degree - 1) * max|x| the loop series' contraction."""
    top = float(np.max(np.abs(g._weights), initial=0.0))
    return max(max_degree(g) - 1, 0) * top, top


def check_convergence_radius(g: EmbeddedGraph) -> bool:
    """True iff (max_degree - 1) * max|weight| < 1; trivially true for degree <= 1."""
    return _contraction(g)[0] < 1.0
