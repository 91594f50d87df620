"""Kac-Ward transition matrix, determinant, and the even-subgraph partition function.

The transition matrix is the sparse complex matrix on directed edges with
entry ``x_e * exp(i * angle / 2)`` wherever a non-backtracking step from one
directed edge to the next is possible; a row has at most ``deg(head) - 1``
nonzeros.  The determinant of ``I - transition`` equals the square of the
even-subgraph generating function, which is how ``partition_function_kw``
evaluates it.

The turning angle from ``e`` to ``f`` is ``theta_f - theta_e`` modulo
``2 pi``, ``theta_d`` the direction angle of directed edge ``d``.  So the
diagonal similarity ``D = diag(exp(i * theta_d / 2))``, which leaves the
determinant unchanged, turns every entry of ``D T D^-1`` into ``+-x_e``: a
real matrix, the gauge.  When every weight is nonnegative, ``I - T`` is
factored in that real gauge, in real arithmetic; no monomial of the
even-subgraph sum is then negative, so nothing cancels and the determinant
is at least 1.  With weights of both signs the sum can cancel below double
precision, and the imaginary residue of the complex factor is what detects
it (``_log_sqrt_det`` refuses a phase off the real axis); the real gauge has
no such residue and would return a wrong value of either sign, so mixed
signs keep the complex matrix.  The choice is read off the weights' signs;
there is no other.

``I - transition`` is factored once per query by a sparse LU
(SuperLU) in a fill-reducing order read off the drawing: a nested dissection
by a quadtree over the vertex coordinates (George 1973; Lipton, Rose and
Tarjan 1979).  ``T[e, f]`` is nonzero only where the head of ``e`` is the
tail of ``f``, so the directed edges that cross a cut of the plane separate
the edges on its two sides, and a planar drawing has cuts that few edges
cross.  The order permutes rows and columns alike, which leaves the
determinant unchanged.  SuperLU runs with single-column supernodes
(``relax=1, panel_size=1``): the fronts of this order stay small, and its
default relaxed supernodes cost more in bookkeeping than they save in dense
arithmetic at every size up to 64x64 measured.  ``relax`` must not exceed
``panel_size``; scipy 1.17.1 corrupted memory with ``relax=64,
panel_size=16``.

Only the moduli ``x_e`` depend on the weights; the step pattern, the turning
angles, their phases, the gauge's signs, the order and the sparse layout of
``I - transition`` depend on the drawing alone.
They are computed once per geometry record, which ``with_weights`` copies
share, so a beta sweep pays per query only for the weights, one gather, one
product and the factorization.  The steps, angles and phases (``_layout``)
are what the transition matrix and the walk enumerator read; the signs, the
order and the sparse layout (``_pattern``) are made on the first
factorization, so
``verify``, which never factors sparsely, does not make them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .graph import EmbeddedGraph, _turning_angles, max_degree, require_valid_embedding

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
    meaningful.  A phase of exactly 0 or pi gives an imaginary part of
    exactly 0, overflowed or not.  With nonnegative weights the matrix is
    factored in its real gauge (see the module docstring), so the phase is
    exactly 0; with weights of both signs it is the complex factor's, and
    its distance from 0 shows how far the value sat from the real axis.
    """

    det: complex
    log_abs_det: float
    phase: float


class _Layout(NamedTuple):
    """What the transition matrix takes from the drawing alone.

    ``rows``/``cols`` list the non-backtracking steps, ``angle`` their turning
    angles and ``phase`` their ``exp(i * angle / 2)``.  The walk enumerator
    of :mod:`kacward.loops` reads the same steps and angles.
    """

    rows: np.ndarray
    cols: np.ndarray
    angle: np.ndarray
    phase: np.ndarray


def _layout(g: EmbeddedGraph) -> _Layout:
    """The layout of ``g``'s drawing, computed once per geometry record.

    Row ``d`` of the steps lists the out-edges of ``d``'s head in ascending
    id order, less the reversal ``d ^ 1``, gathered from the out-edge CSR;
    the turning angles come from the coordinate array, with the formula that
    ``turning_angle`` applies to one step.  The drawing need not be valid: a
    zero-length edge gets an angle of 0 or pi, not an error.
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
    angle = _turning_angles(geometry.xy, tails[rows], heads[rows], heads[cols])
    arrays = (rows, cols, angle, np.exp(0.5j * angle))
    for a in arrays:  # shared by every graph with this geometry
        a.flags.writeable = False
    geometry.layout = _Layout(*arrays)
    return geometry.layout


# Bits per axis of the quadtree grid that ``_dissection_order`` cuts.
_QUAD_BITS = 16


def _spread(q: np.ndarray) -> np.ndarray:
    """The bits of each ``_QUAD_BITS``-bit integer, moved to the even positions."""
    q = (q | (q << 8)) & 0x00FF00FF
    q = (q | (q << 4)) & 0x0F0F0F0F
    q = (q | (q << 2)) & 0x33333333
    return (q | (q << 1)) & 0x55555555


def _dissection_order(xy: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The undirected edge ids in a nested-dissection order of the drawing.

    The coordinates are quantized to a ``2^16`` grid over the longer side of
    the bounding box, and each vertex gets the quadtree (Morton) code that
    interleaves its cell's x bits (even positions) and y bits (odd).  An
    edge belongs to the quadtree node where its endpoints' codes first
    differ, ``h`` levels above the leaves, ``h`` the bit length of the xor
    of the two codes.  The edges sort in post-order of those nodes, by the
    node's last code ``gu | (2^h - 1)`` and then ``h``, ties in id order:
    the edges within each half of a node come before the edges that cross
    between the halves, which separate them.
    """
    if not len(ends):
        return np.zeros(0, dtype=np.intp)
    # Halved before subtracting, so that no difference overflows.
    offset = xy * 0.5 - xy.min(axis=0) * 0.5
    span = offset.max()
    if span > 0.0:
        offset /= span
    cells = 1 << _QUAD_BITS
    q = np.minimum((offset * cells).astype(np.int64), cells - 1)
    code = _spread(q[:, 0]) | (_spread(q[:, 1]) << 1)
    gu, gv = code[ends[:, 0]], code[ends[:, 1]]
    h = np.frexp((gu ^ gv).astype(np.float64))[1]  # the bit length; exact below 2^53
    return np.lexsort((h, gu | ((np.int64(1) << h) - 1)))


class _Pattern(NamedTuple):
    """The sparse layout of ``I - T`` in the drawing's nested-dissection order.

    Directed edge ``d`` is row and column ``pos[d]``, and the two directions
    of an edge are adjacent: ``pos[2e + 1] == pos[2e] + 1``.  ``indptr`` and
    ``indices`` are the CSC pattern of the permuted matrix, whose data is
    ``concatenate((ones, -values))[order]``: the order in which scipy's COO
    to CSC conversion (sorted by column, then by row) places the identity's
    diagonal followed by the steps, both at their permuted positions.
    ``sign`` holds the +-1.0 of each step in the real gauge, in the layout's
    step order: ``phase[k] * exp(i * (theta[rows[k]] - theta[cols[k]]) / 2)``.
    """

    pos: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray
    sign: np.ndarray


def _pattern(g: EmbeddedGraph) -> _Pattern:
    """The sparse layout of ``g``'s ``I - T``, computed once per geometry record.

    The gauge's signs: ``theta_d`` is the ``arctan2`` of the halved head -
    tail displacement of directed edge ``d`` (halved so that no difference
    overflows), and a step's turning angle differs from ``theta_f -
    theta_e`` by ``2 pi k``, so its entry in the real gauge is ``(-1)^k *
    x_e``.  ``k`` is rounded from floats that sit within a few ulps of
    ``2 pi k``, a margin of pi, so rounding cannot flip it; it reads the
    layout's angles, so an angle of +-pi keeps the side that its exact
    orientation gave it.
    """
    geometry = g._geometry
    if geometry.pattern is not None:
        return geometry.pattern
    layout = _layout(g)
    n = g.num_directed
    half, ends = geometry.xy * 0.5, geometry.ends
    step = half.take(ends[:, ::-1].reshape(-1), axis=0) - half.take(ends.reshape(-1), axis=0)
    theta = np.arctan2(step[:, 1], step[:, 0])
    k = np.rint((layout.angle - (theta[layout.cols] - theta[layout.rows])) / (2.0 * math.pi))
    sign = 1.0 - 2.0 * np.mod(k, 2.0)
    edge_pos = np.empty(g.num_edges, dtype=np.intp)
    edge_pos[_dissection_order(geometry.xy, ends)] = np.arange(g.num_edges)
    pos = (2 * edge_pos[:, None] + np.arange(2)).reshape(-1)
    all_rows = np.concatenate((pos, pos[layout.rows]))
    all_cols = np.concatenate((pos, pos[layout.cols]))
    order = np.lexsort((all_rows, all_cols))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(all_cols, minlength=n), out=indptr[1:])
    arrays = (pos, indptr, all_rows[order], order, sign)
    for a in arrays:  # shared by every graph with this geometry
        a.flags.writeable = False
    geometry.pattern = _Pattern(*arrays)
    return geometry.pattern


def build_transition_matrix(g: EmbeddedGraph) -> TransitionMatrix:
    """Assemble the directed-edge transition matrix; validates ``g`` first."""
    require_valid_embedding(g)
    layout = _layout(g)
    values = g._weights[layout.rows >> 1] * layout.phase
    return TransitionMatrix(size=g.num_directed, rows=layout.rows, cols=layout.cols, values=values)


def _parity(perm: np.ndarray) -> int:
    """0 if the permutation is even, 1 if odd.

    The identity returns 0 at once.  Otherwise, a cycle of length c is c - 1
    transpositions, so the parity is that of ``n - cycles``.  The cycles are
    counted by pointer jumping: after k rounds ``label[i]`` is the least of i
    and its next 2^k - 1 images, so after ceil(log2 n) rounds it is the least
    element of i's cycle.
    """
    p = np.asarray(perm, dtype=np.intp)
    n = len(p)
    label = np.arange(n)
    if np.array_equal(p, label):
        return 0
    for _ in range(max(n - 1, 0).bit_length()):
        label = np.minimum(label, label[p])
        p = p[p]
    return (n - int(np.count_nonzero(label == np.arange(n)))) & 1


def _sparse_slogdet(a) -> tuple[float, float]:
    """(log|det a|, phase of det a in (-pi, pi]) of a square scipy CSC matrix.

    ``a`` comes already in its fill-reducing order, so SuperLU keeps the
    column order (``NATURAL``; it may still postorder the elimination tree)
    and pivots rows, at its default threshold, with single-column
    supernodes (``relax=1, panel_size=1``; see the module docstring).  It
    factors ``Pr @ a @ Pc = L @ U`` with unit-diagonal ``L``, so ``det a`` is
    the product of ``diag(U)`` times the signs of the two permutations, each
    taken on its own, as either is often the identity.  A real ``a`` gives a
    phase of exactly 0 or pi.
    """
    from scipy.sparse.linalg import splu

    try:
        # Fixed: relaxed supernodes pay only on large dense fronts, which the
        # drawing's order does not make; relax > panel_size has corrupted
        # SuperLU's memory.
        lu = splu(a, permc_spec="NATURAL", relax=1, panel_size=1)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"determinant is zero ({exc})") from exc
    pivots = lu.U.diagonal()
    log_abs = float(np.sum(np.log(np.abs(pivots))))
    odd = _parity(lu.perm_r) ^ _parity(lu.perm_c)
    if np.iscomplexobj(pivots):
        phase = float(np.sum(np.angle(pivots)))
    else:  # a sign each: counted, as a float sum of pi's would round
        phase = 0.0
        odd ^= int(np.count_nonzero(pivots < 0.0)) & 1
    phase += math.pi * odd
    phase = math.remainder(phase, 2.0 * math.pi)
    if phase == -math.pi:
        phase = math.pi
    return log_abs, phase


def kac_ward_determinant(g: EmbeddedGraph) -> DetResult:
    """det(I - transition), from one sparse LU in log form to avoid overflow.

    Validates ``g`` first.  When every weight is nonnegative, the matrix is
    factored in its real gauge, where step ``k`` holds ``-x * sign[k]``
    (``_pattern``), in real arithmetic; the determinant is then at least 1
    and its phase exactly 0.  Otherwise it is factored as the complex
    ``I - T``, whose phase detects cancellation (see the module docstring).
    The rows and columns are permuted alike into the drawing's nested
    dissection order, which leaves the determinant unchanged.
    """
    require_valid_embedding(g)
    n = g.num_directed
    if n == 0:
        return DetResult(det=1.0 + 0.0j, log_abs_det=0.0, phase=0.0)
    from scipy.sparse import csc_array

    layout, pattern = _layout(g), _pattern(g)
    weights = g._weights
    step = pattern.sign if weights.min() >= 0.0 else layout.phase
    # Negated after the product: -(x * phase) keeps the sign of a zero
    # imaginary part that (-x) * phase would flip.
    data = np.concatenate((np.ones(n), -(weights[layout.rows >> 1] * step)))[pattern.order]
    a = csc_array((data, pattern.indices, pattern.indptr), shape=(n, n))
    log_abs, phase = _sparse_slogdet(a)
    mag = _exp(log_abs)
    if phase == 0.0 or phase == math.pi:  # a real det; inf * sin(0) would be nan
        det = complex(-mag if phase else mag, 0.0)
    else:
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
