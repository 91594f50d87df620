"""Non-backtracking walk and loop calculus on directed edges.

A walk of length n is a sequence of n+1 directed edge ids where each entry
continues from the head of the previous one and never immediately reverses
it.  A loop is a walk of length at least 2 whose first and last entries
coincide; loops are *rooted* objects, so a cyclic shift is a different loop.

Weights: every walk carries the product of transition-matrix entries along
its steps, which factors as ``exp(i * turning_sum / 2) * edge_product`` with
``turning_sum`` the accumulated signed turning angle and ``edge_product``
the product of traversed edge weights.  The final entry of the sequence is
not traversed, so its weight and no further angle enter the product.

Enumeration: one level-wise walk enumerator, ``_levels``, reads the steps of
the transition layout (``transition._layout``): for each directed edge d, its
non-backtracking continuations f with their turning angles, and the weight
x_d, held as CSR arrays (``_csr``).  It builds the walks one length at a time
in numpy arrays; each walk stores its parent's index, its last step, its
root, its turning sum and its edge product, and weighs its parent's sums plus
one step, in walk order, so the weights are the same floats that
``walk_weight`` returns.  Every level is in lexicographic order, and a
lexsort of the levels recovers the depth-first order.  ``_groups`` bounds the
memory: it hands the walks out in consecutive groups of subtrees, each
counted from the steps before it is built.  Each group's kept walks are
sorted into a record of arrays, ``_Loops`` (padded steps, lengths,
weights), in lexicographic order; ``_weighed_loops`` joins the records of the
loops into one, with no ``Loop`` object per loop, and the public enumerators
turn each record into step tuples as it is sorted.  The layout's angles
raise on no drawing (a zero-length edge gets 0 or pi), so every enumerator
runs on graphs with zero-length edges too;
``verify_generic_cancellation`` refuses a zero-length edge only on a loop
(``_on_loops``), since a loop's weight needs the turning angles at its edges
and no loop steps onto a tree hanging off the graph.

"Visits" of an edge are counted over the first n entries only, matching the
weight convention.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .graph import EmbeddedGraph, _step_angles
from .transition import _contraction, _layout, build_transition_matrix, check_convergence_radius

MAX_LOOP_LEN_CAP = 16


@dataclass(frozen=True, eq=False)
class Walk:
    """Non-backtracking sequence of directed edges; ``steps`` has length n+1."""

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("a walk needs at least one directed edge")
        for a, b in zip(steps, steps[1:]):
            if b == (a ^ 1):
                raise ValueError(f"backtracking step {a} -> {b}")

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    @property
    def first(self) -> int:
        return self.steps[0]

    @property
    def last(self) -> int:
        return self.steps[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Walk):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.steps!r}"


@dataclass(frozen=True, eq=False, repr=False)
class Loop(Walk):
    """A walk of length >= 2 that starts and ends with the same directed edge."""

    def __post_init__(self):
        super().__post_init__()
        if self.steps[0] != self.steps[-1]:
            raise ValueError("a loop must end with its first directed edge")
        if self.length < 2:
            raise ValueError("a loop must have length at least 2")


@dataclass(frozen=True)
class WalkWeight:
    """Weight data of a walk: complex value, turning-angle sum, edge-weight product."""

    value: complex
    turning_sum: float
    edge_product: float


@dataclass(frozen=True)
class LoopStats:
    """Block multiplicity and per-directed-edge visit counts of a loop."""

    multiplicity: int
    visits: dict[int, int]


def _check_in_graph(g: EmbeddedGraph, w: Walk) -> np.ndarray:
    """The steps of ``w`` as an array, checked to be a walk in ``g``."""
    n2 = g.num_directed
    outside = [s for s in w.steps if not 0 <= s < n2]
    if outside:
        raise ValueError(f"directed edge id {outside[0]} out of range [0, {n2})")
    steps = np.array(w.steps, dtype=np.intp)
    flat = g._geometry.ends.reshape(-1)
    broken = (flat[steps[1:]] != flat[steps[:-1] ^ 1]).nonzero()[0].tolist()
    if broken:
        a, b = w.steps[broken[0]], w.steps[broken[0] + 1]
        raise ValueError(f"steps {a} -> {b} are not consecutive")
    return steps


def walk_weight(g: EmbeddedGraph, w: Walk) -> WalkWeight:
    """Evaluate the walk weight; the empty walk (length 0) weighs (1, 0, 1).

    The turning angles of all the steps come from one call, and are added in
    walk order."""
    steps = _check_in_graph(g, w)
    turning, product = 0.0, 1.0
    angles = _step_angles(g, steps[:-1], steps[1:]).tolist()
    for angle, x in zip(angles, g._weights[steps[:-1] >> 1].tolist()):
        turning += angle
        product *= x
    return WalkWeight(cmath.exp(0.5j * turning) * product, turning, product)


def _promote(steps: tuple[int, ...]) -> Walk:
    if len(steps) >= 3 and steps[0] == steps[-1]:
        return Loop(steps)
    return Walk(steps)


def concat(w1: Walk, w2: Walk) -> Walk:
    """Join two walks overlapping on one directed edge (last of w1 = first of w2)."""
    if w1.last != w2.first:
        raise ValueError(
            f"cannot concatenate: walk ends at {w1.last}, next starts at {w2.first}"
        )
    return _promote(w1.steps + w2.steps[1:])


def reverse_walk(w: Walk) -> Walk:
    """Traverse the walk backwards along reversed directed edges."""
    return _promote(tuple((s ^ 1) for s in reversed(w.steps)))


def _self_avoiding(ends: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """Whether each loop, a row of ``bodies`` listing the directed edges it
    traverses, is self-avoiding: every vertex of it is an end of exactly two
    of them.  ``ends`` is the graph's ``(|E|, 2)`` endpoint array.  Sorted,
    the ends of a self-avoiding row come in equal pairs, each unlike the next."""
    at = np.sort(ends[bodies >> 1].reshape(len(bodies), -1), axis=1)
    paired = (at[:, ::2] == at[:, 1::2]).all(axis=1)
    return paired & (at[:, 1:-1:2] != at[:, 2::2]).all(axis=1)


def is_self_avoiding(g: EmbeddedGraph, l: Loop) -> bool:
    """True iff every vertex of the loop appears in exactly two traversed edges."""
    return bool(_self_avoiding(g._geometry.ends, np.array([l.steps[:-1]]))[0])


def multiplicity(l: Loop) -> int:
    """Largest m such that the traversed sequence is m identical blocks."""
    body = l.steps[:-1]
    n = len(body)
    for m in range(n, 0, -1):
        if n % m:
            continue
        block = n // m
        if all(body[i] == body[i % block] for i in range(n)):
            return m
    return 1


def loop_stats(l: Loop) -> LoopStats:
    visits: dict[int, int] = {}
    for s in l.steps[:-1]:
        visits[s] = visits.get(s, 0) + 1
    return LoopStats(multiplicity=multiplicity(l), visits=visits)


def _require_convergence(g: EmbeddedGraph) -> None:
    if not check_convergence_radius(g):
        raise ValueError(
            "outside convergence radius: (max_degree - 1) * max|x| = "
            f"{_contraction(g)[0]:.3g} >= 1"
        )


def _check_len_cap(max_len: int) -> None:
    if max_len > MAX_LOOP_LEN_CAP:
        raise ValueError(
            f"enumeration length {max_len} exceeds cap {MAX_LOOP_LEN_CAP}"
        )


def _on_loops(g: EmbeddedGraph) -> list[bool]:
    """``on[d]``: some loop steps along directed edge ``d``.

    An edge at a vertex of degree 1 (a leaf of a tree hanging off the graph)
    lies on no loop, as no walk turns back at its leaf; such edges are peeled
    off until none is left.  Each remaining edge lies on a loop in both
    directions, as every remaining vertex has another edge to go on along.
    The first leaves are found on arrays; after that, only a vertex that a
    peel leaves with degree 1 has a new leaf, its one edge left, so each
    edge and vertex is looked at a bounded number of times, however deep
    the trees are.
    """
    geometry = g._geometry
    degree = np.bincount(geometry.ends.reshape(-1), minlength=g.num_vertices)
    on = (degree[geometry.ends] > 1).all(axis=1)
    if on.all():
        return [True] * g.num_directed
    peeled = geometry.ends[~on].reshape(-1)
    degree -= np.bincount(peeled, minlength=g.num_vertices)
    left, live = degree.tolist(), on.tolist()
    flat, ptr = geometry.ends.reshape(-1).tolist(), geometry.out_ptr.tolist()
    bare = [w for w in set(peeled.tolist()) if left[w] == 1]
    while bare:
        w = bare.pop()
        for d in geometry.out_ids[ptr[w] : ptr[w + 1]].tolist():
            if live[d >> 1]:  # w's one edge left, unless a peel at its far end took it
                live[d >> 1] = False
                x = flat[d ^ 1]
                left[x] -= 1
                if left[x] == 1:
                    bare.append(x)
                break
    return np.repeat(live, 2).tolist()


# Walks materialised at once by ``_groups``; bounds the enumerator's memory.
_GROUP_CAP = 1 << 14


class _Csr(NamedTuple):
    """The steps as the walk enumerator reads them: directed edge d continues
    along the entries ``start[d]:start[d + 1]``, onto ``succ`` (ascending)
    with turning angle ``angle``; ``src`` is the edge each entry continues,
    ``key`` is ``src * len(x) + succ`` (ascending), ``x[d]`` is x_d."""

    start: np.ndarray
    src: np.ndarray
    succ: np.ndarray
    key: np.ndarray
    angle: np.ndarray
    x: np.ndarray


def _csr(g: EmbeddedGraph) -> _Csr:
    """The steps of ``g``: the transition layout's ``rows``, ``cols`` and
    ``angle`` arrays themselves, and ``g``'s weights."""
    layout = _layout(g)
    src, succ, angle = layout.rows, layout.cols, layout.angle
    n = g.num_directed
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=start[1:])
    return _Csr(start, src, succ, src * n + succ, angle, np.repeat(g._weights, 2))


def _entries(csr: _Csr, d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The entries of the steps ``d[i] -> f[i]``; each must be in ``csr``."""
    return np.searchsorted(csr.key, d * len(csr.x) + f)


def _weigh_steps(csr: _Csr, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(turning sums, edge products) of the walks in the rows of ``steps``,
    summed in walk order, as ``walk_weight`` sums them."""
    turning = np.zeros(len(steps))
    product = np.ones(len(steps))
    for a, b in zip(steps.T, steps.T[1:]):
        turning = turning + csr.angle[_entries(csr, a, b)]
        product = product * csr.x[a]
    return turning, product


class _Level(NamedTuple):
    """The walks of one length, in lexicographic order.  Walk i extends walk
    ``parent[i]`` of the level before along entry ``entry[i]`` onto
    ``last[i]``; it starts with ``root[i]`` and has turning sum ``t[i]`` and
    edge product ``p[i]``.  At the first level ``parent`` indexes the prefix
    rows and ``entry`` is -1."""

    parent: np.ndarray
    entry: np.ndarray
    last: np.ndarray
    root: np.ndarray
    t: np.ndarray
    p: np.ndarray


def _levels(csr: _Csr, prefix: np.ndarray, depth: int) -> list[_Level]:
    """The walk enumerator: the walks that extend the rows of ``prefix`` (walks
    of one length, in lexicographic order) by 0..depth steps, one level per
    length.  Children follow their parents' order, each parent's in ascending
    step order, so every level is in lexicographic order.  A child weighs
    ``t + angle`` and ``p * x[last]`` of its parent: the float operations of
    ``walk_weight`` in the same order, so the weights are bit-identical."""
    rows = np.arange(len(prefix))
    t, p = _weigh_steps(csr, prefix)
    levels = [_Level(rows, np.full(len(rows), -1), prefix[:, -1], prefix[:, 0], t, p)]
    for _ in range(depth):
        up = levels[-1]
        first = csr.start[up.last]
        degree = csr.start[up.last + 1] - first
        parent = np.repeat(np.arange(len(degree)), degree)
        # Children of parent i take entries first[i], first[i] + 1, ...
        entry = np.repeat(first - (np.cumsum(degree) - degree), degree)
        entry += np.arange(len(entry))
        t = up.t[parent]
        t += csr.angle[entry]
        p = up.p[parent]
        p *= csr.x[up.last][parent]
        levels.append(_Level(parent, entry, csr.succ[entry], up.root[parent], t, p))
    return levels


def _steps(prefix: np.ndarray, levels: list[_Level], n: int, rows: np.ndarray) -> np.ndarray:
    """The steps of the walks ``rows`` of ``levels[n]``, one walk per row."""
    columns = []
    for level in levels[n:0:-1]:
        columns.append(level.last[rows])
        rows = level.parent[rows]
    return np.column_stack([prefix[rows]] + columns[::-1])


def _subtree_sizes(csr: _Csr, depth: int) -> list[np.ndarray]:
    """``sizes[r][d]``: the number of walks of length 0..r that start with d."""
    sizes = [np.ones(len(csr.x), dtype=np.int64)]
    for _ in range(depth):
        ahead = np.concatenate(([0], np.cumsum(sizes[-1][csr.succ])))
        sizes.append(1 + ahead[csr.start[1:]] - ahead[csr.start[:-1]])
    return sizes


Group = tuple[np.ndarray, list[_Level]]


def _groups(csr: _Csr, roots: Iterable[int], depth: int) -> Iterator[Group]:
    """The walks of length 0..depth from ``roots`` (ascending), as consecutive
    groups in lexicographic order, each the prefix rows and ``_levels`` of
    their extensions.  Each group's walk count is counted from the steps
    before it is enumerated and stays within ``_GROUP_CAP``: a group is
    consecutive subtrees while they fit, and a subtree too large alone is its
    first walk alone, then the groups of its children's subtrees."""
    sizes = _subtree_sizes(csr, depth)

    def split(prefix: np.ndarray) -> Iterator[Group]:
        rest = depth - (prefix.shape[1] - 1)
        a, total = 0, 0
        for i, size in enumerate(sizes[rest][prefix[:, -1]].tolist()):
            if total + size > _GROUP_CAP and a < i:
                yield prefix[a:i], _levels(csr, prefix[a:i], rest)
                a, total = i, 0
            if size <= _GROUP_CAP:
                total += size
                continue
            d = prefix[i, -1]
            succ = csr.succ[csr.start[d] : csr.start[d + 1]]
            yield prefix[i : i + 1], _levels(csr, prefix[i : i + 1], 0)
            yield from split(np.column_stack((np.repeat(prefix[i : i + 1], len(succ), 0), succ)))
            a = i + 1
        if a < len(prefix):
            yield prefix[a:], _levels(csr, prefix[a:], rest)

    yield from split(np.array(list(roots), dtype=np.intp).reshape(-1, 1))


Picked = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _pick(group: Group, keep) -> Picked:
    """(steps, turning sums, edge products) of the walks of ``group`` that
    ``keep(length, level)`` marks, one triple per level that has any."""
    prefix, levels = group
    picked = []
    for i, level in enumerate(levels):
        rows = np.flatnonzero(keep(prefix.shape[1] - 1 + i, level))
        if len(rows):
            picked.append((_steps(prefix, levels, i, rows), level.t[rows], level.p[rows]))
    return picked


def _every_walk(n: int, level: _Level) -> np.ndarray:
    return np.ones(len(level.last), dtype=bool)


def _loops_up_to(max_len: int):
    """The ``keep`` of ``_pick`` that marks the loops of length 2..max_len."""

    def keep(n: int, level: _Level) -> np.ndarray:
        return (level.last == level.root) & (2 <= n <= max_len)

    return keep


class _Loops(NamedTuple):
    """Walks in lexicographic order, one per row: ``steps`` padded with -1,
    ``length`` steps each, weight ``lam`` as ``walk_weight`` weighs it."""

    steps: np.ndarray
    length: np.ndarray
    lam: np.ndarray


def _sorted(picked: Picked, width: int) -> _Loops:
    """The walks of ``picked`` in lexicographic order, padded to ``width`` entries."""
    n = sum(len(rows) for rows, _, _ in picked)
    steps = np.full((n, width), -1, dtype=np.intp)
    length, t, p = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    at = 0
    for rows, turning, product in picked:
        end = at + len(rows)
        steps[at:end, : rows.shape[1]] = rows
        length[at:end], t[at:end], p[at:end] = rows.shape[1] - 1, turning, product
        at = end
    order = np.lexsort(steps.T[::-1])
    return _Loops(steps[order], length[order], np.exp(0.5j * t[order]) * p[order])


def _join(parts: list[_Loops], width: int) -> _Loops:
    """The records ``parts`` end to end; each part leaves the list, and is
    freed, once it is copied, so the parts and the whole are not all held."""
    n = sum(len(part.lam) for part in parts)
    steps, length = np.empty((n, width), dtype=np.intp), np.empty(n, dtype=np.intp)
    whole = _Loops(steps, length, np.empty(n, complex))
    at = 0
    parts.reverse()
    while parts:
        part = parts.pop()
        for column, piece in zip(whole, part):
            column[at : at + len(piece)] = piece
        at += len(part.lam)
    return whole


def _visits(loops: _Loops, n: int) -> np.ndarray:
    """``visits[i, d]``: loop i steps along directed edge d.  Its last entry
    repeats its first; the padding, -1, marks column n, which is dropped."""
    visits = np.zeros((len(loops.lam), n + 1), dtype=bool)
    for column in loops.steps.T:
        visits[np.arange(len(visits)), column] = True
    return visits[:, :n]


def _all_walks(g: EmbeddedGraph, max_len: int, root: int | None, keep) -> list[tuple[int, ...]]:
    """The step tuples of the walks up to ``max_len`` from ``root`` (or from
    every edge) that ``keep`` marks, in lexicographic order; each group's
    record becomes tuples as soon as it is sorted."""
    roots = range(g.num_directed) if root is None else (root,)
    max_len = max(max_len, 0)
    walks = []
    for group in _groups(_csr(g), roots, max_len):
        part = _sorted(_pick(group, keep), max_len + 1)
        rows, lengths = part.steps.tolist(), part.length.tolist()
        walks.extend(tuple(row[: n + 1]) for row, n in zip(rows, lengths))
    return walks


def enumerate_walks(
    g: EmbeddedGraph, max_len: int, start: int | None = None
) -> list[Walk]:
    """All walks of length 0..max_len, from one start edge or from every edge.

    Deterministic: starts ascend, and continuations are explored in ascending
    directed-edge id order, so the output is in lexicographic step order.
    """
    _check_len_cap(max_len)
    if start is not None and not 0 <= start < g.num_directed:
        raise ValueError(f"start edge {start} out of range")
    return [Walk(steps) for steps in _all_walks(g, max_len, start, _every_walk)]


def enumerate_rooted_loops(
    g: EmbeddedGraph, max_len: int, root: int | None = None
) -> list[Loop]:
    """All loops of length 2..max_len rooted at ``root`` (or at every edge).

    A loop and its cyclic shifts are distinct objects with distinct roots;
    each step sequence appears exactly once.  Deterministic lexicographic
    order per root, roots ascending.
    """
    _check_len_cap(max_len)
    if root is not None and not 0 <= root < g.num_directed:
        raise ValueError(f"root edge {root} out of range")
    return [Loop(steps) for steps in _all_walks(g, max_len, root, _loops_up_to(max_len))]


def _traces(m: np.ndarray, max_n: int) -> Iterator[complex]:
    """trace(m^n) for n = 1..max_n of the dense transition matrix ``m``."""
    power = np.eye(m.shape[0], dtype=np.complex128)
    for _ in range(max_n):
        power = power @ m
        yield complex(np.trace(power))


def truncated_loop_sum(g: EmbeddedGraph, max_n: int) -> complex:
    """Sum of trace(transition^n) / n for n = 1..max_n.

    Within the convergence radius this is a truncation of the negated
    log-determinant of (I - transition), and term by term it equals the
    weight sum of all rooted loops of each length.
    """
    _require_convergence(g)
    total = 0.0 + 0.0j
    for n, trace in enumerate(_traces(build_transition_matrix(g).entries, max_n), 1):
        total += trace / n
    return total


def specific_cancellation_involution(g: EmbeddedGraph, l: Loop, e: int) -> Loop:
    """The weight-negating pairing on loops that visit both ``e`` and its reversal.

    Locates the first traversal of ``e`` or its reversal and the last
    traversal of the opposite direction, and reverses the stretch between
    them.  The result has the same length, root, and edge-weight product,
    and its complex weight is exactly negated; applying the map twice gives
    back the original loop.
    """
    _check_in_graph(g, l)
    body = l.steps[:-1]
    if e not in body or (e ^ 1) not in body:
        raise ValueError(
            f"loop does not visit both directed edge {e} and its reversal"
        )
    lo = next(i for i, s in enumerate(body) if s == e or s == (e ^ 1))
    target = body[lo] ^ 1
    hi = max(i for i, s in enumerate(body) if s == target)
    mid = tuple((s ^ 1) for s in reversed(l.steps[lo : hi + 1]))
    result = l.steps[: lo + 1] + mid[1:] + l.steps[hi + 1 :]
    try:
        out = Loop(result)
        _check_in_graph(g, out)
    except ValueError as exc:  # pragma: no cover - internal consistency guard
        raise RuntimeError(f"involution produced an invalid loop: {exc}") from exc
    return out


def decompose_at_root(l: Loop, e: int) -> list[Loop]:
    """Split a loop rooted at ``e`` into its single-visit factors.

    Requires the loop to start at ``e``, never traverse the reversal of
    ``e``, and traverse ``e`` some k >= 1 times; returns the k loops that
    each traverse ``e`` exactly once and concatenate back to the original.
    """
    body = l.steps[:-1]
    if l.first != e:
        raise ValueError(f"loop is rooted at {l.first}, not at {e}")
    if (e ^ 1) in body:
        raise ValueError(f"loop visits the reversal of {e}")
    positions = [i for i, s in enumerate(body) if s == e]
    cuts = positions + [len(l.steps) - 1]
    return [
        Loop(l.steps[cuts[j] : cuts[j + 1] + 1]) for j in range(len(positions))
    ]


@dataclass(frozen=True)
class GenericCancellationReport:
    """Two truncated sides of the single-visit factorization identity."""

    lhs: complex
    rhs: complex
    gap: float
    bound: float


def _weighed_loops(csr: _Csr, max_len: int) -> _Loops:
    """The loops of length 2..max_len, as one record in lexicographic order,
    built a group at a time."""
    keep, width = _loops_up_to(max_len), max_len + 1
    groups = _groups(csr, range(len(csr.x)), max_len)
    return _join([_sorted(_pick(group, keep), width) for group in groups], width)


def _generic_scan(
    g: EmbeddedGraph, loops: _Loops, visits: np.ndarray, max_n: int
) -> list[GenericCancellationReport]:
    """``verify_generic_cancellation`` at every directed edge, from the loops
    up to ``max_n`` and their ``visits``; each edge's sums add up in loop order."""
    share = np.empty(len(loops.lam), complex)  # lam / length, as Python divides
    share.real, share.imag = loops.lam.real / loops.length, loops.lam.imag / loops.length
    wsum = np.zeros(g.num_directed, complex)
    for d in range(g.num_directed):
        through = np.flatnonzero(visits[:, d] & ~visits[:, d ^ 1])
        np.add.at(wsum, np.full(len(through), d), share[through])
    root = loops.steps[:, 0]
    # The last entry repeats the root, so a single visit shows twice.
    single_visit = (loops.steps == root[:, None]).sum(axis=1) == 2
    single_visit &= ~visits[np.arange(len(root)), root ^ 1]
    single = np.zeros(g.num_directed, complex)
    np.add.at(single, root[single_visit], loops.lam[single_visit])
    rho, top = _contraction(g)
    c = 2 * g.num_edges * max(1.0, top)
    bound = c * rho ** (max_n + 1) / (1.0 - rho) if rho > 0 else 0.0
    reports = []
    for s, t in zip(wsum.tolist(), single.tolist()):
        lhs, rhs = cmath.exp(-s), 1.0 - t
        reports.append(GenericCancellationReport(lhs, rhs, abs(lhs - rhs), bound))
    return reports


def verify_generic_cancellation(
    g: EmbeddedGraph, e: int, max_n: int
) -> GenericCancellationReport:
    """Compare exp(-weight sum over loops through ``e`` avoiding its reversal)
    against 1 minus the weight of single-visit loops rooted at ``e``.

    Both sides are truncated at loop length ``max_n``; the report carries the
    truncation bound C * rho^(max_n+1) / (1 - rho) with rho the branching
    contraction (max_degree - 1) * max|x| and C = 2|E| * max(1, max|x|),
    a deliberately crude rooted-loop count.  ``g`` need not be a valid
    drawing, but a zero-length edge on a loop, which has no turning angle,
    raises ValueError.
    """
    _check_len_cap(max_n)
    if not 0 <= e < g.num_directed:
        raise ValueError(f"directed edge {e} out of range")
    _require_convergence(g)
    on = np.array(_on_loops(g), dtype=bool)
    u, v = g._geometry.ends[on[::2]].T  # every edge that a loop uses
    xy = g._geometry.xy
    if (xy[u] == xy[v]).all(axis=1).any():
        raise ValueError("turning angle undefined for a zero-length edge on a loop")
    found = _weighed_loops(_csr(g), max_n)
    return _generic_scan(g, found, _visits(found, g.num_directed), max_n)[e]
