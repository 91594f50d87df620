"""Machine checks of the identities behind the determinant method, desk scale.

Each check returns a pass/fail verdict plus a short deterministic detail
string; the first counterexample (edge, length, values) is reported on
failure.  The CLI turns these into a table and a nonzero exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoration import _decorate
from .graph import EmbeddedGraph, max_degree, require_valid_embedding
from .loops import (
    Group,
    Picked,
    Weighed,
    _add_loops,
    _check_len_cap,
    _Csr,
    _csr,
    _entries,
    _generic_scan,
    _groups,
    _levels,
    _loops_up_to,
    _pick,
    _reverse_steps,
    _self_avoiding,
    _step_table,
    _StepTable,
    _steps,
    _traces,
    _value,
    _weigh_steps,
)
from .oracle import partition_function_oracle
from .transition import _transition_matrix, check_convergence_radius


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None  # None means skipped
    detail: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skip"
        return "pass" if self.passed else "FAIL"


def _fmt(x: float) -> str:
    return format(x, ".3e")


def _check_kw_vs_oracle(tm: np.ndarray, z: float, corrupt: bool) -> CheckResult:
    if corrupt and np.any(tm):
        tm = tm.copy()
        tm.flat[np.flatnonzero(tm)[0]] *= 1.01  # deliberate fault for testing
    det = complex(np.linalg.det(np.eye(tm.shape[0], dtype=complex) - tm))
    diff = abs(det - z * z)
    tol = 1e-9 * max(1.0, z * z)
    return CheckResult(
        "kw-vs-oracle",
        diff <= tol,
        f"|det - Z^2| = {_fmt(diff)} (tol {_fmt(tol)})",
    )


# The vectorised checks flag a walk at half the tolerance; a flagged walk is
# checked again with the scalar formulas below, which decide.  numpy's complex
# products and moduli may differ from Python's in the last bits, never by half.
_SCREEN = 0.5e-12


class _HalfTable:
    """The walks of length 0..half from every edge: ``levels[m]`` from the
    enumerator, so a walk is a row of its length and row r of length 0 is the
    walk (r,).  ``lam[m]`` holds the weights (for screening), ``heads[m][r, k]``
    the row of the length-k prefix of walk r, and ``first_child[m][r]`` the
    row of its first extension; the extension along entry e is ``rank[e]``
    rows after it."""

    def __init__(self, csr: _Csr, half: int):
        self.half = half
        self.csr = csr
        self.levels = _levels(csr, np.arange(len(csr.x)).reshape(-1, 1), half)
        self.lam = [np.exp(0.5j * level.t) * level.p for level in self.levels]
        self.rank = np.arange(len(csr.succ)) - csr.start[csr.src]
        self.first_child = []
        for level in self.levels:
            degree = csr.start[level.last + 1] - csr.start[level.last]
            self.first_child.append(np.cumsum(degree) - degree)
        self.heads = [np.arange(len(csr.x)).reshape(-1, 1)]
        for level in self.levels[1:]:
            self.heads.append(
                np.column_stack((self.heads[-1][level.parent], np.arange(len(level.last))))
            )

    def weight(self, m: int, row: int) -> complex:
        return _value(float(self.levels[m].t[row]), float(self.levels[m].p[row]))

    def tails(self, up: dict, n: int, last, entry, parent=None) -> dict[int, np.ndarray]:
        """``tails[m]``: the rows of the last m steps of walks of length n, for
        the m that a split of them or of their extensions takes, from their
        parents' ``up`` (rows ``parent``, else the same rows), last steps and
        last entries."""
        rank = self.rank[entry]
        tails = {}
        for m in range(max(0, n - self.half), min(n, self.half) + 1):
            if m == 0:
                tails[m] = last
            else:
                rows = up[m - 1] if parent is None else up[m - 1][parent]
                tails[m] = self.first_child[m - 1][rows] + rank
        return tails


def _reversal_weight(csr: _Csr, steps: tuple[int, ...]) -> complex:
    """The weight of the reversal of ``steps``, from the step table in its own
    walk order."""
    t, p = _weigh_steps(csr, np.array([_reverse_steps(steps)]))
    return _value(float(t[0]), float(p[0]))


def _walk_failure(
    half: _HalfTable, steps: tuple[int, ...], lam: complex, splits, pair: bool
) -> str | None:
    """The multiplicativity check at ``splits`` [(k, head row, tail row)] and,
    for a ``pair``, the reversal-pair check of one walk, in scalar arithmetic."""
    n = len(steps) - 1
    for k, head_row, tail_row in splits:
        head, tail = steps[: k + 1], steps[k:]
        expect = half.weight(k, head_row) * half.weight(n - k, tail_row)
        if abs(lam - expect) > 1e-12 * max(1.0, abs(expect)):
            return (
                f"multiplicativity fails for {head}+{tail}: "
                f"|diff| = {_fmt(abs(lam - expect))}"
            )
    if pair:
        lam_rev = _reversal_weight(half.csr, steps)
        tol = 1e-12 * max(1.0, abs(lam))
        if abs(lam.real) > tol or abs(lam + lam_rev) > tol:
            return (
                f"reversal-pair walk {steps}: re = {_fmt(abs(lam.real))}, "
                f"|lam + lam_rev| = {_fmt(abs(lam + lam_rev))}"
            )
    return None


def _loop_failure(
    g: EmbeddedGraph, csr: _Csr, steps: tuple[int, ...], lam: complex, x: float
) -> str | None:
    """The loop checks of one loop, in scalar arithmetic."""
    lam_rev = _reversal_weight(csr, steps)
    tol = 1e-12 * max(1.0, abs(lam))
    if abs(lam.imag) > tol or abs(lam - lam_rev) > tol:
        return (
            f"loop {steps}: im = {_fmt(abs(lam.imag))}, "
            f"|lam - lam_rev| = {_fmt(abs(lam - lam_rev))}"
        )
    if _self_avoiding(g, steps) and abs(lam + x) > tol:
        return f"self-avoiding loop {steps}: |lam + x| = {_fmt(abs(lam + x))}"
    return None


def _first_walk_failure(half: _HalfTable, group: Group, max_len: int) -> str | None:
    """The first failure of multiplicativity or of a reversal pair among the
    walks of ``group``, in lexicographic order.

    Each walk of length n <= 2 * half is compared, at every split into a head
    of length k and a tail of length n - k, both <= half, against the product
    of the parts' weights from the half table (tolerance relative with floor
    1, so heavy weights do not trip rounding).  A head is the walk's own
    prefix; a tail row is its parent's tail row extended by the walk's last
    step.  Walks from an edge to its reversal up to ``max_len`` are purely
    imaginary and reversal-antisymmetric; the reversal is weighed from the
    step table in its own walk order."""
    prefix, levels = group
    j = prefix.shape[1] - 1
    h = half.half
    # The first level's tail rows, and the rows of their prefixes of length
    # min(j, h) (``anc``), from which every head is read.
    tails = {0: prefix[:, 0]}
    anc = prefix[:, 0]
    for c in range(1, j + 1):
        entry = _entries(half.csr, prefix[:, c - 1], prefix[:, c])
        tails = half.tails(tails, c, prefix[:, c], entry)
        if c <= h:
            anc = tails[c]
    flagged = []
    for i, level in enumerate(levels):
        n = j + i
        splits = range(max(0, n - h), min(n, h) + 1) if n <= 2 * h else range(0)
        if i and splits:
            tails = half.tails(tails, n, level.last, level.entry, level.parent)
            anc = tails[n] if n <= h else anc[level.parent]
        heads = half.heads[min(n, h)]
        bad = np.zeros(len(level.last), dtype=bool)
        if splits:
            lam = np.exp(0.5j * level.t) * level.p
        for k in splits:
            expect = half.lam[k][heads[anc, k]] * half.lam[n - k][tails[n - k]]
            bad |= np.abs(lam - expect) > _SCREEN * np.maximum(1.0, np.abs(expect))
        pairs = np.flatnonzero(level.last == (level.root ^ 1)) if n <= max_len else []
        if len(pairs):
            t_rev, p_rev = _weigh_steps(half.csr, _steps(prefix, levels, i, pairs)[:, ::-1] ^ 1)
            lam_pair = np.exp(0.5j * level.t[pairs]) * level.p[pairs]
            tol = _SCREEN * np.maximum(1.0, np.abs(lam_pair))
            off = np.abs(lam_pair.real) > tol
            off |= np.abs(lam_pair + np.exp(0.5j * t_rev) * p_rev) > tol
            bad[pairs[off]] = True
        rows = np.flatnonzero(bad)
        if not len(rows):
            continue
        for r, steps in zip(rows.tolist(), _steps(prefix, levels, i, rows).tolist()):
            flagged.append((
                tuple(steps),
                _value(float(level.t[r]), float(level.p[r])),
                [(k, int(heads[anc[r], k]), int(tails[n - k][r])) for k in splits],
                n <= max_len and steps[-1] == steps[0] ^ 1,
            ))
    for steps, lam, splits, pair in sorted(flagged):
        failure = _walk_failure(half, steps, lam, splits, pair)
        if failure is not None:
            return failure
    return None


def _first_loop_failure(
    g: EmbeddedGraph, csr: _Csr, ends_of: np.ndarray, loops: Picked
) -> str | None:
    """The first failure of the loop checks among ``loops``, in lexicographic
    order: loops are real and reversal-symmetric, the reversal weighed from
    the step table; self-avoiding loops weigh minus their edge product.
    ``ends_of[d]`` is (tail, head) of directed edge d."""
    flagged = []
    for steps, t, p in loops:
        lam = np.exp(0.5j * t) * p
        t_rev, p_rev = _weigh_steps(csr, steps[:, ::-1] ^ 1)
        tol = _SCREEN * np.maximum(1.0, np.abs(lam))
        bad = np.abs(lam.imag) > tol
        bad |= np.abs(lam - np.exp(0.5j * t_rev) * p_rev) > tol
        # Self-avoiding: each vertex is an end of exactly two traversed edges.
        ends = np.sort(ends_of[steps[:, :-1]].reshape(len(steps), -1), axis=1)
        avoiding = (ends[:, ::2] == ends[:, 1::2]).all(axis=1)
        avoiding &= (ends[:, 1:-1:2] != ends[:, 2::2]).all(axis=1)
        bad |= avoiding & (np.abs(lam + p) > tol)
        for r in np.flatnonzero(bad).tolist():
            flagged.append((tuple(steps[r].tolist()), float(t[r]), float(p[r])))
    for steps, t, p in sorted(flagged):
        failure = _loop_failure(g, csr, steps, _value(t, p), p)
        if failure is not None:
            return failure
    return None


def _check_weight_properties(
    g: EmbeddedGraph, max_len: int, table: _StepTable
) -> tuple[CheckResult, Weighed]:
    """The check, and the rooted loops up to ``max_len`` that its walk pass
    weighs, in lexicographic order.

    The pass enumerates the walks up to max(max_len, 2 * half) in groups of
    consecutive subtrees and checks each level of a group at once; the
    first failure in lexicographic order is reported (the walk checks before
    the loop checks), and its message comes from the scalar formulas.  After
    a failure the pass stops checking and keeps collecting, so the other loop
    checks see every loop."""
    csr = _csr(table)
    half = _HalfTable(csr, max(max_len // 2, 1))
    ends_of = np.array([(g.tail(d), g.head(d)) for d in range(g.num_directed)], dtype=np.intp)
    loops: Weighed = {}
    walk_failure = loop_failure = None
    for group in _groups(csr, range(g.num_directed), max(max_len, 2 * half.half)):
        picked = _pick(group, _loops_up_to(max_len))
        if walk_failure is None:
            walk_failure = _first_walk_failure(half, group, max_len)
        if walk_failure is None and loop_failure is None:
            loop_failure = _first_loop_failure(g, csr, ends_of, picked)
        _add_loops(loops, picked)
    failure = walk_failure or loop_failure
    detail = failure or f"walk/loop lengths up to {max_len}"
    return CheckResult("weight-properties", failure is None, detail), loops


def _check_specific_cancellation(weighed: Weighed) -> CheckResult:
    name = "specific-cancellation"
    sums: dict[tuple[int, int], complex] = {}
    mags: dict[tuple[int, int], float] = {}
    for steps, (lam, _) in weighed.items():
        body = set(steps[:-1])
        for k in {s >> 1 for s in body}:
            if 2 * k in body and 2 * k + 1 in body:
                for e in (2 * k, 2 * k + 1):
                    key = (e, len(steps) - 1)
                    sums[key] = sums.get(key, 0.0) + lam
                    mags[key] = mags.get(key, 0.0) + abs(lam)
    worst_key = None
    worst_ratio = 0.0
    for key, total in sums.items():
        tol = 1e-12 * max(mags[key], 1.0)
        ratio = abs(total) / tol
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_key = key
        if abs(total) > tol:
            return CheckResult(
                name,
                False,
                f"edge {key[0]} length {key[1]}: |sum| = {_fmt(abs(total))} "
                f"(tol {_fmt(tol)})",
            )
    detail = f"{len(sums)} (edge, length) classes"
    if worst_key is not None:
        detail += f", worst |sum|/tol = {_fmt(worst_ratio)}"
    return CheckResult(name, True, detail)


def _check_generic_cancellation(
    g: EmbeddedGraph, max_len: int, weighed: Weighed
) -> CheckResult:
    name = "generic-cancellation"
    if not check_convergence_radius(g):
        return CheckResult(name, None, "skipped: weights outside the convergence radius")
    worst_gap = 0.0
    worst_edge = -1
    for e, report in enumerate(_generic_scan(g, weighed, max_len)):
        if report.gap > report.bound:
            return CheckResult(
                name,
                False,
                f"edge {e}: gap = {_fmt(report.gap)} exceeds bound {_fmt(report.bound)}",
            )
        if report.gap > worst_gap:
            worst_gap = report.gap
            worst_edge = e
    return CheckResult(
        name, True, f"worst gap = {_fmt(worst_gap)} (edge {worst_edge})"
    )


def _check_trace_identity(tm: np.ndarray, max_len: int, weighed: Weighed) -> CheckResult:
    name = "trace-identity"
    top = min(8, max_len)
    loop_sums = {n: 0.0 + 0.0j for n in range(1, top + 1)}
    for steps, (lam, _) in weighed.items():
        if len(steps) - 1 <= top:
            loop_sums[len(steps) - 1] += lam
    worst = 0.0
    for n, trace in enumerate(_traces(tm, top), 1):
        diff = abs(trace - loop_sums[n])
        worst = max(worst, diff)
        if diff > 1e-11 * max(1.0, abs(trace)):
            return CheckResult(
                name,
                False,
                f"length {n}: |trace - loop sum| = {_fmt(diff)}",
            )
    return CheckResult(name, True, f"lengths 1..{top}, worst diff = {_fmt(worst)}")


def _check_decoration(g: EmbeddedGraph, z0: float) -> CheckResult:
    name = "decoration"
    if max_degree(g) <= 3:
        return CheckResult(name, None, "skipped: graph already trivalent")
    dec = _decorate(g)
    if max_degree(dec.decorated) > 3:
        return CheckResult(name, False, "decorated graph is not trivalent")
    z1 = partition_function_oracle(dec.decorated)
    diff = abs(z0 - z1)
    tol = 1e-12 * max(abs(z0), 1.0)
    return CheckResult(
        name,
        diff <= tol,
        f"|Z - Z_decorated| = {_fmt(diff)} (tol {_fmt(tol)})",
    )


def run_suite(
    g: EmbeddedGraph, max_len: int, corrupt_transition: bool = False
) -> list[CheckResult]:
    """Run every check; ``corrupt_transition`` injects a deliberate fault.

    ``g`` is validated once, first, so an invalid drawing is refused before
    anything else; the decorated graph is validated once more where it is
    built.  The transition matrix and the oracle's Z are computed once and
    shared.  Every walk weight comes from one step table, as the walk
    enumerator reaches the walk; weight-properties' one pass over the walks
    also collects the weighed rooted loops that the other loop checks read.
    A length over ``MAX_LOOP_LEN_CAP`` raises ValueError before any work.
    """
    require_valid_embedding(g)
    _check_len_cap(max_len)
    tm = _transition_matrix(g).entries
    z = partition_function_oracle(g)
    kw = _check_kw_vs_oracle(tm, z, corrupt_transition)
    table = _step_table(g, weigh=True)
    weight_properties, weighed = _check_weight_properties(g, max_len, table)
    return [
        kw,
        weight_properties,
        _check_specific_cancellation(weighed),
        _check_generic_cancellation(g, max_len, weighed),
        _check_trace_identity(tm, max_len, weighed),
        _check_decoration(g, z),
    ]
