"""Machine checks of the identities behind the determinant method, desk scale.

Each check returns a pass/fail verdict plus a short deterministic detail
string; the first counterexample (edge, length, values) is reported on
failure.  The CLI turns these into a table and a nonzero exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoration import decorate
from .graph import EmbeddedGraph, max_degree, require_valid_embedding
from .loops import (
    Group,
    Picked,
    _check_len_cap,
    _Csr,
    _csr,
    _entries,
    _generic_scan,
    _groups,
    _join,
    _Loops,
    _loops_up_to,
    _pick,
    _self_avoiding,
    _sorted,
    _steps,
    _traces,
    _visits,
    _weigh_steps,
)
from .oracle import partition_function_oracle
from .transition import build_transition_matrix, check_convergence_radius


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
    a = np.eye(tm.shape[0], dtype=complex) - tm
    if corrupt and len(a):
        # Deliberate fault for testing: scaling a row scales det(I - T) by
        # 1.01, so it shows wherever Z is not 0, a forest's nilpotent T too.
        a[0] *= 1.01
    det = complex(np.linalg.det(a))
    diff = abs(det - z * z)
    tol = 1e-9 * max(1.0, z * z)
    return CheckResult(
        "kw-vs-oracle",
        diff <= tol,
        f"|det - Z^2| = {_fmt(diff)} (tol {_fmt(tol)})",
    )


def _carry(
    expect: np.ndarray, rows: np.ndarray, n: int, half: int, step: np.ndarray, lam
) -> np.ndarray:
    """``expect`` of walks of length n from their parents' (``rows`` of
    ``expect``), the step weights of their last steps and, for n <= half,
    their own weights."""
    carried = expect[rows, int(n > half) :]
    carried *= step[:, None]
    return np.column_stack((carried, lam)) if n <= half else carried


def _first_walk_failure(
    csr: _Csr, step: np.ndarray, half: int, group: Group, max_len: int
) -> str | None:
    """The first failure of multiplicativity or of a reversal pair among the
    walks of ``group``, in lexicographic order: the walk, then the split k
    ascending, then the reversal pair.

    Each walk of length n <= 2 * half is compared, at every split into a head
    of length k and a tail of length n - k, both <= half, against the head's
    weight times the tail's (tolerance relative with floor 1, so heavy
    weights do not trip rounding).  The head of length 0 weighs 1; a longer
    head is the walk's ancestor in the group, or for one shorter than the
    group's prefix, that prefix weighed by ``_weigh_steps``.  The tail is the
    product of the ``step`` weights exp(i * angle / 2) * x of its steps.
    ``expect[:, c]`` holds split k = max(0, n - half) + c: the head's weight
    times the steps after it, each walk's the parent's times its last step.
    Walks from an edge to its reversal up to ``max_len`` are purely imaginary
    and reversal-antisymmetric; the reversal is weighed from ``csr`` in its
    own walk order."""
    prefix, levels = group
    j = prefix.shape[1] - 1
    failures = []  # (walk, 0 for a split or 1 for its reversal pair, message)
    expect = np.ones((len(prefix), 1), dtype=complex)
    for c in range(1, min(j, 2 * half + 1)):
        head = None
        if c <= half:
            t, p = _weigh_steps(csr, prefix[:, : c + 1])
            head = np.exp(0.5j * t) * p
        entry = _entries(csr, prefix[:, c - 1], prefix[:, c])
        expect = _carry(expect, np.arange(len(prefix)), c, half, step[entry], head)
    for i, level in enumerate(levels):
        n = j + i
        if n <= 2 * half:
            lam = np.exp(0.5j * level.t) * level.p
            if i or j:
                entry = level.entry if i else _entries(csr, prefix[:, j - 1], prefix[:, j])
                expect = _carry(expect, level.parent, n, half, step[entry], lam)
            bad = np.abs(lam[:, None] - expect) > 1e-12 * np.maximum(1.0, np.abs(expect))
            rows = np.flatnonzero(bad.any(axis=1))
            if len(rows):
                r, c = rows[0], int(np.argmax(bad[rows[0]]))
                steps = tuple(_steps(prefix, levels, i, rows[:1])[0].tolist())
                k = max(0, n - half) + c
                failures.append((steps, 0, (
                    f"multiplicativity fails for {steps[: k + 1]}+{steps[k:]}: "
                    f"|diff| = {_fmt(abs(lam[r] - expect[r, c]))}"
                )))
        pairs = np.flatnonzero(level.last == (level.root ^ 1)) if n <= max_len else []
        if len(pairs):
            steps = _steps(prefix, levels, i, pairs)
            t_rev, p_rev = _weigh_steps(csr, steps[:, ::-1] ^ 1)
            lam = np.exp(0.5j * level.t[pairs]) * level.p[pairs]
            tol = 1e-12 * np.maximum(1.0, np.abs(lam))
            re, gap = np.abs(lam.real), np.abs(lam + np.exp(0.5j * t_rev) * p_rev)
            rows = np.flatnonzero((re > tol) | (gap > tol))
            if len(rows):
                r = rows[0]
                walk = tuple(steps[r].tolist())
                failures.append((walk, 1, (
                    f"reversal-pair walk {walk}: re = {_fmt(re[r])}, "
                    f"|lam + lam_rev| = {_fmt(gap[r])}"
                )))
    return min(failures)[2] if failures else None


def _first_loop_failure(csr: _Csr, ends: np.ndarray, loops: Picked) -> str | None:
    """The first failure of the loop checks among ``loops``, in lexicographic
    order: loops are real and reversal-symmetric, the reversal weighed from
    ``csr``; self-avoiding loops weigh minus their edge product.
    ``ends`` is the graph's endpoint array."""
    failures = []
    for steps, t, p in loops:
        lam = np.exp(0.5j * t) * p
        t_rev, p_rev = _weigh_steps(csr, steps[:, ::-1] ^ 1)
        tol = 1e-12 * np.maximum(1.0, np.abs(lam))
        im, gap = np.abs(lam.imag), np.abs(lam - np.exp(0.5j * t_rev) * p_rev)
        asymmetric = (im > tol) | (gap > tol)
        avoiding = _self_avoiding(ends, steps[:, :-1])
        miss = np.abs(lam + p)
        rows = np.flatnonzero(asymmetric | (avoiding & (miss > tol)))
        if len(rows):
            r = rows[0]
            loop = tuple(steps[r].tolist())
            if asymmetric[r]:
                message = f"loop {loop}: im = {_fmt(im[r])}, |lam - lam_rev| = {_fmt(gap[r])}"
            else:
                message = f"self-avoiding loop {loop}: |lam + x| = {_fmt(miss[r])}"
            failures.append((loop, message))
    return min(failures)[1] if failures else None


def _check_weight_properties(
    g: EmbeddedGraph, max_len: int, csr: _Csr
) -> tuple[CheckResult, _Loops]:
    """The check, and the rooted loops up to ``max_len`` that its walk pass
    weighs, in lexicographic order.

    The pass enumerates the walks up to max(max_len, 2 * half) once, in
    groups of consecutive subtrees, and decides each comparison once, a level
    of a group at a time; the first failure in lexicographic order is
    reported (the walk checks before the loop checks).  After a failure the
    pass stops checking and keeps collecting, so the other loop checks see
    every loop."""
    half = max(max_len // 2, 1)
    step = np.exp(0.5j * csr.angle) * csr.x[csr.src]
    parts = []
    walk_failure = loop_failure = None
    for group in _groups(csr, range(g.num_directed), max(max_len, 2 * half)):
        picked = _pick(group, _loops_up_to(max_len))
        if walk_failure is None:
            walk_failure = _first_walk_failure(csr, step, half, group, max_len)
        if walk_failure is None and loop_failure is None:
            loop_failure = _first_loop_failure(csr, g._geometry.ends, picked)
        parts.append(_sorted(picked, max_len + 1))
    failure = walk_failure or loop_failure
    detail = failure or f"walk/loop lengths up to {max_len}"
    return CheckResult("weight-properties", failure is None, detail), _join(parts, max_len + 1)


def _check_specific_cancellation(loops: _Loops, visits: np.ndarray) -> CheckResult:
    """Per class (e, length), the loops stepping along both e and e ^ 1 (e = 2k
    and 2k + 1 share them) sum to 0, added in loop order one edge pair at a
    time.  A failure names the first failing class by (first loop, edge)."""
    name = "specific-cancellation"
    both = visits[:, ::2] & visits[:, 1::2]
    shape = (both.shape[1], loops.steps.shape[1])  # (k, length)
    sums, mags, first = np.zeros(shape, complex), np.zeros(shape), np.full(shape, len(both))
    for k, column in enumerate(both.T):
        rows = np.flatnonzero(column)
        lam, length = loops.lam[rows], loops.length[rows]
        np.add.at(sums[k], length, lam)
        np.add.at(mags[k], length, np.hypot(lam.real, lam.imag))
        np.minimum.at(first[k], length, rows)
    size, tol = np.hypot(sums.real, sums.imag), 1e-12 * np.maximum(mags, 1.0)
    failing = [(first[k, n], k, n) for k, n in zip(*np.nonzero(size > tol))]
    if failing:
        _, k, n = min(failing)
        detail = f"edge {2 * k} length {n}: |sum| = {_fmt(size[k, n])} (tol {_fmt(tol[k, n])})"
        return CheckResult(name, False, detail)
    ratio = size / tol
    detail = f"{2 * np.count_nonzero(first < len(both))} (edge, length) classes"
    if (ratio > 0).any():
        detail += f", worst |sum|/tol = {_fmt(ratio[ratio > 0].max())}"
    return CheckResult(name, True, detail)


def _check_generic_cancellation(
    g: EmbeddedGraph, max_len: int, loops: _Loops, visits: np.ndarray
) -> CheckResult:
    name = "generic-cancellation"
    if not check_convergence_radius(g):
        return CheckResult(name, None, "skipped: weights outside the convergence radius")
    worst_gap = 0.0
    worst_edge = -1
    for e, report in enumerate(_generic_scan(g, loops, visits, max_len)):
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


def _check_trace_identity(tm: np.ndarray, max_len: int, loops: _Loops) -> CheckResult:
    name = "trace-identity"
    top = min(8, max_len)
    loop_sums = np.zeros(loops.steps.shape[1], complex)
    np.add.at(loop_sums, loops.length, loops.lam)  # in loop order
    worst = 0.0
    for n, trace in enumerate(_traces(tm, top), 1):
        diff = abs(trace - complex(loop_sums[n]))
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
    dec = decorate(g)
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

    ``g`` is validated first, so an invalid drawing is refused before
    anything else; ``build_transition_matrix`` and ``decorate`` then read its
    verdict, and the decorated graph is validated where it is built.  The
    transition matrix and the oracle's Z are computed once and shared.
    Every walk weight comes from the transition layout's steps and turning
    angles, as the walk enumerator reaches the walk; weight-properties' one
    pass over the walks also collects the weighed rooted loops, one record of
    arrays that the other loop checks read, with one visit matrix.
    A length over ``MAX_LOOP_LEN_CAP`` raises ValueError before any work.
    """
    require_valid_embedding(g)
    _check_len_cap(max_len)
    tm = build_transition_matrix(g).entries
    z = partition_function_oracle(g)
    kw = _check_kw_vs_oracle(tm, z, corrupt_transition)
    weight_properties, found = _check_weight_properties(g, max_len, _csr(g))
    visits = _visits(found, g.num_directed)
    return [
        kw,
        weight_properties,
        _check_specific_cancellation(found, visits),
        _check_generic_cancellation(g, max_len, found, visits),
        _check_trace_identity(tm, max_len, found),
        _check_decoration(g, z),
    ]
