"""Machine checks of the identities behind the determinant method, desk scale.

Each check returns a pass/fail verdict plus a short deterministic detail
string; the first counterexample (edge, length, values) is reported on
failure.  The CLI turns these into a table and a nonzero exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoration import decorate
from .graph import EmbeddedGraph, max_degree
from .loops import (
    Weighed,
    _check_len_cap,
    _generic_scan,
    _reverse_steps,
    _self_avoiding,
    _step_table,
    _StepTable,
    _table_weight,
    _traces,
    _value,
    _walks,
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


def _check_weight_properties(
    g: EmbeddedGraph, max_len: int, table: _StepTable
) -> tuple[CheckResult, Weighed]:
    """The check, and the rooted loops up to ``max_len`` that its walk pass
    weighs, in enumeration order.  After the first failure the pass stops
    comparing and keeps collecting, so the other loop checks see every loop."""
    half = max(max_len // 2, 1)
    weight_of = {tuple(seq): _value(t, p) for seq, t, p in _walks(table, half, None)}
    loops: Weighed = {}
    failure = None

    # One pass over the walks.  Each walk of length <= 2 * half is compared, at
    # every split into two parts of length <= half, against the product of the
    # parts' weights (tolerance relative with floor 1, so heavy weights do not
    # trip rounding).  Walks from an edge to its reversal are purely imaginary
    # and reversal-antisymmetric; the reversal is weighed from the step table.
    for seq, t, p in _walks(table, max(max_len, 2 * half), None):
        n = len(seq) - 1
        pair = n <= max_len and seq[-1] == (seq[0] ^ 1)
        loop = 1 < n <= max_len and seq[-1] == seq[0]
        if n > 2 * half and not (pair or loop):
            continue
        steps = tuple(seq)
        lam = _value(t, p)
        if loop:
            loops[steps] = lam, p
        if failure is not None:
            continue
        for k in range(max(0, n - half), min(n, half) + 1):
            head, tail = steps[: k + 1], steps[k:]
            expect = weight_of[head] * weight_of[tail]
            if abs(lam - expect) > 1e-12 * max(1.0, abs(expect)):
                failure = (
                    f"multiplicativity fails for {head}+{tail}: "
                    f"|diff| = {_fmt(abs(lam - expect))}"
                )
                break
        if pair and failure is None:
            lam_rev = _value(*_table_weight(table, _reverse_steps(steps)))
            tol = 1e-12 * max(1.0, abs(lam))
            if abs(lam.real) > tol or abs(lam + lam_rev) > tol:
                failure = (
                    f"reversal-pair walk {steps}: re = {_fmt(abs(lam.real))}, "
                    f"|lam + lam_rev| = {_fmt(abs(lam + lam_rev))}"
                )

    # Loops are real and reversal-symmetric; self-avoiding loops weigh
    # minus their edge product.  A loop's reversal is itself a weighed loop.
    for steps, (lam, x) in loops.items():
        if failure is not None:
            break
        lam_rev = loops[_reverse_steps(steps)][0]
        tol = 1e-12 * max(1.0, abs(lam))
        if abs(lam.imag) > tol or abs(lam - lam_rev) > tol:
            failure = (
                f"loop {steps}: im = {_fmt(abs(lam.imag))}, "
                f"|lam - lam_rev| = {_fmt(abs(lam - lam_rev))}"
            )
        elif _self_avoiding(g, steps) and abs(lam + x) > tol:
            failure = f"self-avoiding loop {steps}: |lam + x| = {_fmt(abs(lam + x))}"
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

    The transition matrix and the oracle's Z are computed once and shared.
    Every walk weight comes from one step table, as the walk generator reaches
    the walk; weight-properties' one pass over the walks also collects the
    weighed rooted loops that the other loop checks read.
    A length over ``MAX_LOOP_LEN_CAP`` raises ValueError before any work.
    """
    _check_len_cap(max_len)
    tm = build_transition_matrix(g).entries
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
