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
    _step_table,
    _StepTable,
    _table_weight,
    _traces,
    _value,
    _walks,
    _weighed_loops,
    is_self_avoiding,
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


def _check_kw_vs_oracle(g: EmbeddedGraph, corrupt: bool) -> CheckResult:
    tm = build_transition_matrix(g).entries
    if corrupt and tm.size:
        nz = np.nonzero(tm)
        if len(nz[0]):
            tm = tm.copy()
            tm[nz[0][0], nz[1][0]] *= 1.01  # deliberate fault for testing
    det = complex(np.linalg.det(np.eye(tm.shape[0], dtype=complex) - tm))
    z = partition_function_oracle(g)
    diff = abs(det - z * z)
    tol = 1e-9 * max(1.0, z * z)
    return CheckResult(
        "kw-vs-oracle",
        diff <= tol,
        f"|det - Z^2| = {_fmt(diff)} (tol {_fmt(tol)})",
    )


def _check_weight_properties(
    g: EmbeddedGraph, max_len: int, weighed: Weighed, table: _StepTable
) -> CheckResult:
    name = "weight-properties"
    half = max(max_len // 2, 1)
    weight_of = {tuple(seq): _value(t, p) for seq, t, p in _walks(table, half, None)}

    # One pass over the walks.  Each walk of length <= 2 * half is compared, at
    # every split into two parts of length <= half, against the product of the
    # parts' weights (tolerance relative with floor 1, so heavy weights do not
    # trip rounding).  Walks from an edge to its reversal are purely imaginary
    # and reversal-antisymmetric; the reversal is weighed from the step table.
    for seq, t, p in _walks(table, max(max_len, 2 * half), None):
        n = len(seq) - 1
        pair = n <= max_len and seq[-1] == (seq[0] ^ 1)
        if n > 2 * half and not pair:
            continue
        steps = tuple(seq)
        lam = _value(t, p)
        for k in range(max(0, n - half), min(n, half) + 1):
            head, tail = steps[: k + 1], steps[k:]
            expect = weight_of[head] * weight_of[tail]
            if abs(lam - expect) > 1e-12 * max(1.0, abs(expect)):
                return CheckResult(
                    name,
                    False,
                    f"multiplicativity fails for {head}+{tail}: "
                    f"|diff| = {_fmt(abs(lam - expect))}",
                )
        if not pair:
            continue
        lam_rev = _value(*_table_weight(table, _reverse_steps(steps)))
        tol = 1e-12 * max(1.0, abs(lam))
        if abs(lam.real) > tol or abs(lam + lam_rev) > tol:
            return CheckResult(
                name,
                False,
                f"reversal-pair walk {steps}: re = {_fmt(abs(lam.real))}, "
                f"|lam + lam_rev| = {_fmt(abs(lam + lam_rev))}",
            )

    # Loops are real and reversal-symmetric; self-avoiding loops weigh
    # minus their edge product.  A loop's reversal is itself a weighed loop.
    loop_weight = {l.steps: ww.value for l, ww in weighed}
    for l, ww in weighed:
        lam_rev = loop_weight[_reverse_steps(l.steps)]
        tol = 1e-12 * max(1.0, abs(ww.value))
        if abs(ww.value.imag) > tol or abs(ww.value - lam_rev) > tol:
            return CheckResult(
                name,
                False,
                f"loop {l.steps}: im = {_fmt(abs(ww.value.imag))}, "
                f"|lam - lam_rev| = {_fmt(abs(ww.value - lam_rev))}",
            )
        if is_self_avoiding(g, l) and abs(ww.value + ww.edge_product) > tol:
            return CheckResult(
                name,
                False,
                f"self-avoiding loop {l.steps}: "
                f"|lam + x| = {_fmt(abs(ww.value + ww.edge_product))}",
            )
    return CheckResult(name, True, f"walk/loop lengths up to {max_len}")


def _check_specific_cancellation(weighed: Weighed) -> CheckResult:
    name = "specific-cancellation"
    sums: dict[tuple[int, int], complex] = {}
    mags: dict[tuple[int, int], float] = {}
    for l, ww in weighed:
        body = set(l.steps[:-1])
        lam = ww.value
        for k in {s >> 1 for s in body}:
            if 2 * k in body and 2 * k + 1 in body:
                for e in (2 * k, 2 * k + 1):
                    key = (e, l.length)
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


def _check_trace_identity(g: EmbeddedGraph, max_len: int, weighed: Weighed) -> CheckResult:
    name = "trace-identity"
    top = min(8, max_len)
    loop_sums = {n: 0.0 + 0.0j for n in range(1, top + 1)}
    for l, ww in weighed:
        if l.length <= top:
            loop_sums[l.length] += ww.value
    worst = 0.0
    for n, trace in enumerate(_traces(g, top), 1):
        diff = abs(trace - loop_sums[n])
        worst = max(worst, diff)
        if diff > 1e-11 * max(1.0, abs(trace)):
            return CheckResult(
                name,
                False,
                f"length {n}: |trace - loop sum| = {_fmt(diff)}",
            )
    return CheckResult(name, True, f"lengths 1..{top}, worst diff = {_fmt(worst)}")


def _check_decoration(g: EmbeddedGraph) -> CheckResult:
    name = "decoration"
    if max_degree(g) <= 3:
        return CheckResult(name, None, "skipped: graph already trivalent")
    dec = decorate(g)
    if max_degree(dec.decorated) > 3:
        return CheckResult(name, False, "decorated graph is not trivalent")
    z0 = partition_function_oracle(g)
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

    Every walk weight comes from one step table, as the walk generator reaches
    the walk; the loop checks share one weighed enumeration of the rooted loops.
    A length over ``MAX_LOOP_LEN_CAP`` raises ValueError before any work.
    """
    _check_len_cap(max_len)
    kw = _check_kw_vs_oracle(g, corrupt_transition)
    table = _step_table(g, weigh=True)
    weighed = _weighed_loops(_walks(table, max_len, None))
    return [
        kw,
        _check_weight_properties(g, max_len, weighed, table),
        _check_specific_cancellation(weighed),
        _check_generic_cancellation(g, max_len, weighed),
        _check_trace_identity(g, max_len, weighed),
        _check_decoration(g),
    ]
