"""The check suite behind ``kacward verify``: one shared loop enumeration, and a
FAIL with its counterexample from each loop check when one loop weight is off."""

import dataclasses
import re

import pytest

from kacward import enumerate_rooted_loops, verify, verify_generic_cancellation
from kacward.verify import run_suite
from conftest import make_bowtie, make_triangle


def results_by_name(g, max_len):
    return {r.name: r for r in run_suite(g, max_len)}


def perturb_loop_weight(monkeypatch, steps):
    """Make ``verify.walk_weight`` return 1.01 times the weight of one walk."""
    real = verify.walk_weight

    def skewed(g, w):
        ww = real(g, w)
        if w.steps == steps:
            return dataclasses.replace(ww, value=ww.value * 1.01)
        return ww

    monkeypatch.setattr(verify, "walk_weight", skewed)


def first_loop(g, max_len, predicate):
    return next(l for l in enumerate_rooted_loops(g, max_len) if predicate(l))


def visits_both_ways(l):
    body = set(l.steps[:-1])
    return any(s ^ 1 in body for s in body)


@pytest.mark.parametrize(
    "make, max_len, predicate, check, detail",
    [
        # Length 9 is beyond the composable pairs (4 + 4) that the
        # multiplicativity part covers, so the loop part sees the fault.
        (make_triangle, 9, lambda l: l.length == 9, "weight-properties",
         r"loop \(.*\): im = .*, \|lam - lam_rev\| = "),
        # Loops using both directions of an edge start at length 12 here.
        (make_bowtie, 12, visits_both_ways, "specific-cancellation",
         r"edge \d+ length 12: \|sum\| = .* \(tol .*\)"),
        (make_triangle, 9, lambda l: l.length == 3, "trace-identity",
         r"length 3: \|trace - loop sum\| = "),
    ],
)
def test_a_skewed_loop_weight_fails_the_check(
    monkeypatch, make, max_len, predicate, check, detail
):
    g = make(0.25)
    clean = results_by_name(g, max_len)[check]
    assert clean.passed is True
    target = first_loop(g, max_len, predicate)
    perturb_loop_weight(monkeypatch, target.steps)
    result = results_by_name(g, max_len)[check]
    assert result.status == "FAIL"
    assert re.fullmatch(detail + r".*", result.detail), result.detail
    if check == "weight-properties":
        assert result.detail.startswith(f"loop {target.steps}:")


def test_loops_are_enumerated_once_per_suite(monkeypatch):
    real = verify.enumerate_rooted_loops
    calls = []

    def counting(g, max_len, root=None):
        calls.append((max_len, root))
        return real(g, max_len, root)

    monkeypatch.setattr(verify, "enumerate_rooted_loops", counting)
    results = run_suite(make_bowtie(0.25), 10)
    assert [r.status for r in results] == ["pass"] * 6
    assert calls == [(10, None)]


def test_generic_check_agrees_with_the_public_function():
    g = make_bowtie(weights=[0.1, 0.25, 0.2, 0.3, 0.15, 0.05])
    reports = [verify_generic_cancellation(g, e, 10) for e in range(g.num_directed)]
    worst = max(range(len(reports)), key=lambda e: (reports[e].gap, -e))
    result = results_by_name(g, 10)["generic-cancellation"]
    assert result.passed is True
    assert result.detail == (
        f"worst gap = {reports[worst].gap:.3e} (edge {worst})"
    )
