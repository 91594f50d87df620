"""The check suite behind ``kacward verify``: one shared loop enumeration, and a
FAIL with its counterexample from each loop check when one loop weight is off."""

import cmath
import dataclasses
import re

import pytest

from kacward import (
    concat,
    enumerate_rooted_loops,
    enumerate_walks,
    is_self_avoiding,
    loops,
    reverse_walk,
    verify,
    verify_generic_cancellation,
    walk_weight,
)
from kacward.loops import GenericCancellationReport, _contraction
from kacward.verify import CheckResult, _fmt, run_suite
from conftest import (
    REFERENCE_WALK_BUDGET,
    make_bowtie,
    make_path3,
    make_square_cycle,
    make_triangle,
    walk_counts,
)


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


@pytest.mark.parametrize(
    "make, predicate, detail",
    [
        # On the triangle a length-2 walk is never a loop.
        (make_triangle, lambda w: w.length == 2,
         r"multiplicativity fails for \(.*\)\+\(.*\): \|diff\| = "),
        # Length 9 is beyond the walks that multiplicativity weighs (2 * 4);
        # the bowtie has 24 such reversal-pair walks.
        (make_bowtie, lambda w: w.length == 9 and w.last == w.first ^ 1,
         r"reversal-pair walk (\(.*\)): re = .*, \|lam \+ lam_rev\| = "),
    ],
    ids=["multiplicativity", "reversal-pair"],
)
def test_a_skewed_walk_weight_fails_weight_properties(monkeypatch, make, predicate, detail):
    g = make(0.25)
    target = next(w for w in enumerate_walks(g, 9) if predicate(w))
    perturb_loop_weight(monkeypatch, target.steps)
    result = results_by_name(g, 9)["weight-properties"]
    assert result.status == "FAIL"
    match = re.fullmatch(detail + r".*", result.detail)
    assert match, result.detail
    if match.groups():
        # The skewed walk fails its own test or its reversal's.
        named = match.group(1)
        assert named in (str(target.steps), str(reverse_walk(target).steps))


def count_calls(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_suite_weighs_each_walk_once(monkeypatch):
    g = make_bowtie(0.25)
    walks = enumerate_walks(g, 10)
    expected = (
        len(enumerate_walks(g, 5))  # the half-walk table
        + len(walks)  # the pass over walks up to 2 * 5
        + sum(w.last == w.first ^ 1 for w in walks)  # their reversals
        + 2 * len(enumerate_rooted_loops(g, 10))  # each loop and its reversal
    )
    calls = count_calls(monkeypatch, verify, "walk_weight")
    run_suite(g, 10)
    assert len(calls) == expected == 2300


def test_one_walk_pass_and_one_generic_scan_per_suite(monkeypatch):
    passes = count_calls(monkeypatch, verify, "_walks")
    tables = count_calls(monkeypatch, verify, "enumerate_walks")
    scans = count_calls(monkeypatch, verify, "_generic_scan")
    results = run_suite(make_bowtie(0.25), 9)
    assert [r.status for r in results] == ["pass"] * 6
    assert (len(passes), len(tables), len(scans)) == (1, 1, 1)


# Reference checks: the former weight-properties (every composable pair of
# half-length walks joined with ``concat`` and weighed again, then a second
# walk traversal for the reversal pairs) and the former per-edge generic
# scan, kept here to pin the one-pass rewrites.
def reference_weight_properties(g, max_len, weighed):
    name = "weight-properties"
    weigh = verify.walk_weight
    walks = enumerate_walks(g, max(max_len // 2, 1))
    weight_of = {w.steps: weigh(g, w).value for w in walks}
    by_first = {}
    for w in walks:
        by_first.setdefault(w.first, []).append(w)
    for w1 in walks:
        for w2 in by_first.get(w1.last, ()):
            got = weigh(g, concat(w1, w2)).value
            expect = weight_of[w1.steps] * weight_of[w2.steps]
            if abs(got - expect) > 1e-12 * max(1.0, abs(expect)):
                return CheckResult(
                    name,
                    False,
                    f"multiplicativity fails for {w1.steps}+{w2.steps}: "
                    f"|diff| = {_fmt(abs(got - expect))}",
                )
    for w in enumerate_walks(g, max_len):
        if w.last != (w.first ^ 1):
            continue
        lam = weigh(g, w).value
        lam_rev = weigh(g, reverse_walk(w)).value
        tol = 1e-12 * max(1.0, abs(lam))
        if abs(lam.real) > tol or abs(lam + lam_rev) > tol:
            return CheckResult(
                name,
                False,
                f"reversal-pair walk {w.steps}: re = {_fmt(abs(lam.real))}, "
                f"|lam + lam_rev| = {_fmt(abs(lam + lam_rev))}",
            )
    for l, ww in weighed:
        lam_rev = weigh(g, reverse_walk(l)).value
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


def reference_generic_scan(g, weighed, e, max_n):
    rev = e ^ 1
    wsum = 0.0 + 0.0j
    single = 0.0 + 0.0j
    for l, ww in weighed:
        body = l.steps[:-1]
        if rev in body or e not in body:
            continue
        wsum += ww.value / l.length
        if l.first == e and body.count(e) == 1:
            single += ww.value
    lhs = cmath.exp(-wsum)
    rhs = 1.0 - single
    rho, top = _contraction(g)
    c = 2 * g.num_edges * max(1.0, top)
    bound = c * rho ** (max_n + 1) / (1.0 - rho) if rho > 0 else 0.0
    return GenericCancellationReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs), bound=bound)


def weighed_loops(g, max_len):
    return [(l, verify.walk_weight(g, l)) for l in enumerate_rooted_loops(g, max_len)]


def budgeted_cases(corpus):
    """(graph, length) for lengths 1..8 whose walk pass (at least to length 2)
    stays in the budget."""
    named = [make_triangle(0.25), make_square_cycle(0.3), make_path3(0.4), make_bowtie(0.25)]
    for g in named + corpus:
        counts = walk_counts(g, 8)
        for max_len in range(1, 9):
            if counts[max(max_len, 2)] <= REFERENCE_WALK_BUDGET:
                yield g, max_len


def test_weight_properties_match_the_pair_loop_reference(monkeypatch, corpus):
    # Weights depend on the walk alone; both checks read them from one memo.
    memo = {}

    def memo_weight(g, w):
        key = (id(g), w.steps)
        if key not in memo:
            memo[key] = walk_weight(g, w)
        return memo[key]

    monkeypatch.setattr(verify, "walk_weight", memo_weight)
    cases = 0
    for g, max_len in budgeted_cases(corpus):
        weighed = weighed_loops(g, max_len)
        new = verify._check_weight_properties(g, max_len, weighed)
        assert new == reference_weight_properties(g, max_len, weighed)
        cases += 1
    assert cases >= 900


def test_generic_scan_matches_the_per_edge_reference(corpus):
    for g, max_len in budgeted_cases(corpus):
        weighed = weighed_loops(g, max_len)
        reports = loops._generic_scan(g, weighed, max_len)
        assert len(reports) == g.num_directed
        for e, report in enumerate(reports):
            assert report == reference_generic_scan(g, weighed, e, max_len)


@pytest.mark.parametrize("make, max_len", [(make_triangle, 5), (make_bowtie, 5)])
def test_weight_properties_fail_exactly_where_the_reference_does(
    monkeypatch, make, max_len
):
    # Both checks make the same comparisons, so skewing any one walk's weight
    # fails both or neither.
    g = make(0.25)
    weighed = weighed_loops(g, max_len)
    statuses = set()
    for target in enumerate_walks(g, max_len):
        with monkeypatch.context() as m:
            perturb_loop_weight(m, target.steps)
            new = verify._check_weight_properties(g, max_len, weighed)
            assert new.status == reference_weight_properties(g, max_len, weighed).status
            statuses.add(new.status)
    assert statuses == {"pass", "FAIL"}
