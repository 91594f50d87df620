"""The check suite behind ``kacward verify``: the transition layout's steps, one
walk pass that also collects the weighed loops the other checks share, and a
FAIL with its counterexample from each loop check when one loop weight is off."""

import cmath
import dataclasses
import re

import numpy as np
import pytest

from kacward import (
    EmbeddedGraph,
    concat,
    enumerate_rooted_loops,
    enumerate_walks,
    gen_square,
    is_self_avoiding,
    loops,
    reverse_walk,
    verify,
    verify_generic_cancellation,
    walk_weight,
)
from kacward.loops import MAX_LOOP_LEN_CAP, GenericCancellationReport, _contraction
from kacward.transition import check_convergence_radius
from kacward.verify import CheckResult, _fmt, run_suite
from conftest import (
    REFERENCE_WALK_BUDGET,
    make_bowtie,
    make_path3,
    make_square_cycle,
    make_square_with_diagonal,
    make_triangle,
    make_wheel,
    walk_counts,
)


def results_by_name(g, max_len):
    return {r.name: r for r in run_suite(g, max_len)}


def perturb_loop_weight(monkeypatch, *targets, factor=1.01):
    """Make the walk enumerator that ``verify`` weighs with give ``factor`` times
    the weight of each target walk (its edge product scaled).  The scaling
    comes after the enumeration, so no extension of a target inherits it."""
    real = loops._levels

    def skewed(csr, prefix, depth):
        levels = real(csr, prefix, depth)
        for steps in targets:
            n = len(steps) - prefix.shape[1]
            if 0 <= n < len(levels):
                rows = loops._steps(prefix, levels, n, np.arange(len(levels[n].last)))
                levels[n].p[np.all(rows == steps, axis=1)] *= factor
        return levels

    monkeypatch.setattr(loops, "_levels", skewed)


def skewed_walk_weight(steps):
    """``walk_weight`` with 1.01 times the weight of one walk, for the references."""

    def skewed(g, w):
        ww = walk_weight(g, w)
        if w.steps == steps:
            return dataclasses.replace(ww, value=ww.value * 1.01)
        return ww

    return skewed


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


def test_the_first_failing_specific_class_by_first_loop_and_edge_is_named(monkeypatch):
    # A bowtie loop of length 12 that goes round each triangle both ways
    # visits every edge both ways, so skewing it fails all six classes
    # (edge, 12).  The class named is the one whose first loop comes first,
    # ties going to the smaller edge: here not the smallest edge.
    g = make_bowtie(0.25)
    found = [l for l in enumerate_rooted_loops(g, 12) if l.length == 12]

    def both_ways(l):
        body = set(l.steps[:-1])
        return sorted({s >> 1 for s in body if s ^ 1 in body})

    first = {}
    for i, l in enumerate(found):
        for k in both_ways(l):
            first.setdefault(k, i)
    target = next(l for l in found if len(both_ways(l)) == 6)
    named = min(both_ways(target), key=lambda k: (first[k], k))
    assert named != 0
    perturb_loop_weight(monkeypatch, target.steps)
    result = results_by_name(g, 12)["specific-cancellation"]
    assert result.status == "FAIL"
    assert result.detail.startswith(f"edge {2 * named} length 12:")


def test_loops_are_enumerated_once_per_suite(monkeypatch):
    # Weight-properties' walk pass collects the weighed loops; it runs once.
    real = verify._check_weight_properties
    calls = []

    def counting(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(verify, "_check_weight_properties", counting)
    g = make_bowtie(0.25)
    results = run_suite(g, 10)
    assert [r.status for r in results] == ["pass"] * 6
    assert len(calls) == 1
    assert [steps for steps, _ in listed(calls[0][1])] == [
        l.steps for l in enumerate_rooted_loops(g, 10)
    ]


def test_every_loop_reaches_the_other_checks_after_an_early_failure(monkeypatch):
    # A skewed walk of length 2 fails multiplicativity near the start of the
    # pass, before any loop; the pass still collects every loop after it.
    # Its first split is the empty head and the whole walk as the tail, whose
    # weight is the product of the step weights, which the skew leaves alone.
    g = make_triangle(0.25)
    target = next(w for w in enumerate_walks(g, 9) if w.length == 2)
    perturb_loop_weight(monkeypatch, target.steps)
    names = ("_check_specific_cancellation", "_check_generic_cancellation", "_check_trace_identity")
    seen = [count_calls(monkeypatch, verify, name) for name in names]
    results = run_suite(g, 9)
    assert [r.status for r in results] == ["pass", "FAIL", "pass", "pass", "pass", "skip"]
    assert results[1].detail.startswith(
        f"multiplicativity fails for {target.steps[:1]}+{target.steps}:"
    )
    expected = [(l.steps, walk_weight(g, l).value) for l in enumerate_rooted_loops(g, 9)]
    for calls in seen:
        (args,) = calls
        (found,) = [arg for arg in args if isinstance(arg, loops._Loops)]
        assert listed(found) == expected


def test_suite_builds_the_transition_matrix_and_the_oracle_once(monkeypatch):
    # kw-vs-oracle and trace-identity share one T, and kw-vs-oracle corrupts
    # its own I - T; kw-vs-oracle and decoration share the oracle's Z of g.
    # T and the decoration come through the public entry points.
    g = make_bowtie(0.25)
    builds = count_calls(monkeypatch, verify, "build_transition_matrix")
    decorations = count_calls(monkeypatch, verify, "decorate")
    oracles = count_calls(monkeypatch, verify, "partition_function_oracle")
    results = run_suite(g, 6, corrupt_transition=True)
    assert [r.status for r in results] == ["FAIL"] + ["pass"] * 5
    assert [args[0] is g for args in builds] == [True]
    assert [args[0] is g for args in decorations] == [True]
    assert [args[0] is g for args in oracles] == [True, False]  # g, then its decoration


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
    # Weights come from the walk enumerator as it reaches each walk, and the
    # reversals of the reversal-pair walks and of the loops from the same
    # steps; no walk is weighed by ``walk_weight``.  The one pass that
    # compares the walks also collects the loops.
    g = make_bowtie(0.25)
    walks = enumerate_walks(g, 10)
    real = loops._levels
    drawn = []

    def counting(*args):
        levels = real(*args)
        drawn.extend(len(level.last) for level in levels)
        return levels

    monkeypatch.setattr(loops, "_levels", counting)
    weighs = count_calls(monkeypatch, loops, "walk_weight")
    # walk_weight validates every walk it weighs, however it is reached.
    validations = count_calls(monkeypatch, loops, "_check_in_graph")
    reversals = count_calls(monkeypatch, verify, "_weigh_steps")
    run_suite(g, 10)
    assert (len(weighs), len(validations)) == (0, 0)
    assert sum(drawn) == len(walks) == 1644
    pairs = sum(w.last == w.first ^ 1 for w in walks)
    reversed_walks = sum(len(args[1]) for args in reversals)
    assert reversed_walks == pairs + len(enumerate_rooted_loops(g, 10))
    assert pairs == 152


def test_one_walk_pass_and_one_generic_scan_per_suite(monkeypatch):
    # One weighed pass, the walks up to 9 from every edge, enumerates every
    # walk that the checks read; it also collects the loops.
    assert not hasattr(verify, "_levels")
    levels = count_calls(monkeypatch, loops, "_levels")
    passes = count_calls(monkeypatch, verify, "_groups")
    csrs = count_calls(monkeypatch, verify, "_csr")
    scans = count_calls(monkeypatch, verify, "_generic_scan")
    results = run_suite(make_bowtie(0.25), 9)
    assert [r.status for r in results] == ["pass"] * 6
    assert [(list(args[1]), args[2]) for args in passes] == [(list(range(12)), 9)]
    assert [(args[1].tolist(), args[2]) for args in levels] == [([[d] for d in range(12)], 9)]
    assert levels[0][0] is passes[0][0]
    assert (len(csrs), len(scans)) == (1, 1)


# Reference checks: the former weight-properties (every composable pair of
# half-length walks joined with ``concat`` and weighed again, then a second
# walk traversal for the reversal pairs) and the former per-edge generic
# scan, kept here to pin the one-pass rewrites.
def reference_weight_properties(g, max_len, weighed, weigh=walk_weight):
    name = "weight-properties"
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


def weighed_loops(g, max_len, weigh=walk_weight):
    return [(l, weigh(g, l)) for l in enumerate_rooted_loops(g, max_len)]


def as_listed(weighed):
    """The references' (Loop, WalkWeight) list as ``listed`` lists a record."""
    return [(l.steps, ww.value) for l, ww in weighed]


def as_record(weighed, max_len):
    """The references' (Loop, WalkWeight) list as the check suite's record."""
    steps = np.full((len(weighed), max_len + 1), -1, dtype=np.intp)
    for row, (l, _) in zip(steps, weighed):
        row[: len(l.steps)] = l.steps
    length = np.array([l.length for l, _ in weighed], dtype=np.intp)
    return loops._Loops(steps, length, np.array([ww.value for _, ww in weighed], dtype=complex))


def listed(found):
    """(steps, weight) of each loop of a ``loops._Loops`` record, in its order;
    its rows must be padded with -1 past their lengths."""
    assert ((found.steps >= 0).sum(axis=1) == found.length + 1).all()
    rows = zip(found.steps.tolist(), found.length.tolist(), found.lam.tolist())
    return [(tuple(row[: n + 1]), lam) for row, n, lam in rows]


def step_csr(g):
    return loops._csr(g)


def budgeted_cases(corpus):
    """(graph, length) for lengths 1..8 whose walk pass (at least to length 2)
    stays in the budget."""
    named = [make_triangle(0.25), make_square_cycle(0.3), make_path3(0.4), make_bowtie(0.25)]
    for g in named + corpus:
        counts = walk_counts(g, 8)
        for max_len in range(1, 9):
            if counts[max(max_len, 2)] <= REFERENCE_WALK_BUDGET:
                yield g, max_len


def test_weight_properties_match_the_pair_loop_reference(corpus):
    # Weights depend on the walk alone; the reference reads them from a memo.
    memo = {}

    def memo_weight(g, w):
        key = (id(g), w.steps)
        if key not in memo:
            memo[key] = walk_weight(g, w)
        return memo[key]

    cases = 0
    for g, max_len in budgeted_cases(corpus):
        weighed = weighed_loops(g, max_len, memo_weight)
        new, collected = verify._check_weight_properties(g, max_len, step_csr(g))
        assert new == reference_weight_properties(g, max_len, weighed, memo_weight)
        assert listed(collected) == as_listed(weighed)
        cases += 1
    assert cases >= 900


def test_generic_scan_matches_the_per_edge_reference(corpus):
    for g, max_len in budgeted_cases(corpus):
        weighed = weighed_loops(g, max_len)
        found = as_record(weighed, max_len)
        reports = loops._generic_scan(g, found, loops._visits(found, g.num_directed), max_len)
        assert len(reports) == g.num_directed
        for e, report in enumerate(reports):
            assert report == reference_generic_scan(g, weighed, e, max_len)


def reference_specific_cancellation(weighed):
    """The former per-loop specific-cancellation check, naming the first
    failing class by (first loop, edge)."""
    sums, mags, first = {}, {}, {}
    for i, (l, ww) in enumerate(weighed):
        body = set(l.steps[:-1])
        for k in sorted({s >> 1 for s in body if s ^ 1 in body}):
            key = (2 * k, l.length)
            sums[key] = sums.get(key, 0.0) + ww.value
            mags[key] = mags.get(key, 0.0) + abs(ww.value)
            first.setdefault(key, i)
    failing, worst = [], 0.0
    for key, total in sums.items():
        tol = 1e-12 * max(mags[key], 1.0)
        worst = max(worst, abs(total) / tol)
        if abs(total) > tol:
            detail = f"edge {key[0]} length {key[1]}: |sum| = {_fmt(abs(total))} (tol {_fmt(tol)})"
            failing.append((first[key], key, detail))
    if failing:
        return CheckResult("specific-cancellation", False, min(failing)[2])
    detail = f"{2 * len(sums)} (edge, length) classes"
    if worst > 0:
        detail += f", worst |sum|/tol = {_fmt(worst)}"
    return CheckResult("specific-cancellation", True, detail)


def test_specific_cancellation_matches_the_per_loop_reference(corpus):
    # Unskewed on the corpus and on graphs whose loops visit edges both
    # ways, then with each such loop of the bowtie and the 3-wheel skewed.
    def check(g, weighed, max_len):
        found = as_record(weighed, max_len)
        return verify._check_specific_cancellation(found, loops._visits(found, g.num_directed))

    bowtie, wheel = (make_bowtie(0.25), 12), (make_wheel(3, 0.15), 9)
    classes = 0
    for g, max_len in [*budgeted_cases(corpus), bowtie, wheel, (make_wheel(4, 0.15), 8)]:
        weighed = weighed_loops(g, max_len)
        result = check(g, weighed, max_len)
        assert result == reference_specific_cancellation(weighed)
        classes += int(result.detail.split()[0])
    assert classes >= 40
    for g, max_len in (bowtie, wheel):
        weighed = weighed_loops(g, max_len)
        named = set()
        for i, (l, ww) in enumerate(weighed):
            if visits_both_ways(l):
                skewed = list(weighed)
                skewed[i] = (l, dataclasses.replace(ww, value=ww.value * 1.01))
                result = check(g, skewed, max_len)
                assert result == reference_specific_cancellation(skewed)
                named.add(result.detail.split(":")[0])
        assert len(named) > 1


def test_suite_refuses_a_length_over_the_cap(monkeypatch):
    def unreachable(*args):
        raise AssertionError("work started before the length cap was checked")

    monkeypatch.setattr(verify, "_check_kw_vs_oracle", unreachable)
    monkeypatch.setattr(verify, "_csr", unreachable)
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_LOOP_LEN_CAP}"):
        run_suite(make_triangle(0.25), MAX_LOOP_LEN_CAP + 1)


def test_suite_refuses_a_cycle_space_over_the_cap_before_building_t(monkeypatch):
    # The dense T of the 64 x 64 square would take 4.4 GB; the oracle's
    # refusal comes first.
    def unreachable(*args):
        raise AssertionError("the transition matrix was built")

    monkeypatch.setattr(verify, "build_transition_matrix", unreachable)
    with pytest.raises(ValueError) as info:
        run_suite(gen_square(64, 64, 0.5), 4)
    assert str(info.value) == "cycle space too large: dimension 4096 exceeds cap 30"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the suite silences its overflow
def test_a_comparison_that_is_not_finite_fails():
    # At weights 1e200, det(I - T) and Z^2 overflow to inf and the walk and
    # loop weights to inf or nan: an inf within an inf tolerance fails, and
    # so does a nan.
    results = {r.name: r for r in run_suite(make_square_with_diagonal(1e200), 6)}
    assert results["kw-vs-oracle"].status == "FAIL"
    assert results["kw-vs-oracle"].detail == "|det - Z^2| = inf (tol inf)"
    assert results["weight-properties"].status == "FAIL"
    assert results["weight-properties"].detail.endswith("|diff| = inf")
    assert results["trace-identity"].status == "FAIL"
    assert results["trace-identity"].detail.endswith("|trace - loop sum| = nan")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan in T, as kw-vs-oracle meets it
def test_a_nan_turning_angle_fails_weight_properties(monkeypatch):
    from kacward import transition

    real = transition._turning_angles

    def with_a_nan(*args):
        angle = real(*args)
        angle[0] = np.nan
        return angle

    monkeypatch.setattr(transition, "_turning_angles", with_a_nan)
    result = results_by_name(make_bowtie(0.25), 6)["weight-properties"]
    assert result.status == "FAIL"
    assert result.detail.endswith("= nan"), result.detail


def test_a_self_avoiding_loop_that_does_not_weigh_minus_its_product_fails():
    # With every turning angle 0 each loop weighs its edge product: real and
    # equal to its reversal's, so only the self-avoiding test sees it.
    g = make_triangle(0.5)
    csr = loops._csr(g)
    flat = csr._replace(angle=np.zeros_like(csr.angle))
    result, _ = verify._check_weight_properties(g, 3, flat)
    assert result.status == "FAIL"
    assert result.detail == "self-avoiding loop (0, 2, 4, 0): |lam + x| = 2.500e-01"


def dumbbell_with_pendant(pendant_length):
    # Two triangles joined by a bridge, and one edge hanging off a corner.
    return EmbeddedGraph(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (3.0, 0.0), (4.0, 0.0), (3.0, 1.0),
         (0.0, 1.0 + pendant_length)],
        [(0, 1, 0.3), (1, 2, 0.3), (2, 0, 0.3), (3, 4, 0.3), (4, 5, 0.3),
         (5, 3, 0.3), (1, 3, 0.3), (2, 6, 0.3)],
    )


def test_only_dead_end_edges_are_off_the_loops():
    # The bridge lies on loops that go round both triangles; the pendant edge
    # lies on none.
    g = dumbbell_with_pendant(1.0)
    assert loops._on_loops(g) == [True] * 14 + [False, False]
    assert loops._on_loops(make_path3()) == [False] * 4
    assert loops._on_loops(make_triangle()) == [True] * 6


def on_loops_reference(g):
    """``loops._on_loops`` one directed edge at a time: an edge whose every
    continuation is dead is dead, peeled from the leaves inwards; d is on a
    loop when neither d nor d ^ 1 is dead."""
    live = [len(g.out_edges(g.head(d))) - 1 for d in range(g.num_directed)]
    goes_on = [True] * g.num_directed
    dead = [d for d, n in enumerate(live) if n == 0]
    while dead:
        f = dead.pop()
        goes_on[f] = False
        for e in g.out_edges(g.tail(f)):
            if e != f:  # e ^ 1 enters the tail of f and may continue along f
                live[e ^ 1] -= 1
                if live[e ^ 1] == 0:
                    dead.append(e ^ 1)
    return [goes_on[d] and goes_on[d ^ 1] for d in range(g.num_directed)]


def trees_hung_on_cycles(rng):
    """One or two cycles, a path joining the first to the last or not, random
    trees hung on them and a free tree.  Only the combinatorics matter, so
    the points are random and the drawing need not be valid."""
    edges, n = [], 0
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(3, 7))
        edges += [(n + i, n + (i + 1) % k) for i in range(k)]
        n += k
    if rng.random() < 0.5:
        edges += [(0, n), (n, n - 1)]
        n += 1
    for _ in range(int(rng.integers(0, 12))):
        edges.append((int(rng.integers(n)), n))
        n += 1
    root = n
    for _ in range(int(rng.integers(0, 4))):
        edges.append((int(rng.integers(root, n + 1)), n + 1))
        n += 1
    return EmbeddedGraph(rng.uniform(0, 1, (n + 1, 2)), [(u, v, 0.1) for u, v in edges])


def test_on_loops_is_the_per_edge_leaf_peel(corpus):
    rng = np.random.default_rng(7)
    graphs = corpus + [trees_hung_on_cycles(rng) for _ in range(200)]
    graphs += [dumbbell_with_pendant(1.0), make_path3(), EmbeddedGraph([], [])]
    hung = 0
    for g in graphs:
        on = loops._on_loops(g)
        assert on == on_loops_reference(g)
        hung += 0 < on.count(False) < g.num_directed
    assert hung > 150


def test_on_loops_peels_a_long_path_hung_on_a_triangle():
    # 3,000 rounds of the leaf peel, one edge each: only the triangle is on
    # loops.
    n = 3000
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)] + [(1.0 + k, 0.0) for k in range(1, n + 1)]
    edges = [(0, 1, 0.3), (1, 2, 0.3), (2, 0, 0.3)]
    edges += [(1 if k == 0 else 2 + k, 3 + k, 0.3) for k in range(n)]
    g = EmbeddedGraph(vertices, edges)
    on = loops._on_loops(g)
    assert on == [True] * 6 + [False] * (2 * n)
    assert on == on_loops_reference(g)


@pytest.mark.parametrize("pendant_length", [1.0, 0.0])
def test_public_generic_cancellation_matches_the_per_edge_reference(pendant_length):
    # No loop uses the pendant edge, so no turning angle onto it is needed,
    # even where it has length zero and no angle is defined.
    g = dumbbell_with_pendant(pendant_length)
    weighed = weighed_loops(g, 9)
    for e in range(g.num_directed):
        assert verify_generic_cancellation(g, e, 9) == reference_generic_scan(g, weighed, e, 9)


@pytest.mark.parametrize("collapsed", [(0, 1), (1, 3)])
def test_public_generic_cancellation_refuses_a_zero_length_edge_on_a_loop(collapsed):
    # An unvalidated drawing: edge (u, v), of a triangle or the bridge, has
    # length zero.  It lies on loops, whose weights need its turning angles,
    # and it has none.
    g = dumbbell_with_pendant(1.0)
    xy = [(p.x, p.y) for p in g.vertices]
    u, v = collapsed
    xy[v] = xy[u]
    g = EmbeddedGraph(xy, g.edges)
    for e in (0, g.num_directed - 1):
        with pytest.raises(ValueError, match="zero-length edge"):
            verify_generic_cancellation(g, e, 6)


def test_public_generic_cancellation_matches_the_reference_on_the_corpus(corpus):
    cases = 0
    for g, max_len in budgeted_cases(corpus):
        if not check_convergence_radius(g):
            continue
        weighed = weighed_loops(g, max_len)
        for e in (0, g.num_directed - 1):
            assert verify_generic_cancellation(g, e, max_len) == (
                reference_generic_scan(g, weighed, e, max_len)
            )
        cases += 1
    assert cases >= 100


@pytest.mark.parametrize("make, max_len", [(make_triangle, 5), (make_bowtie, 5)])
def test_weight_properties_fail_exactly_where_the_reference_does(
    monkeypatch, make, max_len
):
    # Both checks make the same comparisons, so skewing any one walk's weight
    # (in the walk enumerator for the check, in ``walk_weight`` for the
    # reference, which also reads it in the loop list) fails both or neither.
    g = make(0.25)
    csr = step_csr(g)
    statuses = set()
    for target in enumerate_walks(g, max_len):
        weigh = skewed_walk_weight(target.steps)
        weighed = weighed_loops(g, max_len, weigh)
        with monkeypatch.context() as m:
            perturb_loop_weight(m, target.steps)
            new, _ = verify._check_weight_properties(g, max_len, csr)
        assert new.status == reference_weight_properties(g, max_len, weighed, weigh).status
        statuses.add(new.status)
    assert statuses == {"pass", "FAIL"}


# Grouping: the walk pass enumerates consecutive subtrees in groups of at most
# ``loops._GROUP_CAP`` walks; the split must not change any answer.
def count_groups(monkeypatch):
    """The walk count of each group that the walk pass of ``verify`` draws."""
    real = verify._groups
    sizes = []

    def counting(*args):
        for group in real(*args):
            sizes.append(sum(len(level.last) for level in group[1]))
            yield group

    monkeypatch.setattr(verify, "_groups", counting)
    return sizes


def pass_depth(max_len):
    return max(max_len, 2 * max(max_len // 2, 1))


def small_cases(corpus):
    """(graph, L) on the named graphs and the corpus: the longest L <= 8 whose
    walk pass draws at most a quarter of the reference budget, else L = 1
    within the budget."""
    named = [make_triangle(0.25), make_square_cycle(0.3), make_path3(0.4), make_bowtie(0.25)]
    for g in named + corpus:
        counts = walk_counts(g, 8)
        fits = [n for n in range(1, 9) if counts[pass_depth(n)] <= REFERENCE_WALK_BUDGET // 4]
        if fits or counts[pass_depth(1)] <= REFERENCE_WALK_BUDGET:
            yield g, (fits or [1])[-1]


@pytest.mark.parametrize("cap", [1, 10])
def test_groups_of_any_size_give_the_same_check_and_loops(monkeypatch, corpus, cap):
    # With a cap of 1 every root and every prefix is a group of its own; with
    # 10, consecutive subtrees share a group and larger ones are split.
    cases = 0
    for g, max_len in small_cases(corpus):
        csr = step_csr(g)
        walks = walk_counts(g, pass_depth(max_len))[pass_depth(max_len)]
        with monkeypatch.context() as m:
            sizes = count_groups(m)
            one = verify._check_weight_properties(g, max_len, csr)
        assert sizes == [walks]
        with monkeypatch.context() as m:
            m.setattr(loops, "_GROUP_CAP", cap)
            sizes = count_groups(m)
            split = verify._check_weight_properties(g, max_len, csr)
            enumerated = enumerate_walks(g, max_len)
            weighed = loops._weighed_loops(csr, max_len)
        assert split[0] == one[0]
        assert listed(split[1]) == listed(one[1])
        assert sum(sizes) == walks and max(sizes) <= cap
        assert enumerated == enumerate_walks(g, max_len)
        assert listed(weighed) == listed(one[1])
        cases += 1
    assert cases >= 200


@pytest.mark.parametrize("make, every", [(make_triangle, 1), (make_bowtie, 23)])
def test_a_skewed_walk_fails_alike_in_groups_of_one(monkeypatch, make, every):
    # Every walk up to 4 is compared at its splits; of length 5, only the
    # reversal pairs and the loops are checked.
    g = make(0.25)
    max_len = 5
    csr = step_csr(g)
    statuses = set()
    for target in enumerate_walks(g, max_len)[::every]:
        with monkeypatch.context() as m:
            perturb_loop_weight(m, target.steps)
            one = verify._check_weight_properties(g, max_len, csr)
            m.setattr(loops, "_GROUP_CAP", 1)
            split = verify._check_weight_properties(g, max_len, csr)
        assert split[0] == one[0]
        assert listed(split[1]) == listed(one[1])
        statuses.add(one[0].status)
    assert statuses == {"pass", "FAIL"}


def group_of_each_walk(monkeypatch, max_len):
    """steps -> index of the group of the walk pass of ``verify`` that holds
    it, for the walks of length ``max_len``."""
    real = verify._groups
    where = {}

    def recording(*args):
        for index, (prefix, levels) in enumerate(real(*args)):
            n = max_len - (prefix.shape[1] - 1)
            if 0 <= n < len(levels):
                rows = np.arange(len(levels[n].last))
                for steps in loops._steps(prefix, levels, n, rows).tolist():
                    where[tuple(steps)] = index
            yield prefix, levels

    monkeypatch.setattr(verify, "_groups", recording)
    return where


@pytest.mark.parametrize(
    "predicate, message",
    [
        (lambda w: w.last == w.first ^ 1, "reversal-pair walk"),
        (lambda w: w.last == w.first, "loop"),
    ],
    ids=["reversal-pair", "loop"],
)
@pytest.mark.parametrize("cap", [None, 1, 64])
def test_the_lexicographically_first_of_two_failures_is_reported(
    monkeypatch, predicate, message, cap
):
    # Walks of length 9 are beyond the multiplicativity splits (4 + 4), so a
    # skewed one fails its own check only.  The first and the last such walk
    # share the one group of the default cap and lie in different groups of
    # the small ones.
    g = make_bowtie(0.25)
    targets = [w.steps for w in enumerate_walks(g, 9) if w.length == 9 and predicate(w)]
    first, last = targets[0], targets[-1]
    if cap is not None:
        monkeypatch.setattr(loops, "_GROUP_CAP", cap)
    with monkeypatch.context() as m:
        perturb_loop_weight(m, last)
        alone = verify._check_weight_properties(g, 9, step_csr(g))[0]
    assert alone.detail.startswith(f"{message} {last}:")
    where = group_of_each_walk(monkeypatch, 9)
    perturb_loop_weight(monkeypatch, first, last)
    both = verify._check_weight_properties(g, 9, step_csr(g))[0]
    assert both.status == "FAIL"
    assert both.detail.startswith(f"{message} {first}:")
    assert (where[first] == where[last]) == (cap is None)


def test_a_longer_walk_that_sorts_first_is_reported_first(monkeypatch):
    # The pass checks a group one length at a time, but reports the
    # lexicographically first failing walk, here the longer of two.
    g = make_bowtie(0.25)
    walks = enumerate_walks(g, 3)

    def lengths(d, n):
        return [w.steps for w in walks if w.first == d and w.length == n]

    # From an edge into the centre, the first walk of length 3 sorts before
    # the last of length 2.
    d = next(d for d in range(g.num_directed) if min(lengths(d, 3)) < max(lengths(d, 2)))
    long, short = min(lengths(d, 3)), max(lengths(d, 2))
    perturb_loop_weight(monkeypatch, short, long)
    result = verify._check_weight_properties(g, 6, step_csr(g))[0]
    assert result.detail.startswith(f"multiplicativity fails for {long[:1]}+{long}:")


SKEWED_CHECKS = [
    (make_triangle, lambda w: w.length == 4, "multiplicativity fails for"),
    (make_bowtie, lambda w: w.length == 9 and w.last == w.first ^ 1, "reversal-pair walk"),
    (make_triangle, lambda w: w.length == 9 and w.last == w.first, "loop"),
]
SKEWED_IDS = ["multiplicativity", "reversal-pair", "loop"]


@pytest.mark.parametrize(
    "make, predicate, message, skew",
    [case + (1.5e-12,) for case in SKEWED_CHECKS] + [case + (0.5e-12,) for case in SKEWED_CHECKS],
    ids=SKEWED_IDS + [f"{name}-within" for name in SKEWED_IDS],
)
def test_a_skew_just_past_the_tolerance_fails(monkeypatch, make, predicate, message, skew):
    # Weight 2 makes the weights exceed 1, so the tolerance is relative; a
    # skew of 1.5e-12 is 1.5 tolerances and fails, one of 0.5e-12 is half a
    # tolerance and passes.  Each comparison is decided once, at the
    # tolerance itself.
    g = make(2.0)
    target = next(w for w in enumerate_walks(g, 9) if predicate(w))
    perturb_loop_weight(monkeypatch, target.steps, factor=1.0 + skew)
    result = verify._check_weight_properties(g, 9, step_csr(g))[0]
    if skew > 1e-12:
        assert result.status == "FAIL"
        assert result.detail.startswith(message)
    else:
        assert result.status == "pass", result.detail
