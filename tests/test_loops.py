"""Walk/loop calculus: weights, enumeration, cancellations, trace identities."""

import cmath
import math

import numpy as np
import pytest

from kacward import (
    EmbeddedGraph,
    Loop,
    Walk,
    build_transition_matrix,
    concat,
    decompose_at_root,
    enumerate_rooted_loops,
    enumerate_walks,
    is_self_avoiding,
    kac_ward_determinant,
    loop_stats,
    loops,
    multiplicity,
    reverse_walk,
    specific_cancellation_involution,
    truncated_loop_sum,
    validate_embedding,
    verify_generic_cancellation,
    walk_weight,
)
from conftest import (
    REFERENCE_WALK_BUDGET,
    make_bowtie,
    make_path3,
    make_square_cycle,
    make_triangle,
    make_wheel,
    walk_counts,
)


def lam(g, w):
    return walk_weight(g, w).value


# -- walk construction ---------------------------------------------------------


def test_walk_rejects_backtracking():
    with pytest.raises(ValueError, match="backtracking"):
        Walk((0, 1))


def test_loop_requires_closure_and_length():
    with pytest.raises(ValueError, match="end with its first"):
        Loop((0, 2, 4))
    with pytest.raises(ValueError, match="length at least 2"):
        Loop((0, 0))


def test_walk_weight_validates_continuity():
    g = make_triangle()
    with pytest.raises(ValueError, match="consecutive"):
        walk_weight(g, Walk((0, 5)))  # edges do not meet head-to-tail
    with pytest.raises(ValueError, match="out of range"):
        walk_weight(g, Walk((0, 99)))


# -- walk weights ---------------------------------------------------------------


def test_empty_walk_weight_is_unit():
    g = make_triangle()
    ww = walk_weight(g, Walk((0,)))
    assert ww.value == 1.0 + 0.0j
    assert ww.turning_sum == 0.0
    assert ww.edge_product == 1.0


def test_weight_factors_match_matrix_entries():
    # The walk weight equals the product of transition-matrix entries.
    g = make_bowtie(weights=[0.3, 0.8, 0.2, 0.9, 0.5, 0.7])
    tm = build_transition_matrix(g).entries
    for w in enumerate_walks(g, 5):
        prod = 1.0 + 0.0j
        for a, b in zip(w.steps, w.steps[1:]):
            prod *= tm[a, b]
        ww = walk_weight(g, w)
        assert abs(ww.value - prod) <= 1e-12
        assert abs(
            ww.value - cmath.exp(0.5j * ww.turning_sum) * ww.edge_product
        ) <= 1e-12


def test_self_avoiding_loop_weight_is_minus_product():
    g = make_triangle(weight=1.0)
    for l in enumerate_rooted_loops(g, 3):
        ww = walk_weight(g, l)
        assert is_self_avoiding(g, l)
        assert abs(ww.value - (-1.0)) < 1e-12
        assert abs(abs(ww.turning_sum) - 2 * math.pi) < 1e-9


def test_self_avoidance_is_every_vertex_met_twice(corpus, bowtie):
    # Reference: count each vertex over the ends of the traversed edges.
    seen = {True: 0, False: 0}
    for g in [*corpus[:40], bowtie, make_wheel(6)]:
        for l in enumerate_rooted_loops(g, 6):
            ends = [g.tail(d) for d in l.steps[:-1]] + [g.head(d) for d in l.steps[:-1]]
            expected = all(ends.count(v) == 2 for v in ends)
            assert is_self_avoiding(g, l) is expected
            seen[expected] += 1
    assert min(seen.values()) > 100


def test_turnaround_walk_weight_is_imaginary():
    # A walk from a directed edge to its own reversal (possible once a vertex
    # of degree >= 3 lets the orientation flip, e.g. once around one triangle
    # of the bowtie and back through the center).
    g = make_bowtie(weight=1.0)
    found = 0
    for w in enumerate_walks(g, 6):
        if w.length >= 1 and w.last == (w.first ^ 1):
            value = lam(g, w)
            assert abs(value.real) < 1e-12
            assert abs(abs(value.imag) - walk_weight(g, w).edge_product) < 1e-12
            found += 1
    assert found > 0


# -- concat / reverse ---------------------------------------------------------


def test_concat_identity_with_trivial_walk():
    g = make_square_cycle()
    for w in enumerate_walks(g, 3):
        tail_walk = Walk((w.last,))
        assert concat(w, tail_walk) == w
        assert concat(Walk((w.first,)), w) == w


def test_concat_lengths_add():
    g = make_square_cycle(weight=0.5)
    walks = enumerate_walks(g, 4)
    pairs = 0
    for w1 in walks:
        for w2 in walks:
            if w1.last != w2.first:
                continue
            joined = concat(w1, w2)
            assert joined.length == w1.length + w2.length
            pairs += 1
    assert pairs > 0


def test_concat_quarter_loops_multiply():
    # Two quarter arcs of the 4-cycle compose into the half arc.
    g = make_square_cycle(weight=0.5)
    w1 = None
    for w in enumerate_walks(g, 1):
        if w.length == 1:
            w1 = w
            break
    w2 = None
    for w in enumerate_walks(g, 1, start=w1.last):
        if w.length == 1:
            w2 = w
            break
    joined = concat(w1, w2)
    assert abs(lam(g, joined) - lam(g, w1) * lam(g, w2)) < 1e-12


def test_concat_rejects_mismatch():
    g = make_square_cycle()
    walks = [w for w in enumerate_walks(g, 1) if w.length == 1]
    bad = [(a, b) for a in walks for b in walks if a.last != b.first]
    with pytest.raises(ValueError, match="concatenate"):
        concat(*bad[0])


def test_reverse_is_involution():
    g = make_bowtie()
    for w in enumerate_walks(g, 4):
        assert reverse_walk(reverse_walk(w)) == w


def test_reverse_negates_turning_sum():
    g = make_bowtie(weights=[1.0] * 6)
    for w in enumerate_walks(g, 5):
        a = walk_weight(g, w).turning_sum
        b = walk_weight(g, reverse_walk(w)).turning_sum
        assert a == pytest.approx(-b, abs=1e-12)


def test_loop_reversal_preserves_weight():
    g = make_bowtie(weights=[0.4, 0.9, 0.3, 0.8, 0.6, 0.5])
    for l in enumerate_rooted_loops(g, 8):
        v1 = lam(g, l)
        v2 = lam(g, reverse_walk(l))
        assert abs(v1.imag) < 1e-12
        assert abs(v1 - v2) < 1e-12
        assert abs(abs(v1) - walk_weight(g, l).edge_product) < 1e-12


def test_open_reversal_pair_negates():
    g = make_bowtie(weights=[1.0] * 6)
    found = 0
    for w in enumerate_walks(g, 6):
        if w.length >= 1 and w.last == (w.first ^ 1):
            assert abs(lam(g, w) + lam(g, reverse_walk(w))) < 1e-12
            found += 1
    assert found > 0


# -- enumeration ------------------------------------------------------------


def test_tree_has_no_loops():
    assert enumerate_rooted_loops(make_path3(), 12) == []


def test_triangle_loop_counts():
    g = make_triangle()
    loops3 = enumerate_rooted_loops(g, 3)
    assert len(loops3) == 6
    assert all(l.length == 3 for l in loops3)
    loops6 = enumerate_rooted_loops(g, 6)
    assert len(loops6) == 12
    doubled = [l for l in loops6 if l.length == 6]
    assert len(doubled) == 6
    assert all(multiplicity(l) == 2 for l in doubled)


def test_rooted_enumeration_is_partition_by_root():
    g = make_bowtie()
    all_loops = enumerate_rooted_loops(g, 8)
    per_root = []
    for root in range(g.num_directed):
        per_root.extend(enumerate_rooted_loops(g, 8, root=root))
    assert sorted(l.steps for l in all_loops) == sorted(l.steps for l in per_root)
    assert len({l.steps for l in all_loops}) == len(all_loops)


def test_enumeration_deterministic_and_capped():
    g = make_triangle()
    a = [l.steps for l in enumerate_rooted_loops(g, 9)]
    b = [l.steps for l in enumerate_rooted_loops(g, 9)]
    assert a == b
    with pytest.raises(ValueError, match="cap"):
        enumerate_rooted_loops(g, 17)
    with pytest.raises(ValueError, match="cap"):
        enumerate_walks(g, 17)


# Reference enumerators: the former recursive depth-first searches, one for
# walks and one for the loops rooted at one edge, kept here to pin the shared
# walk enumerator's output and order.
def reference_walks(g, max_len, root):
    out = []

    def extend(seq):
        out.append(tuple(seq))
        if len(seq) > max_len:
            return
        last = seq[-1]
        for f in g.out_edges(g.head(last)):
            if f == (last ^ 1):
                continue
            seq.append(f)
            extend(seq)
            seq.pop()

    extend([root])
    return out


def reference_loops(g, max_len, root):
    found = []

    def extend(seq):
        last = seq[-1]
        for f in g.out_edges(g.head(last)):
            if f == (last ^ 1):
                continue
            if f == root and len(seq) >= 2:
                found.append(tuple(seq) + (root,))
            if len(seq) < max_len:
                seq.append(f)
                extend(seq)
                seq.pop()

    extend([root])
    return found


def test_enumerators_match_reference_dfs(corpus):
    graphs = [make_triangle(), make_square_cycle(), make_path3(), make_bowtie()]
    reached_ten = 0
    for g in graphs + corpus:
        counts = walk_counts(g, 10)
        top = max(n for n in range(11) if counts[n] <= REFERENCE_WALK_BUDGET)
        reached_ten += top == 10
        for max_len in range(top + 1):
            all_walks, all_loops = [], []
            for root in range(g.num_directed):
                walks = reference_walks(g, max_len, root)
                loops = reference_loops(g, max_len, root)
                assert [w.steps for w in enumerate_walks(g, max_len, start=root)] == walks
                assert [l.steps for l in enumerate_rooted_loops(g, max_len, root=root)] == loops
                all_walks += walks
                all_loops += loops
            assert [w.steps for w in enumerate_walks(g, max_len)] == all_walks
            assert [l.steps for l in enumerate_rooted_loops(g, max_len)] == all_loops
            assert len(all_walks) == counts[max_len]
    assert reached_ten >= 30


def test_enumerators_reject_bad_roots():
    g = make_triangle()
    with pytest.raises(ValueError, match="start edge 6 out of range"):
        enumerate_walks(g, 3, start=6)
    with pytest.raises(ValueError, match="root edge -1 out of range"):
        enumerate_rooted_loops(g, 3, root=-1)
    assert [w.steps for w in enumerate_walks(g, -1)] == [(d,) for d in range(6)]
    assert enumerate_rooted_loops(g, 2) == []


@pytest.mark.parametrize("cap", [1, 7])
@pytest.mark.parametrize("make, max_len", [(make_bowtie, 8), (lambda w: make_wheel(6, w), 6)])
def test_enumerators_give_the_same_lists_in_split_groups(monkeypatch, cap, make, max_len):
    # With a cap of 1 every walk is a group of its own; with 7, consecutive
    # subtrees share a group and larger ones are split.
    g = make(0.25)
    root = g.num_directed - 1

    def lists():
        return (
            enumerate_walks(g, max_len),
            enumerate_walks(g, max_len, start=root),
            enumerate_rooted_loops(g, max_len),
            enumerate_rooted_loops(g, max_len, root=root),
        )

    whole = lists()
    monkeypatch.setattr(loops, "_GROUP_CAP", cap)
    assert lists() == whole
    assert all(whole)


def prefix_weight_mismatches(g, max_len, csr):
    """Walks up to ``max_len`` whose weight from the walk enumerator differs in any
    bit from ``walk_weight``."""
    bad = []
    for group in loops._groups(csr, range(g.num_directed), max_len):
        for steps, turnings, products in loops._pick(group, loops._every_walk):
            # Each walk weighed as ``loops._sorted`` weighs the loops.
            values = np.exp(0.5j * turnings) * products
            rows = zip(steps.tolist(), values.tolist(), turnings.tolist(), products.tolist())
            for seq, *got in rows:
                ww = walk_weight(g, Walk(tuple(seq)))
                if tuple(got) != (ww.value, ww.turning_sum, ww.edge_product):
                    bad.append(tuple(seq))
    return bad


def budgeted_lengths(corpus):
    """(graph, L): the longest L <= 8 whose walk count stays in the budget."""
    named = [make_triangle(0.25), make_square_cycle(0.3), make_path3(0.4), make_bowtie(0.25)]
    for g in named + corpus:
        counts = walk_counts(g, 8)
        yield g, max(n for n in range(9) if counts[n] <= REFERENCE_WALK_BUDGET)


def test_prefix_weights_equal_walk_weight_bit_for_bit(corpus):
    walks = 0
    for g, max_len in budgeted_lengths(corpus):
        assert prefix_weight_mismatches(g, max_len, loops._csr(g)) == []
        walks += walk_counts(g, max_len)[max_len]
    assert walks > 100_000


def test_one_changed_angle_breaks_the_prefix_weights():
    g = make_bowtie(0.25)
    csr = loops._csr(g)
    for k, (d, f) in enumerate(zip(csr.src.tolist(), csr.succ.tolist())):
        angle = csr.angle.copy()
        angle[k] = math.nextafter(angle[k], math.inf)
        assert (d, f) in prefix_weight_mismatches(g, 3, csr._replace(angle=angle))


def test_enumerators_skip_angles_on_a_zero_length_edge():
    # A square whose last two corners coincide: EmbeddedGraph accepts it, no
    # turning angle through the edge between them is defined, and enumeration
    # needs none.
    g = EmbeddedGraph(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1.0)],
        [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)],
    )
    assert not validate_embedding(g).ok
    assert len(enumerate_walks(g, 6)) == walk_counts(g, 6)[6]
    cycles = enumerate_rooted_loops(g, 8)
    assert [l.length for l in cycles] == [4, 8] * g.num_directed
    with pytest.raises(ValueError, match="zero-length edge"):
        walk_weight(g, cycles[0])


# -- multiplicity and visits ----------------------------------------------------


def test_multiplicity_examples():
    g = make_triangle()
    single = enumerate_rooted_loops(g, 3)[0]
    assert multiplicity(single) == 1
    doubled = Loop(single.steps[:-1] + single.steps)
    assert multiplicity(doubled) == 2
    tripled = Loop(single.steps[:-1] + single.steps[:-1] + single.steps)
    assert multiplicity(tripled) == 3
    assert lam(g, tripled) == pytest.approx(lam(g, single) ** 3, abs=1e-12)


def test_visit_counts_divisible_by_multiplicity():
    g = make_bowtie()
    for l in enumerate_rooted_loops(g, 12):
        stats = loop_stats(l)
        assert all(c % stats.multiplicity == 0 for c in stats.visits.values())
        assert sum(stats.visits.values()) == l.length


# -- trace identity and loop expansion ---------------------------------------------


def test_tree_loop_sum_is_zero():
    g = make_path3(weight=0.9)
    for n in (1, 5, 20):
        assert truncated_loop_sum(g, n) == 0.0


def test_truncated_sum_matches_log_det():
    g = make_triangle(weight=0.1)
    r = kac_ward_determinant(g)
    total = truncated_loop_sum(g, 20)
    log_det = complex(r.log_abs_det, r.phase)
    assert abs(total + log_det) <= 1e-12


def test_trace_equals_rooted_loop_sum():
    for g in (
        make_triangle(weights=[0.3, 0.7, 0.9]),
        make_square_cycle(0.8),
        make_bowtie(weights=[0.5, 0.4, 0.9, 0.2, 0.8, 0.6]),
    ):
        m = build_transition_matrix(g).entries
        sums = {n: 0.0 + 0.0j for n in range(1, 9)}
        for l in enumerate_rooted_loops(g, 8):
            sums[l.length] += lam(g, l)
        power = np.eye(m.shape[0], dtype=complex)
        for n in range(1, 9):
            power = power @ m
            assert abs(complex(np.trace(power)) - sums[n]) <= 1e-11


def test_truncated_sum_requires_radius():
    g = make_bowtie(weight=0.5)  # rho = 3 * 0.5 >= 1
    with pytest.raises(ValueError, match="radius"):
        truncated_loop_sum(g, 10)


# -- multiplicativity property over enumerated pairs -----------------------------


def test_multiplicativity_over_composable_pairs():
    g = make_bowtie(weights=[0.5, 0.4, 0.9, 0.2, 0.8, 0.6])
    walks = enumerate_walks(g, 4)
    weight_of = {w.steps: lam(g, w) for w in walks}
    by_first = {}
    for w in walks:
        by_first.setdefault(w.first, []).append(w)
    checked = 0
    for w1 in walks:
        for w2 in by_first.get(w1.last, ()):
            expect = weight_of[w1.steps] * weight_of[w2.steps]
            assert abs(lam(g, concat(w1, w2)) - expect) <= 1e-12
            checked += 1
    assert checked > 100


# -- specific cancellation ---------------------------------------------------------


def qualifying_pairs(g, max_len):
    for l in enumerate_rooted_loops(g, max_len):
        body = set(l.steps[:-1])
        for k in sorted({s >> 1 for s in body}):
            if 2 * k in body and 2 * k + 1 in body:
                yield l, 2 * k
                yield l, 2 * k + 1


def test_involution_involutes_and_negates():
    # Loops visiting an edge in both directions first appear at length 12
    # on the bowtie (a full figure-eight with one lobe reversed).
    g = make_bowtie(weight=0.25)
    count = 0
    for l, e in qualifying_pairs(g, 12):
        other = specific_cancellation_involution(g, l, e)
        assert other.length == l.length
        assert other.first == l.first
        assert other != l  # fixed-point free
        again = specific_cancellation_involution(g, other, e)
        assert again == l
        assert abs(lam(g, other) + lam(g, l)) < 1e-12
        w1 = walk_weight(g, l)
        w2 = walk_weight(g, other)
        assert w1.edge_product == pytest.approx(w2.edge_product, rel=1e-12)
        count += 1
    assert count > 0


def test_involution_requires_both_directions():
    g = make_triangle()
    l = enumerate_rooted_loops(g, 3)[0]
    with pytest.raises(ValueError, match="does not visit both"):
        specific_cancellation_involution(g, l, l.first)


def test_signed_sums_cancel_per_length_and_edge():
    g = make_bowtie(weight=0.25)
    sums = {}
    mags = {}
    for l, e in qualifying_pairs(g, 12):
        key = (e, l.length)
        value = lam(g, l)
        sums[key] = sums.get(key, 0.0) + value
        mags[key] = mags.get(key, 0.0) + abs(value)
    assert sums  # the bowtie does have qualifying loops at length <= 12
    for key, total in sums.items():
        assert abs(total) <= 1e-12 * max(mags[key], 1.0)


# -- decomposition at the root -------------------------------------------------------


def test_single_visit_loop_is_its_own_factor():
    g = make_triangle()
    l = enumerate_rooted_loops(g, 3)[0]
    assert decompose_at_root(l, l.first) == [l]


def test_doubled_loop_splits_into_two_traversals():
    g = make_triangle()
    single = enumerate_rooted_loops(g, 3)[0]
    doubled = Loop(single.steps[:-1] + single.steps)
    parts = decompose_at_root(doubled, doubled.first)
    assert parts == [single, single]


def test_decomposition_reassembles_and_multiplies():
    g = make_bowtie(weight=0.25)
    checked = 0
    for root in range(g.num_directed):
        for l in enumerate_rooted_loops(g, 12, root=root):
            body = l.steps[:-1]
            if (root ^ 1) in body:
                continue
            parts = decompose_at_root(l, root)
            assert len(parts) == body.count(root)
            rebuilt = parts[0]
            for p in parts[1:]:
                rebuilt = concat(rebuilt, p)
            assert rebuilt == l
            prod = 1.0 + 0.0j
            for p in parts:
                assert p.first == root
                assert p.steps[:-1].count(root) == 1
                prod *= lam(g, p)
            assert abs(prod - lam(g, l)) <= 1e-12
            checked += 1
    assert checked > 50


def test_decompose_rejects_bad_preconditions():
    g = make_bowtie()
    l = enumerate_rooted_loops(g, 6)[0]
    with pytest.raises(ValueError, match="rooted"):
        decompose_at_root(l, l.first + 2 if l.first + 2 < 12 else 0)
    # A loop visiting the root's reversal is rejected.
    exercised = False
    for cand, e in qualifying_pairs(make_bowtie(), 12):
        if cand.first == e:
            with pytest.raises(ValueError, match="reversal"):
                decompose_at_root(cand, e)
            exercised = True
            break
    assert exercised


# -- generic cancellation --------------------------------------------------------------


def test_generic_cancellation_tree_is_trivial():
    g = make_path3(weight=0.3)
    rep = verify_generic_cancellation(g, 0, 8)
    assert rep.lhs == 1.0
    assert rep.rhs == 1.0
    assert rep.gap == 0.0


def test_generic_cancellation_triangle():
    g = make_triangle(weight=0.1)
    for e in range(g.num_directed):
        rep = verify_generic_cancellation(g, e, 12)
        assert rep.gap <= 1e-10
        assert rep.gap <= rep.bound


def test_generic_cancellation_hex_patch():
    from kacward import gen_hex

    g = gen_hex(1, 2, 0.05)
    for e in range(0, g.num_directed, 3):
        rep = verify_generic_cancellation(g, e, 12)
        assert rep.gap <= rep.bound


def test_generic_cancellation_requires_margin():
    g = make_bowtie(weight=0.5)
    with pytest.raises(ValueError, match="radius"):
        verify_generic_cancellation(g, 0, 10)


def test_both_radius_errors_state_the_test_applied():
    g = make_bowtie(weight=0.5)  # rho = 3 * 0.5
    with pytest.raises(ValueError) as truncated:
        truncated_loop_sum(g, 10)
    with pytest.raises(ValueError) as generic:
        verify_generic_cancellation(g, 0, 10)
    assert str(truncated.value) == str(generic.value) == (
        "outside convergence radius: (max_degree - 1) * max|x| = 1.5 >= 1"
    )


def test_generic_cancellation_propagates_cap():
    g = make_triangle(weight=0.1)
    with pytest.raises(ValueError, match="cap"):
        verify_generic_cancellation(g, 0, 30)
