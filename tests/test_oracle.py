"""Brute-force oracles: even-subgraph enumeration, cycle basis, spin sums."""

import math

import pytest

from kacward import (
    EmbeddedGraph,
    EvenSubgraph,
    connected_components,
    cycle_space_basis,
    enumerate_even_subgraphs_naive,
    even_subgraphs_from_basis,
    gen_square,
    ising_log_partition_spin_sum,
    ising_partition_kw,
    ising_partition_spin_sum,
    partition_function_oracle,
    uniform_ising,
)
from conftest import (
    disjoint_union,
    make_bowtie,
    make_path3,
    make_single_edge,
    make_square_cycle,
    make_triangle,
)


# -- naive enumeration -------------------------------------------------------


def test_even_subgraph_size_counts_its_edges():
    assert [EvenSubgraph(m).size() for m in (0, 0b111, 0b1011001)] == [0, 3, 4]
    assert EvenSubgraph(0b1011001).edge_indices() == (0, 3, 4, 6)


def test_single_edge_only_empty_subgraph():
    subs = enumerate_even_subgraphs_naive(make_single_edge())
    assert [s.mask for s in subs] == [0]


def test_triangle_two_even_subgraphs():
    subs = enumerate_even_subgraphs_naive(make_triangle())
    assert [s.mask for s in subs] == [0, 0b111]


def test_bowtie_four_even_subgraphs():
    subs = enumerate_even_subgraphs_naive(make_bowtie())
    masks = {s.mask for s in subs}
    left = 0b000111  # edges 0,1,2
    right = 0b111000  # edges 3,4,5
    assert masks == {0, left, right, left | right}


def test_every_enumerated_subgraph_is_even():
    g = make_bowtie()
    for s in enumerate_even_subgraphs_naive(g):
        deg = [0] * g.num_vertices
        for k in s.edge_indices():
            deg[g.edges[k].u] += 1
            deg[g.edges[k].v] += 1
        assert all(d % 2 == 0 for d in deg)


def test_naive_cap_is_loud():
    g = gen_square(5, 5, 0.5)  # 60 edges
    with pytest.raises(ValueError, match="naive enumeration"):
        enumerate_even_subgraphs_naive(g)


# -- cycle basis --------------------------------------------------------------


def test_tree_has_empty_basis():
    assert cycle_space_basis(make_path3()).dimension == 0


def test_triangle_basis_is_the_triangle():
    cb = cycle_space_basis(make_triangle())
    assert cb.dimension == 1
    assert cb.basis[0].mask == 0b111


def test_four_cycle_basis_dimension_one():
    cb = cycle_space_basis(make_square_cycle())
    assert cb.dimension == 1
    assert cb.basis[0].mask == 0b1111


def test_basis_dimension_formula(corpus):
    for g in corpus[:30]:
        cb = cycle_space_basis(g)
        c = connected_components(g)
        assert cb.dimension == g.num_edges - g.num_vertices + c


def test_basis_elements_are_single_cycles(corpus):
    for g in corpus[:15]:
        for cyc in cycle_space_basis(g).basis:
            touched = {}
            for k in cyc.edge_indices():
                for v in (g.edges[k].u, g.edges[k].v):
                    touched[v] = touched.get(v, 0) + 1
            assert all(c == 2 for c in touched.values())


def test_naive_and_span_agree(corpus):
    for g in corpus[:25]:
        if g.num_edges > 20:
            continue
        naive = {s.mask for s in enumerate_even_subgraphs_naive(g)}
        span = {s.mask for s in even_subgraphs_from_basis(cycle_space_basis(g))}
        assert naive == span


def test_even_subgraph_count_formula(corpus):
    for g in corpus[:25]:
        if g.num_edges > 20:
            continue
        count = len(enumerate_even_subgraphs_naive(g))
        c = connected_components(g)
        assert count == 2 ** (g.num_edges - g.num_vertices + c)


# -- partition oracle -----------------------------------------------------------


def test_tree_partition_is_one():
    assert partition_function_oracle(make_path3()) == 1.0


def test_triangle_is_one_plus_product():
    g = make_triangle(weights=[0.2, 0.3, 0.5])
    assert partition_function_oracle(g) == pytest.approx(1 + 0.2 * 0.3 * 0.5, abs=1e-15)


def test_four_cycle_value():
    assert partition_function_oracle(make_square_cycle(0.5)) == pytest.approx(
        1 + 0.5**4, abs=1e-15
    )


def test_zero_weights_give_one(corpus):
    for g in corpus[:10]:
        assert partition_function_oracle(g.with_weights([0.0] * g.num_edges)) == 1.0


def test_monotone_in_each_weight():
    g = make_bowtie(weights=[0.3, 0.8, 0.2, 0.9, 0.5, 0.7])
    base = list(g.weights())
    z0 = partition_function_oracle(g)
    for k in range(g.num_edges):
        w = list(base)
        w[k] = w[k] + 0.1
        assert partition_function_oracle(g.with_weights(w)) >= z0


def test_factorizes_over_components():
    g1 = make_triangle(weights=[0.2, 0.5, 0.8])
    g2 = make_square_cycle(0.3)
    z = partition_function_oracle(disjoint_union(g1, g2))
    z1 = partition_function_oracle(g1)
    z2 = partition_function_oracle(g2)
    assert z == pytest.approx(z1 * z2, rel=1e-14)


def test_naive_sum_matches_basis_sum(corpus):
    for g in corpus[:15]:
        if g.num_edges > 18:
            continue
        weights = [e.weight for e in g.edges]
        direct = 0.0
        for s in enumerate_even_subgraphs_naive(g):
            term = 1.0
            for k in s.edge_indices():
                term *= weights[k]
            direct += term
        assert partition_function_oracle(g) == pytest.approx(direct, rel=1e-12)


# -- spin sums ---------------------------------------------------------------------


def test_single_edge_spin_sum():
    z = ising_partition_spin_sum(make_single_edge(), 1.0, [1.0])
    assert z == pytest.approx(2 * math.e + 2 / math.e, rel=1e-14)
    assert z == pytest.approx(6.17232, abs=1e-5)


def test_beta_zero_counts_configurations(corpus):
    for g in corpus[:5]:
        z = ising_partition_spin_sum(g, 0.0, [1.0] * g.num_edges)
        assert z == pytest.approx(2.0**g.num_vertices, rel=1e-14)


def test_isolated_vertices():
    g = EmbeddedGraph([(0, 0), (1, 1)], [])
    assert ising_partition_spin_sum(g, 0.7, []) == pytest.approx(4.0, abs=0)


def test_spin_cap_is_loud():
    g = gen_square(4, 4, 0.5)  # 25 vertices
    with pytest.raises(ValueError, match="too many vertices"):
        ising_partition_spin_sum(g, 1.0, [1.0] * g.num_edges)


def test_cycle_dim_cap_is_loud():
    g = gen_square(6, 6, 0.5)  # cycle-space dimension 36
    with pytest.raises(ValueError, match="cycle space too large"):
        partition_function_oracle(g)


def test_oracle_refuses_the_dimension_before_building_a_cycle(monkeypatch):
    # The basis's forest pass counts the dimension; no forest path is
    # searched for a graph the span would refuse.
    from kacward import oracle

    def unreachable(*args):
        raise AssertionError("a fundamental cycle was built")

    monkeypatch.setattr(oracle, "_fundamental_cycles", unreachable)
    with pytest.raises(ValueError) as info:
        partition_function_oracle(gen_square(64, 64, 0.5))
    assert str(info.value) == "cycle space too large: dimension 4096 exceeds cap 30"


def test_spin_sum_rejects_coupling_mismatch():
    with pytest.raises(ValueError, match="couplings"):
        ising_partition_spin_sum(make_triangle(), 1.0, [1.0])


def test_log_spin_sum_is_the_log_of_the_spin_sum(corpus):
    for g in corpus[:20]:
        couplings = [1.0 - 2.0 * e.weight for e in g.edges]
        for beta in (0.0, 0.3, 1.7):
            z = ising_partition_spin_sum(g, beta, couplings)
            log_z = ising_log_partition_spin_sum(g, beta, couplings)
            assert log_z == pytest.approx(math.log(z), rel=1e-13, abs=1e-13)


def test_log_spin_sum_stays_finite_where_the_spin_sum_overflows():
    # The 3x3 grid has 16 vertices; at beta = 40 its ground states weigh
    # exp(960), past the largest double.
    g = gen_square(3, 3, 0.5)
    inst = uniform_ising(g, 40.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert ising_partition_spin_sum(g, 40.0, inst.couplings) == math.inf
    log_z = ising_log_partition_spin_sum(g, 40.0, inst.couplings)
    _, log_z_kw = ising_partition_kw(inst)
    assert math.isfinite(log_z)
    assert log_z == pytest.approx(log_z_kw, rel=1e-12)
    assert log_z == pytest.approx(960.693, abs=1e-3)


def test_log_spin_sum_checks_like_the_spin_sum():
    with pytest.raises(ValueError, match="too many vertices"):
        ising_log_partition_spin_sum(gen_square(4, 4, 0.5), 1.0, [1.0] * 40)
    with pytest.raises(ValueError, match="couplings"):
        ising_log_partition_spin_sum(make_triangle(), 1.0, [1.0])
