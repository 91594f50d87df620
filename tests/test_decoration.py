"""Vertex decoration: trivalence, generating-function and loop-weight preservation."""

import numpy as np
import pytest

from kacward import (
    EmbeddedGraph,
    connected_components,
    cycle_space_basis,
    decorate,
    enumerate_even_subgraphs_naive,
    enumerate_rooted_loops,
    kac_ward_determinant,
    lift_loop,
    max_degree,
    partition_function_oracle,
    validate_embedding,
    walk_weight,
)
from kacward.graph import _clockwise_rotation
from conftest import (
    make_bowtie,
    make_huge_wheel,
    make_square_cycle,
    make_tied_hub,
    make_triangle,
    make_wheel,
)


def make_star5_with_cycle():
    # Degree-5 hub with a pentagon rim: hub degree 5, rim degree 3.
    return make_wheel(spokes=5, weight=0.5)


def monomials(g):
    weights = [e.weight for e in g.edges]
    out = []
    for s in enumerate_even_subgraphs_naive(g):
        term = 1.0
        for k in s.edge_indices():
            term *= weights[k]
        out.append(term)
    return sorted(out)


# -- structure ----------------------------------------------------------------


def test_trivalent_graph_is_untouched():
    g = make_triangle()
    dec = decorate(g)
    assert dec.decorated == g
    assert dec.unit_edges == ()
    assert dec.vertex_fan == {}
    assert dec.edge_map == tuple(range(g.num_edges))


def test_bowtie_counts():
    dec = decorate(make_bowtie())
    assert dec.decorated.num_vertices == 8
    assert dec.decorated.num_edges == 9
    assert max_degree(dec.decorated) == 3
    assert validate_embedding(dec.decorated).ok
    assert len(dec.unit_edges) == 3
    assert len(dec.vertex_fan[0]) == 4


def test_unit_edges_have_weight_one():
    dec = decorate(make_wheel(6))
    for k in dec.unit_edges:
        assert dec.decorated.edges[k].weight == 1.0
    # Weight-inheriting edges keep their weights, in order.
    g = make_wheel(6)
    for orig, new in enumerate(dec.edge_map):
        assert dec.decorated.edges[new].weight == g.edges[orig].weight


def test_fan_is_a_path_not_a_cycle():
    g = make_bowtie()
    dec = decorate(g)
    fan = dec.vertex_fan[0]
    unit_pairs = {
        (min(e.u, e.v), max(e.u, e.v))
        for k, e in enumerate(dec.decorated.edges)
        if k in set(dec.unit_edges)
    }
    for a, b in zip(fan, fan[1:]):
        assert (min(a, b), max(a, b)) in unit_pairs
    closing = (min(fan[0], fan[-1]), max(fan[0], fan[-1]))
    assert closing not in unit_pairs


def test_star5_with_cycle_becomes_trivalent():
    g = make_star5_with_cycle()
    assert max_degree(g) == 5
    dec = decorate(g)
    assert max_degree(dec.decorated) <= 3
    assert validate_embedding(dec.decorated).ok


def test_wheel6_becomes_trivalent():
    g = make_wheel(6)
    assert max_degree(g) == 6
    dec = decorate(g)
    assert max_degree(dec.decorated) <= 3
    assert validate_embedding(dec.decorated).ok
    assert dec.decorated.num_vertices == 6 + 6
    assert dec.decorated.num_edges == 12 + 5


def test_fans_of_spokes_that_tie_in_floats_are_in_exact_order():
    for second_first in (False, True):
        g = make_tied_hub(second_first)
        assert validate_embedding(g).ok
        dec = decorate(g)
        assert max_degree(dec.decorated) == 3
        assert validate_embedding(dec.decorated).ok
        assert partition_function_oracle(dec.decorated) == pytest.approx(
            partition_function_oracle(g), rel=1e-12
        )
        # Every loop lifts with its weight, the turns from one tied spoke
        # back out along the other (+-pi -+ 1e-17) included.
        for l in enumerate_rooted_loops(g, 6):
            lifted = walk_weight(dec.decorated, lift_loop(dec, l)).value
            assert abs(walk_weight(g, l).value - lifted) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_wheel_drawn_near_the_float_limit_decorates_as_at_unit_scale():
    scale = 1.1e308
    unit, huge = decorate(make_wheel(5, weight=0.2)).decorated, decorate(make_huge_wheel(scale))
    assert validate_embedding(huge.decorated).ok and max_degree(huge.decorated) == 3
    xy = huge.decorated._geometry.xy
    assert np.allclose(xy / scale, unit._geometry.xy, rtol=0.0, atol=1e-14)
    assert partition_function_oracle(huge.decorated) == pytest.approx(
        partition_function_oracle(unit), rel=1e-12
    )


@pytest.mark.parametrize("spokes", [4, 5, 6, 200])
def test_decoration_indices_follow_the_fans_in_rotation_order(spokes, corpus):
    for g in [make_wheel(spokes)] + corpus:
        dec = decorate(g)
        m = g.num_edges
        assert dec.edge_map == tuple(range(m))
        assert dec.unit_edges == tuple(range(m, dec.decorated.num_edges))
        assert list(dec.vertex_fan) == sorted(dec.vertex_fan)
        ends = dec.decorated._geometry.ends.tolist()
        fans = dec.vertex_fan.values()
        joins = [[fan[i], fan[i + 1]] for fan in fans for i in range(len(fan) - 1)]
        assert ends[m:] == joins
        ptr = g._geometry.out_ptr
        rotation = _clockwise_rotation(g._geometry)
        for v, fan in dec.vertex_fan.items():
            # Fan position i carries the i-th out-edge of v in clockwise order.
            out = rotation[ptr[v] : ptr[v + 1]].tolist()
            assert [ends[d >> 1][d & 1] for d in out] == list(fan)
        for v, image in dec.vertex_image.items():
            assert dec.decorated.vertices[image] == g.vertices[v]


# -- generating function preservation ---------------------------------------------


@pytest.mark.parametrize(
    "maker",
    [make_bowtie, lambda: make_wheel(6), make_star5_with_cycle],
)
def test_even_subgraph_monomials_preserved(maker):
    g = maker()
    dec = decorate(g)
    assert monomials(g) == monomials(dec.decorated)


@pytest.mark.parametrize(
    "maker",
    [make_bowtie, lambda: make_wheel(6), make_star5_with_cycle],
)
def test_partition_function_preserved(maker):
    g = maker()
    dec = decorate(g)
    z0 = partition_function_oracle(g)
    z1 = partition_function_oracle(dec.decorated)
    assert abs(z0 - z1) <= 1e-12 * max(1.0, abs(z0))


def test_cycle_space_dimension_preserved():
    for g in (make_bowtie(), make_wheel(6)):
        dec = decorate(g)
        d0 = cycle_space_basis(g).dimension
        d1 = cycle_space_basis(dec.decorated).dimension
        assert d0 == d1
        assert connected_components(g) == connected_components(dec.decorated)
        assert len(enumerate_even_subgraphs_naive(g)) == len(
            enumerate_even_subgraphs_naive(dec.decorated)
        )


def test_determinant_preserved():
    for g in (make_bowtie(), make_wheel(6, weight=0.3)):
        d0 = kac_ward_determinant(g).det
        d1 = kac_ward_determinant(decorate(g).decorated).det
        assert abs(d0 - d1) <= 1e-9 * max(1.0, abs(d0))


# -- loop lifting ------------------------------------------------------------------


def test_lift_keeps_loops_avoiding_fans():
    g = make_bowtie()
    dec = decorate(g)
    # Loops around the left triangle avoid no fan (the center is decorated),
    # so build a graph where some vertex is untouched: decorated square has
    # no fans at all and lifting is the identity.
    sq = make_square_cycle()
    dec_sq = decorate(sq)
    for l in enumerate_rooted_loops(sq, 8):
        assert lift_loop(dec_sq, l) == l


def test_lift_through_center_adds_unit_steps():
    g = make_bowtie()
    dec = decorate(g)
    triangle_loops = [l for l in enumerate_rooted_loops(g, 3)]
    assert triangle_loops
    for l in triangle_loops:
        lifted = lift_loop(dec, l)
        # One center crossing; the fan detour inserts at least one unit step.
        assert lifted.length > l.length
        extra = lifted.length - l.length
        assert extra in (1, 3)
        ww0 = walk_weight(g, l)
        ww1 = walk_weight(dec.decorated, lifted)
        assert abs(ww0.value - ww1.value) <= 1e-12
        assert ww0.edge_product == pytest.approx(ww1.edge_product, rel=1e-15)


@pytest.mark.parametrize("maker", [make_bowtie, lambda: make_wheel(6)])
def test_lift_preserves_weights_exhaustively(maker):
    g = maker()
    dec = decorate(g)
    for l in enumerate_rooted_loops(g, 8):
        lifted = lift_loop(dec, l)
        ww0 = walk_weight(g, l)
        ww1 = walk_weight(dec.decorated, lifted)
        assert abs(ww0.value - ww1.value) <= 1e-11
        assert ww0.edge_product == ww1.edge_product  # unit weights are exact
        assert abs(ww0.turning_sum - ww1.turning_sum) <= 1e-9


def test_lift_rejects_foreign_loop():
    g = make_bowtie()
    dec = decorate(g)
    big = enumerate_rooted_loops(dec.decorated, 9)
    foreign = next(l for l in big if max(l.steps) >= 2 * g.num_edges)
    with pytest.raises(ValueError, match="out of range"):
        lift_loop(dec, foreign)
