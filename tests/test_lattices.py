"""Lattice generators and the Ising high-temperature conversion."""

import math

import numpy as np
import pytest

from kacward import (
    IsingInstance,
    NumericalError,
    check_convergence_radius,
    connected_components,
    cycle_space_basis,
    gen_hex,
    gen_square,
    ising_partition_kw,
    ising_partition_spin_sum,
    ising_to_even_weights,
    max_degree,
    partition_function_oracle,
    uniform_ising,
    validate_embedding,
)
from conftest import make_path3, make_single_edge


# -- square lattice -----------------------------------------------------------


def test_square_1x1_is_four_cycle():
    g = gen_square(1, 1, 0.5)
    assert g.num_vertices == 4
    assert g.num_edges == 4
    assert partition_function_oracle(g) == pytest.approx(1 + 0.5**4, abs=1e-15)


def test_square_2x1():
    t = 0.3
    g = gen_square(2, 1, t)
    assert g.num_vertices == 6
    assert g.num_edges == 7
    assert cycle_space_basis(g).dimension == 2
    assert partition_function_oracle(g) == pytest.approx(
        1 + 2 * t**4 + t**6, rel=1e-14
    )


@pytest.mark.parametrize("w,h", [(1, 1), (2, 3), (4, 2), (5, 5)])
def test_square_counts_and_validity(w, h):
    g = gen_square(w, h, 0.4)
    assert g.num_vertices == (w + 1) * (h + 1)
    assert g.num_edges == w * (h + 1) + h * (w + 1)
    assert max_degree(g) <= 4
    assert validate_embedding(g).ok


def test_square_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        gen_square(0, 3, 0.5)
    with pytest.raises(ValueError):
        gen_square(3, -1, 0.5)


# -- hex lattice ----------------------------------------------------------------


def test_hex_1x1_is_hexagon():
    t = 0.7
    g = gen_hex(1, 1, t)
    assert g.num_vertices == 6
    assert g.num_edges == 6
    assert partition_function_oracle(g) == pytest.approx(1 + t**6, rel=1e-14)


@pytest.mark.parametrize("r,c", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 4)])
def test_hex_trivalent_and_valid(r, c):
    g = gen_hex(r, c, 0.4)
    assert max_degree(g) <= 3
    assert validate_embedding(g).ok
    assert connected_components(g) == 1
    # One independent cycle per brick.
    assert cycle_space_basis(g).dimension == r * c


def test_hex_radius_at_point_four():
    assert check_convergence_radius(gen_hex(2, 2, 0.4))


def test_hex_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        gen_hex(0, 1, 0.5)


# -- high-temperature conversion ---------------------------------------------------


def test_conversion_at_beta_zero():
    g = gen_square(2, 2, 0.0)
    conv = ising_to_even_weights(uniform_ising(g, beta=0.0))
    assert all(w == 0.0 for w in conv.graph.weights())
    assert conv.prefactor == pytest.approx(2.0**g.num_vertices, rel=1e-15)
    z, log_z = ising_partition_kw(uniform_ising(g, beta=0.0))
    assert z == pytest.approx(2.0**g.num_vertices, rel=1e-12)
    assert log_z == pytest.approx(g.num_vertices * math.log(2), rel=1e-12)


def test_conversion_weights_in_open_unit_interval():
    g = gen_square(2, 2, 0.0)
    conv = ising_to_even_weights(uniform_ising(g, beta=50.0))
    assert all(abs(w) < 1.0 for w in conv.graph.weights())


def test_conversion_matches_the_scalar_loop():
    # The reference is the per-coupling scalar loop the vectorised
    # log cosh replaced; the two must agree bit for bit.
    def reference(inst):
        one_minus = math.nextafter(1.0, 0.0)
        weights = tuple(
            max(-one_minus, min(one_minus, math.tanh(inst.beta * j))) for j in inst.couplings
        )
        log_prefactor = inst.graph.num_vertices * math.log(2.0) + sum(
            float(np.logaddexp(inst.beta * j, -inst.beta * j)) - math.log(2.0)
            for j in inst.couplings
        )
        return weights, log_prefactor

    rng = np.random.default_rng(5)
    g = gen_square(6, 5, 0.0)
    for beta in [0.0, 0.1, 0.44, 1.0, 40.0, *rng.uniform(0.0, 60.0, size=40)]:
        couplings = rng.uniform(-2.0, 2.0, size=g.num_edges)
        couplings[3], couplings[4] = 0.0, -0.0
        inst = IsingInstance(g, float(beta), couplings.tolist())
        conv = ising_to_even_weights(inst)
        # repr tells -0.0 from 0.0, which == does not.
        assert repr((conv.graph.weights(), conv.log_prefactor)) == repr(reference(inst))


def test_single_edge_matches_hand_sum():
    g = make_single_edge(weight=0.0)
    z, _ = ising_partition_kw(uniform_ising(g, beta=1.0))
    assert z == pytest.approx(4 * math.cosh(1.0), rel=1e-12)
    assert z == pytest.approx(
        ising_partition_spin_sum(g, 1.0, [1.0]), rel=1e-12
    )


def test_tree_partition_formula():
    g = make_path3()
    for beta in (0.0, 0.3, 1.2):
        z, log_z = ising_partition_kw(uniform_ising(g, beta=beta))
        expected = 2.0**3 * math.cosh(beta) ** 2
        assert z == pytest.approx(expected, rel=1e-12)
        assert z == pytest.approx(
            ising_partition_spin_sum(g, beta, [1.0] * 2), rel=1e-12
        )


def test_four_spin_grid_matches_spin_sum():
    g = gen_square(1, 1, 0.0)
    z_kw, _ = ising_partition_kw(uniform_ising(g, beta=0.3))
    z_spin = ising_partition_spin_sum(g, 0.3, [1.0] * g.num_edges)
    assert z_kw == pytest.approx(z_spin, rel=1e-10)


def test_grid_matches_spin_sum():
    g = gen_square(2, 2, 0.0)
    z_kw, _ = ising_partition_kw(uniform_ising(g, beta=0.4))
    z_spin = ising_partition_spin_sum(g, 0.4, [1.0] * g.num_edges)
    assert z_kw == pytest.approx(z_spin, rel=1e-9)


def test_hex_matches_spin_sum():
    g = gen_hex(2, 2, 0.0)
    assert g.num_vertices <= 20
    z_kw, _ = ising_partition_kw(uniform_ising(g, beta=0.5))
    z_spin = ising_partition_spin_sum(g, 0.5, [1.0] * g.num_edges)
    assert z_kw == pytest.approx(z_spin, rel=1e-9)


def test_mixed_couplings_match_spin_sum():
    rng = np.random.default_rng(5)
    g = gen_square(2, 1, 0.0)
    couplings = list(rng.uniform(-1.5, 1.5, size=g.num_edges))
    inst = IsingInstance(graph=g, beta=0.7, couplings=couplings)
    z_kw, _ = ising_partition_kw(inst)
    z_spin = ising_partition_spin_sum(g, 0.7, couplings)
    assert z_kw == pytest.approx(z_spin, rel=1e-9)


def test_frustrated_low_temperature_log_z_is_right_or_refused(monkeypatch):
    # Mixed-sign couplings on the 4x3 square: at low temperature the
    # high-temperature sum cancels below double precision, and the
    # determinant's phase shows it.  Every log Z returned matches the spin
    # sum; the others raise.  Each seed's spin energies are computed once.
    from kacward import oracle

    real, energies = oracle._spin_energies, {}

    def once(g, couplings):
        key = tuple(couplings)
        if key not in energies:
            energies[key] = real(g, couplings)
        return energies[key]

    monkeypatch.setattr(oracle, "_spin_energies", once)
    g = gen_square(4, 3, 0.0)
    outcomes = {}
    for seed in range(5):
        couplings = np.random.default_rng(seed).uniform(-1, 1.5, g.num_edges)
        for beta in (1.0, 5.0, 10.0, 25.0, 40.0):
            try:
                z, log_z = ising_partition_kw(IsingInstance(g, beta, couplings))
            except NumericalError:
                outcomes[seed, beta] = "refused"
                continue
            want = oracle.ising_log_partition_spin_sum(g, beta, couplings)
            assert log_z == pytest.approx(want, rel=2e-11, abs=0.0)
            assert z == math.exp(log_z)
            outcomes[seed, beta] = "returned"
    assert all(outcomes[seed, beta] == "returned" for seed in range(5) for beta in (1.0, 5.0))
    assert outcomes[0, 25.0] == "refused"


def test_instance_validates_inputs():
    g = make_path3()
    with pytest.raises(ValueError):
        IsingInstance(graph=g, beta=float("inf"), couplings=(1.0, 1.0))
    with pytest.raises(ValueError):
        IsingInstance(graph=g, beta=1.0, couplings=(1.0,))


@pytest.mark.parametrize(
    "beta, couplings, message",
    [(10**400, (1.0, 1.0), "beta"), (1.0, (1.0, -(10**400)), "coupling 1")],
    ids=["beta", "coupling"],
)
def test_instance_names_an_integer_beyond_the_float_range(beta, couplings, message):
    with pytest.raises(ValueError) as info:
        IsingInstance(graph=make_path3(), beta=beta, couplings=couplings)
    assert str(info.value) == f"{message} is an integer beyond the float range"


def test_log_partition_monotone_in_beta():
    for g in (gen_square(2, 2, 0.0), gen_hex(2, 2, 0.0)):
        betas = np.linspace(0.0, 1.5, 7)
        values = [ising_partition_kw(uniform_ising(g, beta=b))[1] for b in betas]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_large_lattice_log_path_stays_finite():
    g = gen_square(8, 8, 0.0)
    z, log_z = ising_partition_kw(uniform_ising(g, beta=1.0))
    assert math.isfinite(log_z)
    assert log_z > 100  # 81 spins at beta=1 are far beyond exp overflow of nothing
    # The linear value is allowed to be large but must be consistent if finite.
    if math.isfinite(z):
        assert math.log(z) == pytest.approx(log_z, rel=1e-10)


def test_ising_factors_once(factor_calls):
    g = gen_square(3, 4, 0.0)
    for beta in (0.3, 0.9):
        factor_calls.clear()
        z, log_z = ising_partition_kw(uniform_ising(g, beta=beta))
        assert factor_calls == [(2 * g.num_edges, 2 * g.num_edges)]
        assert math.log(z) == pytest.approx(log_z, rel=1e-12)
