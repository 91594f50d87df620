"""Transition matrix structure, determinant identities, partition function."""

import cmath
import math
import warnings

import numpy as np
import pytest

from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from kacward import (
    EmbeddedGraph,
    InvalidEmbeddingError,
    NumericalError,
    build_transition_matrix,
    check_convergence_radius,
    gen_hex,
    gen_square,
    ising_partition_kw,
    ising_to_even_weights,
    kac_ward_determinant,
    partition_function_kw,
    partition_function_oracle,
    reverse_edge,
    turning_angle,
    uniform_ising,
)
from kacward import loops
from kacward.lattices import IsingInstance
from kacward.transition import _layout, _parity, _pattern, _sparse_slogdet
from conftest import (
    ROTATED_SQUARE_IDS,
    ROTATED_SQUARE_SCALES,
    disjoint_union,
    make_bowtie,
    make_path3,
    make_rotated_square,
    make_single_edge,
    make_square_cycle,
    make_tied_hub,
    make_triangle,
    make_wheel,
)


# -- matrix structure -------------------------------------------------------


def test_single_edge_matrix_is_zero():
    tm = build_transition_matrix(make_single_edge())
    assert tm.size == 2
    assert np.all(tm.entries == 0)


def test_path_entry_is_eighth_root():
    # Right-angle bend: entry = weight * exp(i*pi/4).
    g = make_path3(weight=1.0)
    tm = build_transition_matrix(g)
    expected = cmath.exp(1j * math.pi / 4)
    assert tm.entries[0, 2] == pytest.approx(expected, abs=1e-15)
    assert abs(expected - (0.70711 + 0.70711j)) < 1e-5


def test_nonzero_count_matches_degree_identity(corpus):
    for g in corpus[:25]:
        tm = build_transition_matrix(g)
        expected = sum(d * (d - 1) for d in g.degrees)
        assert np.count_nonzero(tm.entries) == expected


def test_entry_support_and_magnitude(corpus):
    for g in corpus[:10]:
        tm = build_transition_matrix(g)
        nz = np.argwhere(tm.entries != 0)
        for d, f in nz:
            d, f = int(d), int(f)
            assert g.head(d) == g.tail(f)
            assert f != reverse_edge(d)
            assert abs(tm.entries[d, f]) == pytest.approx(
                abs(g.directed_weight(d)), rel=1e-15
            )


def test_build_matches_per_entry_loop(corpus):
    # Reference: one turning_angle call per allowed step, as a plain loop.
    for g in corpus[:40]:
        n = g.num_directed
        want = np.zeros((n, n), dtype=np.complex128)
        for d in range(n):
            for f in g.out_edges(g.head(d)):
                if f != reverse_edge(d):
                    want[d, f] = g.directed_weight(d) * cmath.exp(
                        0.5j * turning_angle(g, d, f)
                    )
        tm = build_transition_matrix(g)
        assert len(set(zip(tm.rows.tolist(), tm.cols.tolist()))) == len(tm.values)
        np.testing.assert_allclose(tm.entries, want, rtol=0, atol=1e-15)


def test_straight_step_angle_is_zero_and_reversal_is_excluded():
    # Collinear path 0 -> 1 -> 2: the straight step has angle 0, entry = weight.
    g = EmbeddedGraph([(0, 0), (1, 0), (2, 0)], [(0, 1, 0.5), (1, 2, 0.25)])
    tm = build_transition_matrix(g)
    assert sorted(zip(tm.rows.tolist(), tm.cols.tolist())) == [(0, 2), (3, 1)]
    assert tm.entries[0, 2] == 0.5
    assert tm.entries[3, 1] == 0.25


def test_build_rejects_invalid_embedding():
    crossing = EmbeddedGraph(
        [(0, 0), (2, 0), (1, -1), (1, 1)],
        [(0, 1, 0.5), (2, 3, 0.5)],
    )
    with pytest.raises(InvalidEmbeddingError):
        build_transition_matrix(crossing)


# -- determinant ------------------------------------------------------------


def test_single_edge_det_is_one():
    r = kac_ward_determinant(make_single_edge(weight=3.0))
    assert r.det == 1.0 + 0.0j
    assert r.log_abs_det == 0.0
    assert r.phase == 0.0


def test_triangle_det_squares_oracle():
    g = make_triangle(weight=0.5)
    r = kac_ward_determinant(g)
    z = partition_function_oracle(g)
    assert z == pytest.approx(1.125, abs=0)
    assert r.det.real == pytest.approx(1.265625, abs=1e-12)
    assert r.det == pytest.approx(z * z, abs=1e-12)


def test_square_cycle_det():
    g = make_square_cycle(weight=0.5)
    r = kac_ward_determinant(g)
    assert r.det.real == pytest.approx(1.12890625, abs=1e-12)
    assert abs(r.det.imag) < 1e-12


def test_det_log_form_consistent(corpus):
    for g in corpus[:25]:
        r = kac_ward_determinant(g)
        rebuilt = cmath.exp(complex(r.log_abs_det, r.phase))
        assert abs(rebuilt - r.det) <= 1e-12 * max(1.0, abs(r.det))


def test_det_is_one_at_zero_weights(corpus):
    for g in corpus[:10]:
        r = kac_ward_determinant(g.with_weights([0.0] * g.num_edges))
        assert r.det == 1.0 + 0.0j


def test_disjoint_union_factorizes():
    g1 = make_triangle(weight=0.6)
    g2 = make_square_cycle(weight=0.4)
    both = disjoint_union(g1, g2)
    d1 = kac_ward_determinant(g1).det
    d2 = kac_ward_determinant(g2).det
    d12 = kac_ward_determinant(both).det
    assert abs(d12 - d1 * d2) <= 1e-10 * abs(d1 * d2)


def _dense_slogdet(g):
    m = build_transition_matrix(g).entries
    sign, log_abs = np.linalg.slogdet(np.eye(len(m), dtype=np.complex128) - m)
    return float(log_abs), cmath.phase(complex(sign))


def _assert_det_matches_dense(g):
    r = kac_ward_determinant(g)
    log_abs, phase = _dense_slogdet(g)
    assert r.log_abs_det == pytest.approx(log_abs, rel=1e-10, abs=1e-14)
    assert abs(math.remainder(r.phase - phase, 2 * math.pi)) <= 1e-9
    assert -math.pi < r.phase <= math.pi


def test_det_matches_dense_slogdet_on_corpus(corpus):
    for g in corpus:
        _assert_det_matches_dense(g)
    _assert_det_matches_dense(EmbeddedGraph([(0.0, 0.0), (2.0, 3.0)], []))


@pytest.mark.parametrize("beta", [0.2, 0.44, 2.0, 20.0])
@pytest.mark.parametrize(
    "lattice", [gen_square(5, 9, 1.0), gen_hex(6, 3, 1.0)], ids=["square", "hex"]
)
def test_det_matches_dense_slogdet_on_strips(lattice, beta):
    _assert_det_matches_dense(ising_to_even_weights(uniform_ising(lattice, beta)).graph)


def _random_pivoting_matrix(rng, n):
    # Sparse complex matrix with a tiny diagonal, so partial pivoting swaps rows.
    a = np.zeros((n, n), dtype=np.complex128)
    mask = rng.random((n, n)) < 0.25
    a[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    a[np.diag_indices(n)] = 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return a


def test_sparse_slogdet_matches_dense_with_odd_permutations():
    rng = np.random.default_rng(7)
    odd_rows = odd_cols = 0
    for _ in range(40):
        a = _random_pivoting_matrix(rng, int(rng.integers(3, 13)))
        lu = splu(csc_array(a))
        odd_rows += _parity(lu.perm_r)
        odd_cols += _parity(lu.perm_c)
        log_abs, phase = _sparse_slogdet(csc_array(a))
        sign, want_log = np.linalg.slogdet(a)
        assert log_abs == pytest.approx(want_log, rel=1e-10, abs=1e-12)
        assert abs(math.remainder(phase - cmath.phase(sign), 2 * math.pi)) <= 1e-9
    # The sample exercises both permutation signs on both sides.
    assert 0 < odd_rows < 40 and 0 < odd_cols < 40


def test_parity_matches_permutation_matrix_determinant():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        perm = rng.permutation(n)
        det = np.linalg.det(np.eye(n)[perm])
        assert _parity(perm) == (0 if det > 0 else 1)


def reference_parity(perm) -> int:
    """0 if the permutation is even, 1 if odd: one Python step per element."""
    p = list(perm)
    seen = [False] * len(p)
    transpositions = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        j = start
        while not seen[j]:  # a cycle of length c is c - 1 transpositions
            seen[j] = True
            j = p[j]
            transpositions += 1
        transpositions -= 1
    return transpositions & 1


def test_parity_matches_the_cycle_walk_on_random_permutations():
    rng = np.random.default_rng(5)
    # 832 is the beta-sweep strip's size, where the factor's permutations
    # are often the identity.
    sizes = [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100, 832, 1023, 1024, 1025, 4097, 65537, 100_000]
    for n in sizes:
        perms = [rng.permutation(n) for _ in range(3 if n < 10_000 else 1)]
        perms.append(np.arange(n))
        if n >= 2:
            swapped = np.arange(n)
            swapped[[0, n - 1]] = swapped[[n - 1, 0]]
            perms += [swapped, np.roll(np.arange(n), 1)]  # one transposition; one n-cycle
        for perm in perms:
            assert _parity(perm) == reference_parity(perm.tolist()), n


@pytest.fixture
def splu_calls(monkeypatch):
    """Records the keyword arguments and the factor of each ``splu`` call."""
    import scipy.sparse.linalg

    calls = []
    real = scipy.sparse.linalg.splu

    def recording(a, **kwargs):
        lu = real(a, **kwargs)
        calls.append((kwargs, lu))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return calls


def test_the_factor_never_relaxes_supernodes_past_its_panel(splu_calls):
    # relax > panel_size has corrupted SuperLU's memory: the process crashed
    # at exit after right answers.
    kac_ward_determinant(ising_to_even_weights(uniform_ising(gen_square(3, 2, 1.0), 0.5)).graph)
    [(kwargs, _)] = splu_calls
    assert kwargs["relax"] <= kwargs["panel_size"]


# The beta-sweep strip (416 edges, n = 832).  Ferromagnetic couplings give
# nonnegative weights, factored in the real gauge: SuperLU keeps every row
# in place at beta 0.1 and 1, and moves rows at beta 40, where every weight
# rounds to 1.  Mixed couplings give the complex matrix, where it
# moves most rows.  So the sign of the row permutation is taken both from
# the identity and by pointer jumping.
SWEEP_STRIP = gen_square(8, 24, 1.0)


@pytest.mark.parametrize(
    "couplings, beta, rows_move, dtype",
    [
        (None, 0.1, False, np.float64),
        (None, 1.0, False, np.float64),
        (None, 40.0, True, np.float64),
        (np.random.default_rng(0).uniform(-1, 1.5, 416), 1.0, True, np.complex128),
    ],
    ids=["beta-0.1", "beta-1", "beta-40", "mixed-beta-1"],
)
def test_det_matches_dense_slogdet_on_the_sweep_strip(splu_calls, couplings, beta, rows_move, dtype):
    ising = uniform_ising(SWEEP_STRIP, beta)
    if couplings is not None:
        ising = IsingInstance(graph=SWEEP_STRIP, beta=beta, couplings=tuple(couplings))
    g = ising_to_even_weights(ising).graph
    r = kac_ward_determinant(g)
    log_abs, phase = _dense_slogdet(g)
    assert r.log_abs_det == pytest.approx(log_abs, rel=1e-12)
    assert abs(math.remainder(r.phase - phase, 2 * math.pi)) <= 1e-12
    [(_, lu)] = splu_calls
    assert lu.U.dtype == dtype
    assert np.array_equal(lu.perm_r, np.arange(g.num_directed)) != rows_move


def test_singular_factor_is_numerical_error():
    with pytest.raises(NumericalError):
        _sparse_slogdet(csc_array(np.ones((2, 2), dtype=np.complex128)))


# -- partition function -------------------------------------------------------


def test_tree_partition_is_one():
    assert partition_function_kw(make_path3()) == pytest.approx(1.0, abs=1e-12)


def test_edgeless_graph_partition_is_one():
    g = EmbeddedGraph([(0.0, 0.0), (2.0, 3.0)], [])
    assert kac_ward_determinant(g).det == 1.0 + 0.0j
    assert partition_function_kw(g) == 1.0


def test_partition_accepts_det_result():
    g = make_bowtie(0.5)
    assert partition_function_kw(kac_ward_determinant(g)) == partition_function_kw(g)


def test_triangle_partition():
    assert partition_function_kw(make_triangle(0.5)) == pytest.approx(
        1.125, abs=1e-12
    )


def test_bowtie_partition_degree_four():
    z = partition_function_kw(make_bowtie(0.5))
    assert z == pytest.approx(1.265625, abs=1e-12)
    assert z == pytest.approx((1 + 0.125) * (1 + 0.125), abs=1e-12)


def test_partition_matches_oracle(corpus):
    for g in corpus[:40]:
        z_kw = partition_function_kw(g)
        z = partition_function_oracle(g)
        assert z_kw == pytest.approx(z, rel=1e-9, abs=1e-9)


def test_partition_affine_in_each_weight():
    # The square root of the determinant is affine in every single weight.
    g = make_bowtie(weights=[0.3, 0.8, 0.2, 0.9, 0.5, 0.7])
    base = list(g.weights())
    for k in range(g.num_edges):
        values = []
        for t in (0.0, 0.5, 1.0):
            w = list(base)
            w[k] = t
            values.append(partition_function_kw(g.with_weights(w)))
        assert values[1] == pytest.approx(
            0.5 * (values[0] + values[2]), abs=1e-9
        )


def test_log_form_survives_linear_overflow():
    # 30 disjoint triangles with weight 1000: det = (1 + 1e9)^60 overflows
    # the linear value, but Z and the log form stay exact.
    tri = make_triangle(weight=1000.0)
    g = tri
    for _ in range(29):
        g = disjoint_union(g, tri)
    r = kac_ward_determinant(g)
    assert math.isinf(abs(r.det))
    expected_log = 60 * math.log(1 + 1000.0**3)
    assert r.log_abs_det == pytest.approx(expected_log, rel=1e-12)
    z = partition_function_kw(g)
    assert math.log(z) == pytest.approx(expected_log / 2, rel=1e-12)


def test_partition_overflows_to_inf_gracefully():
    # 70 copies push even sqrt(det) past the largest double.
    tri = make_triangle(weight=1000.0)
    g = tri
    for _ in range(69):
        g = disjoint_union(g, tri)
    r = kac_ward_determinant(g)
    assert r.log_abs_det == pytest.approx(140 * math.log(1 + 1000.0**3), rel=1e-12)
    assert partition_function_kw(g) == math.inf


def test_reality_and_nonnegativity_mixed_signs(corpus):
    rng = np.random.default_rng(99)
    for g in corpus[:30]:
        w = rng.uniform(-1.0, 1.0, size=g.num_edges)
        r = kac_ward_determinant(g.with_weights(list(w)))
        scale = max(1.0, abs(r.det))
        assert abs(r.det.imag) <= 1e-10 * scale
        assert r.det.real >= -1e-10 * scale


# -- reweighted copies share the drawing's layout ---------------------------------

BETA_C = 0.5 * math.log(1.0 + math.sqrt(2.0))


def fresh(g: EmbeddedGraph, weights) -> EmbeddedGraph:
    """A graph built from scratch, sharing nothing with ``g``."""
    return EmbeddedGraph(
        [(p.x, p.y) for p in g.vertices],
        [(e.u, e.v, w) for e, w in zip(g.edges, weights)],
    )


def coupling_sets(g: EmbeddedGraph):
    """Uniform couplings, and mixed-sign ones with a zero."""
    rng = np.random.default_rng(g.num_edges)
    mixed = rng.uniform(-1.5, 1.5, size=g.num_edges)
    mixed[g.num_edges // 2] = 0.0
    return [[1.0] * g.num_edges, mixed.tolist()]


def ising_outcome(inst: IsingInstance):
    """repr of (Z, log Z), or the type and message of the NumericalError."""
    try:
        return repr(ising_partition_kw(inst))
    except NumericalError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "g", [gen_square(4, 3, 1.0), gen_hex(3, 2, 1.0), make_wheel(6)], ids=["square", "hex", "wheel"]
)
def test_reweighted_copies_are_bit_identical_to_fresh_graphs(g):
    ising_partition_kw(uniform_ising(g, 0.3))  # fills g's geometry record
    for couplings in coupling_sets(g):
        for beta in (0.1, BETA_C, 1.0, 40.0):
            inst = IsingInstance(g, beta, couplings)
            conv = ising_to_even_weights(inst)
            new = fresh(g, conv.graph.weights())
            assert conv.graph._geometry is g._geometry
            # Both return the same floats, bit for bit, or both refuse the
            # determinant with the same error (mixed couplings at low
            # temperature, where the high-temperature sum cancels).
            want_z = ising_outcome(IsingInstance(new, beta, couplings))
            assert ising_outcome(inst) == want_z
            assert kac_ward_determinant(conv.graph) == kac_ward_determinant(new)
            tm, want = build_transition_matrix(conv.graph), build_transition_matrix(new)
            assert tm.size == want.size
            assert np.array_equal(tm.rows, want.rows) and np.array_equal(tm.cols, want.cols)
            assert np.array_equal(tm.values, want.values)


def reference_layout(g: EmbeddedGraph):
    """The four ``_Layout`` arrays, with the steps found one directed edge at a time."""
    n = g.num_directed
    rows, cols = [], []
    for d in range(n):
        for f in g.out_edges(g.head(d)):
            if f != (d ^ 1):
                rows.append(d)
                cols.append(f)
    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    step = np.array([g.direction(d) for d in range(n)], dtype=np.float64).reshape(-1, 2)
    ex, ey = step[rows, 0], step[rows, 1]
    fx, fy = step[cols, 0], step[cols, 1]
    angle = np.arctan2(ex * fy - ey * fx, ex * fx + ey * fy)
    angle[angle == -math.pi] = math.pi
    return rows, cols, angle, np.exp(0.5j * angle)


def reference_pattern(g: EmbeddedGraph, pos: np.ndarray):
    """``_Pattern``'s ``indptr``, ``indices`` and ``order`` for the positions
    ``pos``: the identity's diagonal, then the steps, with directed edge d
    at row and column ``pos[d]``."""
    n = g.num_directed
    rows, cols = reference_layout(g)[:2]
    diag = np.arange(n)
    all_rows, all_cols = pos[np.concatenate((diag, rows))], pos[np.concatenate((diag, cols))]
    order = np.lexsort((all_rows, all_cols))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(all_cols, minlength=n), out=indptr[1:])
    return indptr, all_rows[order], order


def i_minus_t(tm, pos=None, values=None):
    """scipy's COO to CSC conversion of the triplets of ``I - T``, with
    directed edge d at row and column ``pos[d]`` when ``pos`` is given, and
    step k holding ``values[k]`` in place of ``tm.values[k]`` when
    ``values`` is given."""
    diag = np.arange(tm.size)
    rows, cols = np.concatenate((diag, tm.rows)), np.concatenate((diag, tm.cols))
    if pos is not None:
        rows, cols = pos[rows], pos[cols]
    data = np.concatenate((np.ones(tm.size), -(tm.values if values is None else values)))
    return csc_array((data, (rows, cols)), shape=(tm.size, tm.size))


def direction_angles(g: EmbeddedGraph) -> np.ndarray:
    """``theta_d``: the direction angle of each directed edge, one at a time."""
    return np.array([math.atan2(dy, dx) for dx, dy in map(g.direction, range(g.num_directed))])


def gauge_product(g: EmbeddedGraph) -> np.ndarray:
    """``phase[k] * exp(i * (theta[rows[k]] - theta[cols[k]]) / 2)`` on every
    step: the entries of ``D T D^-1`` over ``x_e``, ``D = diag(exp(i theta / 2))``."""
    layout, theta = _layout(g), direction_angles(g)
    return layout.phase * np.exp(0.5j * (theta[layout.rows] - theta[layout.cols]))


def assert_is_paired_permutation(pos: np.ndarray, n: int):
    """``pos`` is a permutation of the n directed ids that keeps each
    edge's two directions adjacent: ``pos[2e + 1] == pos[2e] + 1``."""
    assert pos.dtype == np.intp and pos.shape == (n,)
    assert np.array_equal(np.sort(pos), np.arange(n))
    assert np.array_equal(pos[1::2], pos[::2] + 1)


# The four strips of the lattice-cold benchmark workload.
LATTICE_COLD_STRIPS = (
    gen_square(9, 22, 0.5),
    gen_square(11, 18, 0.5),
    gen_hex(38, 3, 0.5),
    gen_hex(30, 4, 0.5),
)


def test_layout_is_bit_identical_to_the_per_step_loop(corpus):
    graphs = corpus + [gen_square(1, 1, 0.5), *LATTICE_COLD_STRIPS] + [
        make_single_edge(),
        make_path3(),
        EmbeddedGraph([(0.0, 0.0), (1.0, 0.0)], []),
        EmbeddedGraph([], []),
    ] + [make_wheel(k) for k in (3, 4, 6, 7, 12, 50)]
    for g in graphs:
        layout, want = _layout(g), reference_layout(g)
        assert len(layout) == len(want)
        for name, got, expected in zip(layout._fields, layout, want):
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            if name in ("angle", "phase"):
                got, expected = got.view(np.uint64), expected.view(np.uint64)
            assert np.array_equal(got, expected), name
        pattern = _pattern(g)
        assert_is_paired_permutation(pattern.pos, g.num_directed)
        want = reference_pattern(g, pattern.pos)
        assert len(pattern) == 2 + len(want)  # pos first and sign last are checked elsewhere
        for name, got, expected in zip(pattern._fields[1:], pattern[1:], want):
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert np.array_equal(got, expected), name


def test_the_gauge_signs_are_the_similarity_of_the_phases(corpus):
    # D T D^-1, D = diag(exp(i theta_d / 2)), holds sign[k] * x_e on step k:
    # the phase times the two half direction angles is +-1 to rounding.  The
    # tied hub's spokes turn by +-pi, on the side of their exact orientation.
    graphs = corpus + list(LATTICE_COLD_STRIPS) + [make_wheel(k) for k in range(3, 51)] + [
        make_tied_hub(second_first) for second_first in (False, True)
    ]
    steps = flips = 0
    for g in graphs:
        sign = _pattern(g).sign
        assert sign.dtype == np.float64 and not sign.flags.writeable
        assert np.array_equal(np.abs(sign), np.ones(len(_layout(g).rows)))
        assert np.abs(sign - gauge_product(g)).max(initial=0.0) <= 1e-12
        steps += len(sign)
        flips += int(np.count_nonzero(sign < 0))
    assert steps > 60_000 and 0 < flips < steps


def test_turning_angle_is_the_layouts_angle_bit_for_bit(corpus):
    # One formula: turning_angle on one step runs the computation that fills
    # the layout, so the walk_weight reference and the walk enumerator add
    # the same floats.  The strips also run shifted off the origin, as the
    # benchmark draws them, which changes the rounding of every direction.
    shifted = [
        EmbeddedGraph([(p.x + 417.0, p.y + 861.0) for p in g.vertices], g.edges)
        for g in LATTICE_COLD_STRIPS
    ]
    graphs = corpus + list(LATTICE_COLD_STRIPS) + shifted + [
        make_wheel(k) for k in range(3, 51)
    ]
    steps = 0
    for g in graphs:
        layout = _layout(g)
        csr = loops._csr(g)
        assert csr.src is layout.rows and csr.succ is layout.cols and csr.angle is layout.angle
        one_at_a_time = np.array(
            [turning_angle(g, d, f) for d, f in zip(layout.rows.tolist(), layout.cols.tolist())],
            dtype=np.float64,
        ).reshape(-1)
        assert np.array_equal(one_at_a_time.view(np.uint64), layout.angle.view(np.uint64))
        steps += len(layout.angle)
    assert steps > 70_000


def exact_turn_sign(g, d, f):
    """Sign of the cross product of the directions of d and f, in rationals."""
    from fractions import Fraction

    (ex, ey), (fx, fy) = (map(Fraction, g.direction(s)) for s in (d, f))
    cross = ex * fy - ey * fx
    return (cross > 0) - (cross < 0)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("second_first", [False, True])
def test_a_near_reversal_turns_by_pi_on_its_exact_side(second_first, mirror):
    # From one tied spoke of the hub back out along the other turns by
    # -pi + 1e-17 one way and pi - 1e-17 the other (in the mirror image, the
    # other way round); both round to +-pi in floats.
    g = make_tied_hub(second_first)
    if mirror:
        g = EmbeddedGraph([(-p.x, p.y) for p in g.vertices], g.edges)
    assert partition_function_kw(g) == pytest.approx(partition_function_oracle(g), rel=1e-12)
    layout = _layout(g)
    steps = list(zip(layout.rows.tolist(), layout.cols.tolist()))
    one_at_a_time = np.array([turning_angle(g, d, f) for d, f in steps], dtype=np.float64)
    assert np.array_equal(one_at_a_time.view(np.uint64), layout.angle.view(np.uint64))
    signs = [
        exact_turn_sign(g, d, f)
        for (d, f), angle in zip(steps, layout.angle.tolist())
        if abs(angle) == math.pi
    ]
    assert sorted(signs) == [-1, 1]
    assert sorted(a for a in layout.angle.tolist() if abs(a) == math.pi) == [-math.pi, math.pi]


def test_shared_layout_arrays_are_read_only():
    g = gen_square(2, 2, 0.5)
    tm = build_transition_matrix(g.with_weights([0.25] * g.num_edges))
    assert tm.rows is build_transition_matrix(g).rows
    with pytest.raises(ValueError, match="read-only"):
        tm.rows[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        tm.cols[0] = 1


def test_factored_matrix_is_scipys_coo_to_csc_conversion(monkeypatch, corpus):
    # The stored CSC layout must reproduce what csc_array makes of the COO
    # triplets of I - T, permuted into the drawing's order, bit for bit, so
    # that SuperLU sees the same input: the real gauge's +-x_e when no weight
    # is negative (the corpus), the complex entries otherwise.
    from kacward import transition

    factored = []

    def capture(a):
        factored.append(a)
        return _sparse_slogdet(a)

    monkeypatch.setattr(transition, "_sparse_slogdet", capture)
    rng = np.random.default_rng(17)
    for g in corpus[:40] + [gen_square(5, 4, 0.3), gen_hex(2, 3, 0.3), make_wheel(6)]:
        h = g.with_weights(rng.uniform(-1.0, 1.0, size=g.num_edges))
        for x in (g, h):
            kac_ward_determinant(x)
            tm = build_transition_matrix(x)
            pos = _pattern(x).pos
            assert_is_paired_permutation(pos, tm.size)
            values = None
            if min(x.weights(), default=0.0) >= 0.0:
                sign = np.rint(gauge_product(x).real)
                values = np.asarray(x.weights())[tm.rows >> 1] * sign
            want = i_minus_t(tm, pos, values)
            a = factored.pop()
            assert a.shape == want.shape
            assert np.array_equal(a.indptr, want.indptr)
            assert np.array_equal(a.indices, want.indices)
            assert a.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("L", [32, 64])
def test_the_drawings_order_keeps_the_log_determinant_of_a_colamd_factor(L):
    # The order permutes rows and columns alike, so det(I - T) is unchanged;
    # only the rounding of the factor differs.
    g = ising_to_even_weights(uniform_ising(gen_square(L, L, 0.0), BETA_C)).graph
    r = kac_ward_determinant(g)
    colamd = splu(i_minus_t(build_transition_matrix(g)), permc_spec="COLAMD")
    want = float(np.sum(np.log(np.abs(colamd.U.diagonal()))))
    assert r.log_abs_det == pytest.approx(want, rel=1e-12)
    assert abs(r.phase) <= 1e-9


def test_the_drawings_order_fills_less_than_colamd_on_a_square():
    # A nested dissection of the planar drawing: on the 32 x 32 square the
    # factor holds about 0.57 of COLAMD's nonzeros.
    g = gen_square(32, 32, 0.4)
    tm = build_transition_matrix(g)
    colamd = splu(i_minus_t(tm), permc_spec="COLAMD")
    ours = splu(i_minus_t(tm, _pattern(g).pos), permc_spec="NATURAL")
    assert ours.L.nnz + ours.U.nnz < 0.75 * (colamd.L.nnz + colamd.U.nnz)


def test_the_pattern_is_made_by_the_first_factor_and_shared_by_reweighted_copies():
    from kacward.verify import run_suite

    g = gen_square(2, 2, 0.3)
    run_suite(g, 6)
    assert g._geometry.layout is not None
    assert g._geometry.pattern is None  # verify factors densely, never sparsely
    kac_ward_determinant(g.with_weights([0.2] * g.num_edges))
    pattern = g._geometry.pattern
    assert pattern is not None and _pattern(g) is pattern
    for a in pattern:
        assert not a.flags.writeable


def test_the_order_depends_on_the_drawing_alone():
    # Scaled by a power of two, exactly, a drawing keeps its quantized grid,
    # so its order; the weights play no part.
    g = gen_hex(5, 4, 0.3)
    pos = _pattern(g).pos
    for scale in (4.0, 2.0**-600):
        scaled = EmbeddedGraph([(scale * p.x, scale * p.y) for p in g.vertices], g.edges)
        assert np.array_equal(_pattern(scaled).pos, pos)
    fresh_weights = EmbeddedGraph(g.vertices, [(e.u, e.v, -0.7) for e in g.edges])
    assert np.array_equal(_pattern(fresh_weights).pos, pos)


@pytest.mark.parametrize("scale, shift", ROTATED_SQUARE_SCALES, ids=ROTATED_SQUARE_IDS)
def test_turning_angles_and_the_order_hold_on_huge_and_tiny_drawings(scale, shift):
    g = make_rotated_square(scale, shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, underflow or invalid value
        z = partition_function_kw(g)
        angle = _layout(g).angle
    assert z == pytest.approx(1.3125, rel=1e-13)
    want = _layout(make_rotated_square()).angle
    assert np.allclose(angle, want, rtol=0.0, atol=1e-14)


# -- convergence radius --------------------------------------------------------


def test_radius_hex_patch():
    assert check_convergence_radius(gen_hex(2, 2, 0.4)) is True
    assert check_convergence_radius(gen_hex(2, 2, 0.6)) is False


def test_radius_degree_one_branch():
    assert check_convergence_radius(make_single_edge(weight=100.0)) is True


def test_radius_boundary_is_strict():
    assert check_convergence_radius(make_bowtie(weight=1 / 3)) is False
    assert check_convergence_radius(make_bowtie(weight=0.33)) is True
