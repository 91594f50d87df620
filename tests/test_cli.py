"""Command-line behavior: golden outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kacward

from kacward import (
    EmbeddedGraph,
    NumericalError,
    decorate,
    dump_graph,
    dumps_graph,
    gen_hex,
    gen_square,
    ising_partition_spin_sum,
    kac_ward_determinant,
    load_graph,
    loads_graph,
    partition_function_kw,
    partition_function_oracle,
)
from kacward.cli import main
from conftest import (
    ROTATED_SQUARE_IDS,
    ROTATED_SQUARE_SCALES,
    make_bowtie,
    make_huge_wheel,
    make_path3,
    make_rotated_square,
    make_single_edge,
    make_square_with_diagonal,
    make_triangle,
    make_wheel,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    dump_graph(make_triangle(0.5), path)
    return str(path)


@pytest.fixture
def bowtie_file(tmp_path):
    path = tmp_path / "bowtie.json"
    dump_graph(make_bowtie(0.25), path)
    return str(path)


@pytest.fixture
def crossing_file(tmp_path):
    path = tmp_path / "crossing.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [[0, 0], [2, 0], [1, -1], [1, 1]],
                "edges": [[0, 1, 0.5], [2, 3, 0.5]],
            }
        )
    )
    return str(path)


# -- z -----------------------------------------------------------------------


def test_z_triangle(capsys, triangle_file):
    code, out, err = run(capsys, "z", triangle_file)
    assert code == 0
    assert err == ""
    # Exact: Z = 1.125, and the formatter prints 15 significant digits.
    z = partition_function_kw(make_triangle(0.5))
    r = kac_ward_determinant(make_triangle(0.5))
    assert out == (
        f"Z = {z:.14e}\n"
        f"log_Z = {0.5 * r.log_abs_det:.14e}\n"
    )
    assert out.startswith("Z = 1.125000000")
    assert abs(z - partition_function_oracle(make_triangle(0.5))) < 1e-12


@pytest.mark.parametrize("command", ["z", "det"])
def test_z_and_det_factor_once(capsys, bowtie_file, factor_calls, command):
    code, _, _ = run(capsys, command, bowtie_file)
    assert code == 0
    assert factor_calls == [(12, 12)]


def test_z_tree_is_one(capsys, tmp_path):
    path = tmp_path / "tree.json"
    dump_graph(make_path3(), path)
    code, out, _ = run(capsys, "z", str(path))
    assert code == 0
    assert out == "Z = 1.00000000000000e+00\nlog_Z = 0.00000000000000e+00\n"


@pytest.mark.parametrize("scale, shift", ROTATED_SQUARE_SCALES, ids=ROTATED_SQUARE_IDS)
def test_z_of_a_huge_or_tiny_drawing_is_that_of_the_drawing_at_unit_scale(
    capsys, tmp_path, scale, shift
):
    # Z = 1 + 2 x^3 + x^4 = 1.3125 at every scale, with nothing on stderr.
    path = tmp_path / "square.json"
    dump_graph(make_rotated_square(scale, shift), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code, out, err = run(capsys, "z", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("Z = 1.31250000000000e+00\n")


def test_z_crossing_exits_3(capsys, crossing_file):
    code, out, err = run(capsys, "z", crossing_file)
    assert code == 3
    assert out == ""
    assert err.startswith("kacward: error[embedding]:")
    assert "\n" not in err.strip()


def test_z_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0,0]], "edges": [], "junk": true}')
    code, _, err = run(capsys, "z", str(path))
    assert code == 2
    assert err.startswith("kacward: error[parse]:")


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"vertices": [[0, 0], [%s, 0]], "edges": [[0, 1, 0.5]]}', "vertex 1 x"),
        ('{"vertices": [[0, 0], [1, 0]], "edges": [[0, 1, %s]]}', "edge 0 weight"),
    ],
    ids=["coordinate", "weight"],
)
def test_z_integer_beyond_the_float_range_exits_2(capsys, tmp_path, text, named):
    path = tmp_path / "huge.json"
    path.write_text(text % ("1" + "0" * 400))
    code, out, err = run(capsys, "z", str(path))
    assert (code, out) == (2, "")
    assert err == f"kacward: error[parse]: {named} is an integer beyond the float range\n"


def test_z_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "z", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("kacward: error[parse]:")


def test_z_numerical_failure_exits_4(capsys, triangle_file, monkeypatch):
    # A valid embedding cannot produce a non-real determinant, so the
    # numerical-error path is exercised by injecting the failure.
    import kacward.cli as cli_mod

    def boom(_):
        raise NumericalError("determinant not real-nonnegative (injected)")

    monkeypatch.setattr(cli_mod, "partition_function_kw", boom)
    code, _, err = run(capsys, "z", triangle_file)
    assert code == 4
    assert err.startswith("kacward: error[numeric]:")


def test_z_deterministic(capsys, bowtie_file):
    code1, out1, _ = run(capsys, "z", bowtie_file)
    code2, out2, _ = run(capsys, "z", bowtie_file)
    assert code1 == code2 == 0
    assert out1 == out2


# -- det ------------------------------------------------------------------------


def test_det_output(capsys, triangle_file):
    code, out, _ = run(capsys, "det", triangle_file)
    assert code == 0
    r = kac_ward_determinant(make_triangle(0.5))
    assert out == (
        f"det_re = {r.det.real:.14e}\n"
        f"det_im = {r.det.imag:.14e}\n"
        f"log_abs_det = {r.log_abs_det:.14e}\n"
        f"phase = {r.phase:.14e}\n"
    )


# -- ising ------------------------------------------------------------------------


def test_ising_single_edge(capsys, tmp_path):
    single = tmp_path / "single.json"
    single.write_text(
        '{"vertices": [[0.0, 0.0], [1.0, 0.0]], "edges": [[0, 1, 1.0]]}'
    )
    code, out, _ = run(capsys, "ising", str(single), "--beta", "1")
    assert code == 0
    value = float(out.splitlines()[0].split(" = ")[1])
    assert value == pytest.approx(6.172323, abs=1e-6)


def test_ising_beta_zero_counts_states(capsys, bowtie_file):
    code, out, _ = run(capsys, "ising", bowtie_file, "--beta", "0")
    assert code == 0
    value = float(out.splitlines()[0].split(" = ")[1])
    assert value == pytest.approx(2.0**5, rel=1e-12)


def test_ising_uniform_coupling_flag(capsys, triangle_file):
    code, out, _ = run(
        capsys, "ising", triangle_file, "--beta", "0.6", "--coupling", "1.0"
    )
    assert code == 0
    z = float(out.splitlines()[0].split(" = ")[1])
    spin = ising_partition_spin_sum(make_triangle(), 0.6, [1.0] * 3)
    assert z == pytest.approx(spin, rel=1e-9)


def test_ising_couplings_from_file_weights(capsys, tmp_path):
    g = make_triangle(weights=[0.5, -0.8, 1.2])
    path = tmp_path / "j.json"
    dump_graph(g, path)
    code, out, _ = run(capsys, "ising", str(path), "--beta", "0.9")
    assert code == 0
    z = float(out.splitlines()[0].split(" = ")[1])
    spin = ising_partition_spin_sum(g, 0.9, [0.5, -0.8, 1.2])
    assert z == pytest.approx(spin, rel=1e-9)


def test_ising_large_lattice_log_finite(capsys, tmp_path):
    path = tmp_path / "big.json"
    dump_graph(gen_square(8, 8, 1.0), path)
    code, out, _ = run(capsys, "ising", str(path), "--beta", "1", "--coupling", "1")
    assert code == 0
    log_line = out.splitlines()[1]
    value = float(log_line.split(" = ")[1])
    assert math.isfinite(value)


def test_ising_overflowing_beta_times_coupling_answers_inf_without_a_warning(capsys, tmp_path):
    # beta * J = 1e616 overflows, and log Z, about beta * J, is inf in
    # doubles: that is the answer, printed with exit 0 and nothing on stderr.
    path = tmp_path / "edge.json"
    dump_graph(make_single_edge(), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code, out, err = run(capsys, "ising", str(path), "--beta", "1e308", "--coupling", "1e308")
    assert (code, err) == (0, "")
    assert out == "Z_ising = inf\nlog_Z_ising = inf\n"


def test_ising_refuses_a_cancelled_determinant(capsys, tmp_path):
    # Mixed-sign couplings at beta 25: the high-temperature sum cancels below
    # double precision, so no Z or log Z is printed.
    g = gen_square(4, 3, 0.0)
    weights = np.random.default_rng(0).uniform(-1, 1.5, g.num_edges)
    path = tmp_path / "mixed.json"
    dump_graph(g.with_weights(weights), path)
    code, out, err = run(capsys, "ising", str(path), "--beta", "25")
    assert (code, out) == (4, "")
    assert err.startswith("kacward: error[numeric]: determinant not real-positive (phase ")
    code, out, _ = run(capsys, "ising", str(path), "--beta", "1")
    assert code == 0 and out.startswith("Z_ising = ")


# -- gen --------------------------------------------------------------------------


GOLDEN_SQUARE_1X1 = """{
  "vertices": [
    [0.0, 0.0],
    [1.0, 0.0],
    [0.0, 1.0],
    [1.0, 1.0]
  ],
  "edges": [
    [0, 1, 0.5],
    [2, 3, 0.5],
    [0, 2, 0.5],
    [1, 3, 0.5]
  ]
}
"""

GOLDEN_HEX_1X1 = """{
  "vertices": [
    [0.0, 0.0],
    [1.0, 0.0],
    [2.0, 0.0],
    [0.0, 1.0],
    [1.0, 1.0],
    [2.0, 1.0]
  ],
  "edges": [
    [0, 1, 0.5],
    [0, 3, 0.5],
    [1, 2, 0.5],
    [2, 5, 0.5],
    [3, 4, 0.5],
    [4, 5, 0.5]
  ]
}
"""


def test_gen_square_golden(capsys):
    code, out, _ = run(capsys, "gen", "square", "--width", "1", "--height", "1")
    assert code == 0
    assert out == GOLDEN_SQUARE_1X1


def test_gen_hex_golden(capsys):
    code, out, _ = run(capsys, "gen", "hex", "--width", "1", "--height", "1")
    assert code == 0
    assert out == GOLDEN_HEX_1X1


def test_gen_writes_file_and_round_trips(capsys, tmp_path):
    out_path = tmp_path / "lat.json"
    code, out, _ = run(
        capsys,
        "gen", "hex", "--width", "2", "--height", "2", "--weight", "0.4",
        "-o", str(out_path),
    )
    assert code == 0
    assert out == ""
    g = load_graph(out_path)
    assert g == gen_hex(2, 2, 0.4)


def test_gen_then_z_bit_identical(capsys, tmp_path):
    # Computing through the file equals computing in process, bit for bit.
    out_path = tmp_path / "lat.json"
    run(capsys, "gen", "square", "--width", "3", "--height", "2",
        "--weight", "0.3", "-o", str(out_path))
    code, out, _ = run(capsys, "z", str(out_path))
    assert code == 0
    z = partition_function_kw(gen_square(3, 2, 0.3))
    assert out.splitlines()[0] == f"Z = {z:.14e}"


def test_gen_bad_parameters_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "square", "--width", "0", "--height", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- decorate ----------------------------------------------------------------------


def test_decorate_trivalent_input_is_byte_identical(capsys, triangle_file):
    code, out, _ = run(capsys, "decorate", triangle_file)
    assert code == 0
    assert out == dumps_graph(make_triangle(0.5))
    with open(triangle_file, "r", encoding="utf-8") as fh:
        assert out == fh.read()


def test_decorate_bowtie(capsys, bowtie_file, tmp_path):
    out_path = tmp_path / "dec.json"
    code, out, _ = run(capsys, "decorate", bowtie_file, "-o", str(out_path))
    assert code == 0
    g = load_graph(out_path)
    assert g.num_vertices == 8
    assert g.num_edges == 9
    sidecar = json.loads((tmp_path / "dec.json.edgemap.json").read_text())
    assert sidecar["edge_map"] == list(decorate(make_bowtie(0.25)).edge_map)
    assert len(sidecar["unit_edges"]) == 3


def test_decorate_preserves_z(capsys, bowtie_file, tmp_path):
    out_path = tmp_path / "dec.json"
    run(capsys, "decorate", bowtie_file, "-o", str(out_path))
    code1, out1, _ = run(capsys, "z", bowtie_file)
    code2, out2, _ = run(capsys, "z", str(out_path))
    assert code1 == code2 == 0
    z1 = float(out1.splitlines()[0].split(" = ")[1])
    z2 = float(out2.splitlines()[0].split(" = ")[1])
    assert z1 == pytest.approx(z2, rel=1e-9)


def test_decorate_wheel_center(capsys, tmp_path):
    from conftest import make_wheel

    path = tmp_path / "wheel.json"
    dump_graph(make_wheel(6, weight=0.3), path)
    out_path = tmp_path / "wheel_dec.json"
    code, _, _ = run(capsys, "decorate", str(path), "-o", str(out_path))
    assert code == 0
    from kacward import max_degree

    assert max_degree(load_graph(out_path)) <= 3


def test_decorate_a_wheel_drawn_near_the_float_limit(capsys, tmp_path):
    path = tmp_path / "wheel.json"
    dump_graph(make_huge_wheel(), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code, out, err = run(capsys, "decorate", str(path))
    assert code == 0
    assert err == '{"edge_map": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "unit_edges": [10, 11, 12, 13]}\n'
    assert all(map(math.isfinite, (c for p in loads_graph(out).vertices for c in (p.x, p.y))))


# -- verify -------------------------------------------------------------------------


def test_verify_triangle_passes(capsys, triangle_file):
    code, out, err = run(capsys, "verify", triangle_file, "--max-loop-len", "10")
    assert code == 0
    assert err == ""
    assert "result: all checks passed" in out
    for name in (
        "kw-vs-oracle",
        "weight-properties",
        "specific-cancellation",
        "generic-cancellation",
        "trace-identity",
    ):
        assert name in out
    assert "decoration" in out and "skip" in out


def test_verify_bowtie_passes_with_decoration(capsys, bowtie_file):
    code, out, err = run(capsys, "verify", bowtie_file, "--max-loop-len", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("decoration")]
    assert lines and "pass" in lines[0]


def test_verify_deterministic(capsys, bowtie_file):
    _, out1, _ = run(capsys, "verify", bowtie_file, "--max-loop-len", "8")
    _, out2, _ = run(capsys, "verify", bowtie_file, "--max-loop-len", "8")
    assert out1 == out2


GOLDEN_VERIFY_BOWTIE_10 = """\
graph: 5 vertices, 6 edges
max loop length: 10
kw-vs-oracle           pass  |det - Z^2| = 5.761e-19 (tol 1.015e-09)
weight-properties      pass  walk/loop lengths up to 10
specific-cancellation  pass  0 (edge, length) classes
generic-cancellation   pass  worst gap = 1.564e-10 (edge 0)
trace-identity         pass  lengths 1..8, worst diff = 6.969e-18
decoration             pass  |Z - Z_decorated| = 0.000e+00 (tol 1.007e-12)
result: all checks passed
"""

GOLDEN_VERIFY_WHEEL_7 = """\
graph: 7 vertices, 12 edges
max loop length: 7
kw-vs-oracle           pass  |det - Z^2| = 6.661e-16 (tol 1.048e-09)
weight-properties      pass  walk/loop lengths up to 7
specific-cancellation  pass  0 (edge, length) classes
generic-cancellation   pass  worst gap = 1.647e-06 (edge 12)
trace-identity         pass  lengths 1..7, worst diff = 8.327e-17
decoration             pass  |Z - Z_decorated| = 0.000e+00 (tol 1.024e-12)
result: all checks passed
"""


@pytest.mark.parametrize(
    "graph, length, golden",
    [
        (make_bowtie(weights=[0.1, 0.25, 0.2, 0.3, 0.15, 0.05]), 10, GOLDEN_VERIFY_BOWTIE_10),
        (make_wheel(6, 0.15), 7, GOLDEN_VERIFY_WHEEL_7),
    ],
    ids=["bowtie-10", "wheel-7"],
)
def test_verify_golden(capsys, tmp_path, graph, length, golden):
    # The figures in the details are sums of loop weights in enumeration
    # order, so a change in how walks are weighed or ordered shows here.
    path = tmp_path / "graph.json"
    dump_graph(graph, path)
    code, out, err = run(capsys, "verify", str(path), "--max-loop-len", str(length))
    assert (code, out, err) == (0, golden, "")


def test_verify_corrupted_transition_fails(capsys, triangle_file):
    code, out, err = run(
        capsys, "verify", triangle_file, "--corrupt-transition",
        "--max-loop-len", "8",
    )
    assert code == 5
    assert "FAIL" in out
    assert err.startswith("kacward: error[verify]: kw-vs-oracle")


@pytest.mark.parametrize(
    "make",
    [lambda: EmbeddedGraph([(0.0, 0.0)], []), make_single_edge, make_path3, make_bowtie],
    ids=["single-vertex", "single-edge", "path", "bowtie"],
)
def test_verify_corrupted_transition_fails_on_every_graph(capsys, tmp_path, make):
    # A forest's T is nilpotent, so det(I - T) = 1 whatever its entries, and
    # a graph without edges has an empty T; the fault must change the
    # determinant all the same.
    path = tmp_path / "graph.json"
    dump_graph(make(), path)
    code, out, err = run(capsys, "verify", str(path), "--max-loop-len", "4")
    assert (code, err) == (0, "")
    code, out, err = run(
        capsys, "verify", str(path), "--corrupt-transition", "--max-loop-len", "4"
    )
    assert code == 5
    assert "kw-vs-oracle" in out and "FAIL" in out
    assert err.startswith("kacward: error[verify]: kw-vs-oracle")


def test_verify_fails_where_the_determinant_overflows(capsys, tmp_path):
    # The unit square with its diagonal at weights 1e200: det(I - T) and Z^2
    # are inf, which is no agreement; ``z`` refuses the same file with exit 4.
    path = tmp_path / "graph.json"
    dump_graph(make_square_with_diagonal(1e200), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code, out, err = run(capsys, "verify", str(path), "--max-loop-len", "6")
    assert code == 5
    assert "kw-vs-oracle           FAIL  |det - Z^2| = inf (tol inf)\n" in out
    assert err == "kacward: error[verify]: kw-vs-oracle: |det - Z^2| = inf (tol inf)\n"
    assert run(capsys, "z", str(path))[0] == 4


def test_verify_env_var_sets_default_length(capsys, triangle_file, monkeypatch):
    monkeypatch.setenv("KACWARD_MAX_LOOP_LEN", "6")
    code, out, _ = run(capsys, "verify", triangle_file)
    assert code == 0
    assert "max loop length: 6" in out
    monkeypatch.delenv("KACWARD_MAX_LOOP_LEN")
    code, out, _ = run(capsys, "verify", triangle_file, "--max-loop-len", "7")
    assert "max loop length: 7" in out


def test_verify_flag_overrides_env(capsys, triangle_file, monkeypatch):
    monkeypatch.setenv("KACWARD_MAX_LOOP_LEN", "6")
    code, out, _ = run(capsys, "verify", triangle_file, "--max-loop-len", "9")
    assert code == 0
    assert "max loop length: 9" in out


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_verify_rejects_a_bad_env_length(capsys, triangle_file, monkeypatch, value):
    monkeypatch.setenv("KACWARD_MAX_LOOP_LEN", value)
    with pytest.raises(SystemExit) as exc:
        main(["verify", triangle_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-loop-len" in captured.err


def test_verify_rejects_a_zero_length_flag(capsys, triangle_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", triangle_file, "--max-loop-len", "0"])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag, env", [("17", None), (None, "20")])
def test_verify_rejects_a_length_over_the_cap(capsys, triangle_file, monkeypatch, flag, env):
    # The walk count grows exponentially with the length; a length over the
    # cap is refused before any enumeration starts.
    if env is not None:
        monkeypatch.setenv("KACWARD_MAX_LOOP_LEN", env)
    argv = ["verify", triangle_file] + (["--max-loop-len", flag] if flag else [])
    code, out, err = run(capsys, *argv)
    length = flag or env
    assert (code, out) == (2, "")
    assert err == f"kacward: error[parse]: enumeration length {length} exceeds cap 16\n"


def test_verify_refuses_a_cycle_space_over_the_oracle_cap(capsys, tmp_path, monkeypatch):
    # The oracle's Z sums 2^(cycle dimension) subgraphs; a 6x6 patch
    # (dimension 36) is refused before any walk is enumerated.
    def unreachable(*args, **kwargs):
        raise AssertionError("walk enumeration started")

    monkeypatch.setattr(kacward.verify, "_csr", unreachable)
    path = tmp_path / "square.json"
    dump_graph(gen_square(6, 6, 0.3), path)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == "kacward: error[parse]: cycle space too large: dimension 36 exceeds cap 30\n"


def test_verify_flag_overrides_a_bad_env_value(capsys, triangle_file, monkeypatch):
    monkeypatch.setenv("KACWARD_MAX_LOOP_LEN", "0")
    code, out, _ = run(capsys, "verify", triangle_file, "--max-loop-len", "5")
    assert code == 0
    assert "max loop length: 5" in out


def test_verify_outside_radius_skips_generic_check(capsys, tmp_path):
    # Heavy weights put the graph outside the convergence radius; the
    # factorization identity cannot be truncation-tested there, so that
    # check is reported as skipped rather than failed.
    path = tmp_path / "heavy.json"
    dump_graph(make_bowtie(0.9), path)
    code, out, err = run(capsys, "verify", str(path), "--max-loop-len", "8")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("generic-cancellation")]
    assert line and "skip" in line[0]


def test_import_and_verify_leave_scipy_unloaded(bowtie_file):
    # scipy is imported by the first factorization only; importing the
    # package and running verify must not pay for it.
    script = (
        "import contextlib, io, sys\n"
        "import kacward, kacward.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = kacward.cli.main(['verify', {bowtie_file!r}, '--max-loop-len', '6'])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(kacward.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


# -- validation --------------------------------------------------------------------


@pytest.fixture
def validated(monkeypatch):
    """Graphs whose drawing ``kacward.graph.validate_embedding`` validates
    during the test; a repeat call only reads the verdict in the geometry
    record, and is not listed."""
    from kacward import graph

    real = graph.validate_embedding
    calls = []

    def counting(g):
        if g._geometry.violations is None:
            calls.append(g)
        return real(g)

    monkeypatch.setattr(graph, "validate_embedding", counting)
    return calls


QUERIES = [["z"], ["det"], ["ising", "--beta", "0.3"], ["decorate"]]


@pytest.mark.parametrize("query", QUERIES)
def test_each_query_validates_once(capsys, triangle_file, validated, query):
    code, _, _ = run(capsys, query[0], triangle_file, *query[1:])
    assert code == 0
    assert len(validated) == 1


def test_decorate_validates_input_and_output_once_each(capsys, bowtie_file, validated):
    from kacward import max_degree

    code, _, _ = run(capsys, "decorate", bowtie_file)
    assert code == 0
    assert len(validated) == 2
    assert validated[0].vertices == load_graph(bowtie_file).vertices
    assert max_degree(validated[1]) == 3


def test_verify_validates_the_graph_once(capsys, tmp_path, bowtie_file, validated):
    # A degree-3 graph has no decoration to validate; the bowtie's is
    # validated once more, where it is built.
    path = tmp_path / "hex.json"
    dump_graph(gen_hex(2, 2, 0.3), path)
    code, _, _ = run(capsys, "verify", str(path), "--max-loop-len", "6")
    assert code == 0
    assert [g.vertices for g in validated] == [load_graph(path).vertices]
    validated.clear()
    code, _, _ = run(capsys, "verify", bowtie_file, "--max-loop-len", "6")
    assert code == 0
    assert len(validated) == 2
    assert validated[0].vertices == load_graph(bowtie_file).vertices


def test_verify_refuses_a_bad_drawing_before_a_bad_length(capsys, crossing_file):
    code, out, err = run(capsys, "verify", crossing_file, "--max-loop-len", "17")
    assert (code, out) == (3, "")
    assert err.startswith("kacward: error[embedding]: invalid embedding:")


@pytest.mark.parametrize("query", QUERIES + [["verify"]])
def test_crossing_exits_3_on_every_command(capsys, crossing_file, query):
    code, out, err = run(capsys, query[0], crossing_file, *query[1:])
    assert code == 3
    assert out == ""
    assert err == (
        "kacward: error[embedding]: invalid embedding: 1 violation(s), "
        "first: crossing on edges (0, 1)\n"
    )


def test_ising_reports_a_bad_parameter_before_a_bad_drawing(capsys, crossing_file):
    code, _, err = run(capsys, "ising", crossing_file, "--beta", "nan")
    assert code == 2
    assert err == "kacward: error[parse]: beta must be finite\n"


# -- dispatch ------------------------------------------------------------------------


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
