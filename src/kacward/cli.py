"""Command-line front-end.

Exit codes: 0 success, 2 parse/parameter error, 3 invalid embedding,
4 numerical failure, 5 verification check failed.  Numbers are printed
with 15 significant digits in scientific notation; log values accompany
linear values everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .decoration import decorate
from .errors import GraphFormatError, InvalidEmbeddingError, NumericalError
from .graph import dumps_graph, load_graph, require_valid_embedding
from .lattices import IsingInstance, gen_hex, gen_square, ising_partition_kw
from .transition import kac_ward_determinant, partition_function_kw
from .verify import run_suite

DEFAULT_MAX_LOOP_LEN = 12
ENV_MAX_LOOP_LEN = "KACWARD_MAX_LOOP_LEN"


def _fmt(value: float) -> str:
    if value == 0:
        value = 0.0  # normalize -0.0 for stable output
    return format(value, ".14e")


def _fail(kind: str, message: str) -> None:
    print(f"kacward: error[{kind}]: {message}", file=sys.stderr)


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_z(args) -> int:
    g = load_graph(args.file)
    require_valid_embedding(g)
    r = kac_ward_determinant(g)
    z = partition_function_kw(r)
    print(f"Z = {_fmt(z)}")
    print(f"log_Z = {_fmt(0.5 * r.log_abs_det)}")
    return 0


def _cmd_det(args) -> int:
    g = load_graph(args.file)
    require_valid_embedding(g)
    r = kac_ward_determinant(g)
    print(f"det_re = {_fmt(r.det.real)}")
    print(f"det_im = {_fmt(r.det.imag)}")
    print(f"log_abs_det = {_fmt(r.log_abs_det)}")
    print(f"phase = {_fmt(r.phase)}")
    return 0


def _cmd_ising(args) -> int:
    g = load_graph(args.file)
    require_valid_embedding(g)
    if args.coupling is not None:
        couplings = (args.coupling,) * g.num_edges
    else:
        couplings = g.weights()
    try:
        inst = IsingInstance(graph=g, beta=args.beta, couplings=couplings)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    z, log_z = ising_partition_kw(inst)
    print(f"Z_ising = {_fmt(z)}")
    print(f"log_Z_ising = {_fmt(log_z)}")
    return 0


def _cmd_gen(args) -> int:
    if args.lattice == "square":
        g = gen_square(args.width, args.height, args.weight)
    else:
        g = gen_hex(args.height, args.width, args.weight)
    _write_output(dumps_graph(g), args.output)
    return 0


def _cmd_decorate(args) -> int:
    g = load_graph(args.file)
    require_valid_embedding(g)
    dec = decorate(g)
    _write_output(dumps_graph(dec.decorated), args.output)
    sidecar = {
        "edge_map": list(dec.edge_map),
        "unit_edges": list(dec.unit_edges),
    }
    if args.output is not None and args.output != "-":
        with open(args.output + ".edgemap.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(sidecar, indent=2) + "\n")
    else:
        print(json.dumps(sidecar), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    g = load_graph(args.file)
    require_valid_embedding(g)
    max_len = args.max_loop_len
    if max_len is None:
        max_len = int(os.environ.get(ENV_MAX_LOOP_LEN, DEFAULT_MAX_LOOP_LEN))
    results = run_suite(g, max_len, corrupt_transition=args.corrupt_transition)
    print(f"graph: {g.num_vertices} vertices, {g.num_edges} edges")
    print(f"max loop length: {max_len}")
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {r.status:<4}  {r.detail}")
    failures = [r for r in results if r.passed is False]
    if failures:
        first = failures[0]
        _fail("verify", f"{first.name}: {first.detail}")
        return 5
    print("result: all checks passed")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacward",
        description=(
            "Exact even-subgraph generating functions and planar Ising "
            "partition functions via the Kac-Ward determinant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("z", help="partition function of a graph file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_z)

    p = sub.add_parser("det", help="determinant of (I - transition matrix)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("ising", help="Ising partition function of a graph file")
    p.add_argument("file")
    p.add_argument("--beta", type=float, required=True, help="inverse temperature")
    p.add_argument(
        "--coupling",
        type=float,
        default=None,
        help="uniform coupling J (default: per-edge weights from the file)",
    )
    p.set_defaults(func=_cmd_ising)

    p = sub.add_parser("gen", help="generate a lattice patch")
    p.add_argument("lattice", choices=["square", "hex"])
    p.add_argument("--width", type=_positive_int, required=True)
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--weight", type=float, default=0.5)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decorate", help="rewrite to an equivalent trivalent graph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_decorate)

    p = sub.add_parser("verify", help="run the identity checks on a graph file")
    p.add_argument("file")
    p.add_argument(
        "--max-loop-len",
        type=_positive_int,
        default=None,
        help=f"enumeration length cap (default {DEFAULT_MAX_LOOP_LEN}, "
        f"or ${ENV_MAX_LOOP_LEN})",
    )
    p.add_argument(
        "--corrupt-transition",
        action="store_true",
        help=argparse.SUPPRESS,  # test hook: inject a fault, must fail
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        _fail("parse", str(exc))
        return 2
    except InvalidEmbeddingError as exc:
        _fail("embedding", str(exc))
        return 3
    except NumericalError as exc:
        _fail("numeric", str(exc))
        return 4
    except ValueError as exc:
        _fail("parse", str(exc))
        return 2
    except OSError as exc:
        _fail("parse", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
