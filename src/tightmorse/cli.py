"""Command-line front end: build, betti, morse, tight, check.

Reports are single-line JSON on stdout (``--format text`` for key: value
lines), with fixed key order so a fixed seed reproduces output byte for
byte.  Exit codes: 0 decided or success, 1 usage or input error, 2 budget
exceeded, 3 assertion failure in the sweep.

Each command imports the library modules its own branch runs, so a process
that only computes Betti numbers does not load the geometry, Morse, search
or construction code.  Start-up pays only for the command it runs: the
parsers of the other commands get no arguments, the input digest uses the
builtin SHA-256 module rather than ``hashlib``, and ``fractions`` loads
only for a non-integer number or for the geometry code.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

from . import __version__, formats
from .errors import FormatError, PerfectnessAssertionFailedError, TightMorseError

# the builtin SHA-256, as the standard random module loads it: hashlib loads
# OpenSSL's _hashlib, ten times the import time, for the same digest
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_ASSERTION = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose ``build(parser)``, if given, adds its
    arguments and subcommands the first time it parses or formats usage or
    help: argparse reaches a chosen subcommand's parser only through
    ``parse_known_args``, and prints usage and help through the two format
    methods, so a process builds the parsers of its own command only."""

    def __init__(self, *args, build=None, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts with a minus and a digit, such as the direction
        # "-1,17,-289", is a value: no option here is spelt that way
        self._negative_number_matcher = re.compile(r"^-\.?\d")
        self._build = build

    def _build_once(self) -> None:
        if self._build is not None:
            build, self._build = self._build, None
            build(self)

    def parse_known_args(self, args=None, namespace=None):
        self._build_once()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self._build_once()
        return super().format_usage()

    def format_help(self):
        self._build_once()
        return super().format_help()

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _digest(path: str) -> str:
    return sha256(Path(path).read_bytes()).hexdigest()[:12]


def _parse_vector(text: str):
    return tuple(formats.parse_number(tok) for tok in text.split(","))


def _parse_ints(text: str, count: int) -> tuple[int, ...]:
    values = tuple(formats.parse_int(tok) for tok in text.split(","))
    if len(values) != count:
        raise FormatError(f"expected {count} comma-separated integers, got {text!r}")
    return values


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _report(args, inputs: dict[str, str], result: dict) -> dict:
    report = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "inputs": inputs,
    }
    report.update(result)
    if getattr(args, "timings", False):
        report["elapsed_s"] = round(time.perf_counter() - args._t0, 3)
    return report


def _build_parser() -> _Parser:
    """The root parser and the five command parsers.  The command parsers
    other than betti add their arguments and subcommands when first used."""
    parser = _Parser(prog="tightmorse")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--timings", action="store_true",
                        help="append wall time (breaks byte-identical reports)")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("betti", help="Betti vector of a complex")
    p.add_argument("file")
    sub.add_parser("morse", help="matching validation, vectors, sweep", build=_build_morse)
    sub.add_parser("tight", help="tightness checks", build=_build_tight)
    sub.add_parser("check", help="collapsibility and non-evasiveness", build=_build_check)
    sub.add_parser("build", help="generators for the example complexes", build=_build_build)
    return parser


def _build_morse(pm: _Parser) -> None:
    msub = pm.add_subparsers(dest="morse_command", required=True)
    v = msub.add_parser("validate")
    v.add_argument("complex_file")
    v.add_argument("matching_file")
    v2 = msub.add_parser("vector")
    v2.add_argument("complex_file")
    v2.add_argument("matching_file")
    sw = msub.add_parser("sweep")
    sw.add_argument("geom_file")
    sw.add_argument("--pi", required=True)
    sw.add_argument("--assume-tight", action="store_true")
    sw.add_argument("--out", help="write the matching file here")


def _build_tight(pt: _Parser) -> None:
    tsub = pt.add_subparsers(dest="tight_command", required=True)
    tc = tsub.add_parser("check")
    tc.add_argument("geom_file")
    tc.add_argument("--pi")
    tc.add_argument("--samples", type=_positive_int, default=20)
    tc.add_argument("--seed", type=int, default=0)
    tc.add_argument("--verify-embedding", action="store_true",
                    help="exact facet-pair intersection check first")


def _build_check(pc: _Parser) -> None:
    csub = pc.add_subparsers(dest="check_command", required=True)
    cc = csub.add_parser("collapsible")
    cc.add_argument("file")
    cc.add_argument("--strategy", choices=("greedy", "backtracking"), default="greedy")
    cc.add_argument("--budget", type=_nonnegative_int, default=10**6)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--restarts", type=_positive_int, default=50)
    cn = csub.add_parser("nonevasive")
    cn.add_argument("file")
    cn.add_argument("--budget", type=_nonnegative_int, default=10**6)
    cn.add_argument("--out", help="write the certificate as JSON here")


def _build_build(pb: _Parser) -> None:
    bsub = pb.add_subparsers(dest="build_command", required=True)
    bg = bsub.add_parser("grid")
    bg.add_argument("--n", required=True, help="nx,ny,nz cube counts")
    bg.add_argument("--out", required=True)
    bf = bsub.add_parser("furch")
    bf.add_argument("--n", required=True)
    bf.add_argument("--path", required=True)
    bf.add_argument("--out", required=True)
    bc = bsub.add_parser("cone-sphere")
    bc.add_argument("file")
    bc.add_argument("--out", required=True)
    bw = bsub.add_parser("wedge")
    bw.add_argument("file1")
    bw.add_argument("file2")
    bw.add_argument("--t1", required=True, help="a,b,x boundary triangle of the first ball")
    bw.add_argument("--t2", required=True)
    bw.add_argument("--out", required=True)
    bx = bsub.add_parser("fixture")
    bx.add_argument("name")
    bx.add_argument("--out", required=True)


def _cmd_betti(args) -> tuple[int, dict]:
    from . import homology_z2

    c = formats.read_complex(args.file)
    return EXIT_OK, {
        "betti": list(homology_z2.betti(c)),
        "euler": c.euler_characteristic,
        "reduced": False,
    }


def _cmd_morse(args) -> tuple[int, dict]:
    from . import morse

    if args.morse_command == "sweep":
        from . import algorithms

        g = formats.read_geom(args.geom_file)
        direction = _parse_vector(args.pi)
        matching = algorithms.sweep_perfect_morse(g, direction, assume_tight=args.assume_tight)
        if args.out:
            formats.write_text(args.out, formats.dump_morse(matching))
        # the sweep raises unless its Morse vector is the Betti vector
        mv = list(morse.morse_vector(matching))
        result = {"morse_vector": mv, "betti": mv, "perfect": True}
        if args.out:
            result["out"] = args.out
        return EXIT_OK, result

    c = formats.read_complex(args.complex_file)
    matching = formats.parse_morse(Path(args.matching_file).read_text(), c)
    if args.morse_command == "validate":
        try:
            morse.validate(matching)
            return EXIT_OK, {"valid": True}
        except TightMorseError as exc:
            result = {"valid": False, "error": str(exc)}
            witness = getattr(exc, "witness", None)
            if witness:
                result["witness"] = [list(f) for f in witness]
            return EXIT_OK, result
    morse.validate(matching)
    mv = morse.morse_vector(matching)
    return EXIT_OK, {"morse_vector": list(mv), "critical": sum(mv)}


def _cmd_tight(args) -> tuple[int, dict]:
    from . import geometry

    g = formats.read_geom(args.geom_file)
    if args.verify_embedding:
        geometry.verify_embedding(g)
    if args.pi:
        report = geometry.is_pi_tight(g, _parse_vector(args.pi))
        if any(math.isinf(f.threshold) for f in report.failures):
            return EXIT_USAGE, {"error": "a failing level lies beyond float range"}
        return EXIT_OK, {
            "tight": report.tight,
            "checks": report.checks,
            "failures": [
                {"threshold": f.threshold, "dim": f.dim,
                 "betti_sub": f.betti_sub, "image_rank": f.image_rank}
                for f in report.failures
            ],
        }
    rep = geometry.check_tightness_sampled(g, args.samples, seed=args.seed)
    return EXIT_OK, {
        "samples": rep.samples,
        "passed": rep.passed,
        "fraction": rep.fraction,
        "failed_samples": [idx for idx, _, _ in rep.failures],
    }


def _cmd_check(args) -> tuple[int, dict]:
    from . import algorithms

    c = formats.read_complex(args.file)
    if args.check_command == "collapsible":
        res = algorithms.collapsible(
            c, strategy=args.strategy, budget=args.budget,
            seed=args.seed, restarts=args.restarts,
        )
        result = {"result": res.status}
        if res.reason:
            result["reason"] = res.reason
        if res.sequence is not None:
            result["steps"] = len(res.sequence)
        return (EXIT_BUDGET if res.status == "budget" else EXIT_OK), result

    res = algorithms.nonevasive(c, budget=args.budget)
    result = {"result": res.status}
    if res.reason:
        result["reason"] = res.reason
    if res.certificate is not None:
        result["certificate_size"] = res.certificate.size
        if args.out:
            # the text json.dumps gives nested objects with keys vertex, link and deletion
            cert = res.certificate._render('{{"vertex": {0.vertex}, "link": ', ', "deletion": ', "}", "null")
            Path(args.out).write_text(cert)
            result["out"] = args.out
    return (EXIT_BUDGET if res.status == "budget" else EXIT_OK), result


def _cmd_build(args) -> tuple[int, dict]:
    from . import constructions

    if args.build_command == "grid":
        nx, ny, nz = _parse_ints(args.n, 3)
        g = constructions.grid_ball(nx, ny, nz)
        formats.write_text(args.out, formats.dump_geom(g))
        return EXIT_OK, {"f_vector": list(g.complex.f_vector), "out": args.out}
    if args.build_command == "furch":
        nx, ny, nz = _parse_ints(args.n, 3)
        path = formats.read_path_file(args.path)
        ball = constructions.furch_ball(nx, ny, nz, path)
        formats.write_text(args.out, formats.dump_geom(ball.realization))
        return EXIT_OK, {
            "f_vector": list(ball.realization.complex.f_vector),
            "betti": list(constructions.BALL_BETTI),
            "spanning_edge": list(ball.spanning_edge),
            "out": args.out,
        }
    if args.build_command == "cone-sphere":
        ball = formats.read_complex(args.file)
        cs = constructions.cone_sphere(ball)
        formats.write_text(args.out, formats.dump_facets(cs.complex))
        return EXIT_OK, {
            "f_vector": list(cs.complex.f_vector),
            "betti": list(constructions.SPHERE_BETTI),
            "apex": cs.apex,
            "out": args.out,
        }
    if args.build_command == "wedge":
        b1 = formats.read_complex(args.file1)
        b2 = formats.read_complex(args.file2)
        t1, t2 = _parse_ints(args.t1, 3), _parse_ints(args.t2, 3)
        w = constructions.wedge_thicken(b1, b2, t1, t2)
        formats.write_text(args.out, formats.dump_facets(w.complex))
        return EXIT_OK, {
            "f_vector": list(w.complex.f_vector),
            "apex": w.apex,
            "wedge_point": w.wedge_point,
            "out": args.out,
        }
    # fixtures; abstract ones are written as facets files
    name = args.name
    abstract = {"checkerboard": constructions.checkerboard, "dunce_hat": constructions.dunce_hat}
    if name in abstract:
        c = abstract[name]()
        formats.write_text(args.out, formats.dump_facets(c))
        return EXIT_OK, {"f_vector": list(c.f_vector), "out": args.out}
    if name == "trefoil_path":
        path, box = constructions.trefoil_path()
        formats.write_text(args.out, formats.dump_path(path))
        return EXIT_OK, {"steps": len(path) - 1, "box": list(box), "out": args.out}
    g = constructions.convex_fixture(name)
    formats.write_text(args.out, formats.dump_geom(g))
    return EXIT_OK, {"f_vector": list(g.complex.f_vector), "out": args.out}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    handlers = {
        "betti": _cmd_betti,
        "morse": _cmd_morse,
        "tight": _cmd_tight,
        "check": _cmd_check,
        "build": _cmd_build,
    }
    handler = handlers[args.command]
    # digested before the handler runs, which may overwrite an input (--out)
    inputs = {}
    for attr in ("file", "geom_file", "complex_file", "matching_file", "file1", "file2", "path"):
        value = getattr(args, attr, None)
        if value and Path(str(value)).is_file():
            inputs[str(value)] = _digest(str(value))
    try:
        code, result = handler(args)
    except PerfectnessAssertionFailedError as exc:
        report = _report(args, inputs, {
            "error": "perfectness assertion failed",
            "morse_vector": list(exc.morse_vector),
            "betti": list(exc.betti_vector),
        })
        _emit(report, args.format)
        return EXIT_ASSERTION
    except (TightMorseError, OSError) as exc:
        report = _report(args, inputs, {"error": f"{type(exc).__name__}: {exc}"})
        _emit(report, args.format)
        return EXIT_USAGE
    report = _report(args, inputs, result)
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
