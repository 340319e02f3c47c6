"""Command-line front end: build, betti, morse, tight, check.

Reports are single-line JSON on stdout (``--format text`` for key: value
lines), with fixed key order so a fixed seed reproduces output byte for
byte.  Exit codes: 0 decided or success, 1 usage or input error, 2 budget
exceeded, 3 assertion failure in the sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from . import algorithms, constructions, formats, geometry, homology_z2, morse
from .errors import PerfectnessAssertionFailedError, TightMorseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_ASSERTION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _parse_vector(text: str):
    return tuple(formats.parse_number(tok) for tok in text.split(","))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _report(args, inputs: list[str], result: dict) -> dict:
    report = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "inputs": {p: _digest(p) for p in inputs},
    }
    report.update(result)
    if getattr(args, "timings", False):
        report["elapsed_s"] = round(time.perf_counter() - args._t0, 3)
    return report


def _build_parser() -> _Parser:
    parser = _Parser(prog="tightmorse")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--timings", action="store_true",
                        help="append wall time (breaks byte-identical reports)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="Betti vector of a complex")
    p.add_argument("file")

    pm = sub.add_parser("morse", help="matching validation, vectors, sweep")
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

    pt = sub.add_parser("tight", help="tightness checks")
    tsub = pt.add_subparsers(dest="tight_command", required=True)
    tc = tsub.add_parser("check")
    tc.add_argument("geom_file")
    tc.add_argument("--pi")
    tc.add_argument("--samples", type=int)
    tc.add_argument("--seed", type=int, default=0)
    tc.add_argument("--verify-embedding", action="store_true",
                    help="exact facet-pair intersection check first")

    pc = sub.add_parser("check", help="collapsibility and non-evasiveness")
    csub = pc.add_subparsers(dest="check_command", required=True)
    cc = csub.add_parser("collapsible")
    cc.add_argument("file")
    cc.add_argument("--strategy", choices=("greedy", "backtracking"), default="greedy")
    cc.add_argument("--budget", type=int, default=10**6)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--restarts", type=int, default=50)
    cn = csub.add_parser("nonevasive")
    cn.add_argument("file")
    cn.add_argument("--budget", type=int, default=10**6)
    cn.add_argument("--out", help="write the certificate as JSON here")

    pb = sub.add_parser("build", help="generators for the example complexes")
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
    return parser


def _cert_to_json(cert):
    if cert is None:
        return None
    return {
        "vertex": cert.vertex,
        "link": _cert_to_json(cert.link_cert),
        "deletion": _cert_to_json(cert.deletion_cert),
    }


def _cmd_betti(args) -> tuple[int, dict]:
    c = formats.read_complex(args.file)
    b = homology_z2.betti(c)
    return EXIT_OK, {
        "betti": list(b),
        "euler": b.euler_characteristic,
        "reduced": False,
    }


def _cmd_morse(args) -> tuple[int, dict]:
    if args.morse_command == "sweep":
        g = formats.read_geom(args.geom_file)
        direction = _parse_vector(args.pi)
        matching = algorithms.sweep_perfect_morse(g, direction, assume_tight=args.assume_tight)
        if args.out:
            formats.write_text(args.out, formats.dump_morse(matching))
        mv = morse.morse_vector(matching)
        bv = homology_z2.betti(g.complex)
        result = {
            "morse_vector": list(mv),
            "betti": list(bv),
            "perfect": list(mv) == list(bv),
        }
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
    return EXIT_OK, {"morse_vector": list(mv), "critical": mv.total}


def _cmd_tight(args) -> tuple[int, dict]:
    g = formats.read_geom(args.geom_file)
    if args.verify_embedding:
        geometry.verify_embedding(g)
    if args.pi:
        report = geometry.is_pi_tight(g, _parse_vector(args.pi))
        return EXIT_OK, {
            "tight": report.tight,
            "checks": report.checks,
            "failures": [
                {"threshold": f.threshold, "dim": f.dim,
                 "betti_sub": f.betti_sub, "image_rank": f.image_rank}
                for f in report.failures
            ],
        }
    samples = args.samples or 20
    rep = geometry.check_tightness_sampled(g, samples, seed=args.seed)
    return EXIT_OK, {
        "samples": rep.samples,
        "passed": rep.passed,
        "fraction": rep.fraction,
        "failed_samples": [idx for idx, _, _ in rep.failures],
    }


def _cmd_check(args) -> tuple[int, dict]:
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
            Path(args.out).write_text(json.dumps(_cert_to_json(res.certificate)))
            result["out"] = args.out
    return (EXIT_BUDGET if res.status == "budget" else EXIT_OK), result


def _cmd_build(args) -> tuple[int, dict]:
    if args.build_command == "grid":
        nx, ny, nz = (int(t) for t in args.n.split(","))
        g = constructions.grid_ball(nx, ny, nz)
        formats.write_text(args.out, formats.dump_geom(g))
        return EXIT_OK, {"f_vector": list(g.complex.f_vector), "out": args.out}
    if args.build_command == "furch":
        nx, ny, nz = (int(t) for t in args.n.split(","))
        path = formats.read_path_file(args.path)
        ball = constructions.furch_ball(nx, ny, nz, path)
        formats.write_text(args.out, formats.dump_geom(ball.realization))
        return EXIT_OK, {
            "f_vector": list(ball.realization.complex.f_vector),
            "betti": list(homology_z2.betti(ball.realization.complex)),
            "spanning_edge": list(ball.spanning_edge),
            "out": args.out,
        }
    if args.build_command == "cone-sphere":
        ball = formats.read_complex(args.file)
        cs = constructions.cone_sphere(ball)
        formats.write_text(args.out, formats.dump_facets(cs.complex))
        return EXIT_OK, {
            "f_vector": list(cs.complex.f_vector),
            "betti": list(homology_z2.betti(cs.complex)),
            "apex": cs.apex,
            "out": args.out,
        }
    if args.build_command == "wedge":
        b1 = formats.read_complex(args.file1)
        b2 = formats.read_complex(args.file2)
        t1 = tuple(int(t) for t in args.t1.split(","))
        t2 = tuple(int(t) for t in args.t2.split(","))
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
    if name == "checkerboard":
        c = constructions.checkerboard()
        formats.write_text(args.out, formats.dump_facets(c))
        return EXIT_OK, {"f_vector": list(c.f_vector), "out": args.out}
    if name == "dunce_hat":
        c = constructions.dunce_hat()
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
    inputs = []
    for attr in ("file", "geom_file", "complex_file", "matching_file", "file1", "file2", "path"):
        value = getattr(args, attr, None)
        if value and Path(str(value)).is_file():
            inputs.append(str(value))
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
