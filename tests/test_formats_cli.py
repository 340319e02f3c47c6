import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tightmorse
from tightmorse import __version__, from_facets
from tightmorse.cli import main
from tightmorse.geometry import GeometricRealization
from tightmorse.constructions import checkerboard, convex_fixture, furch_ball, grid_ball, straight_path
from tightmorse.errors import FormatError
from tightmorse.formats import (
    dump_facets,
    dump_geom,
    dump_morse,
    dump_path,
    parse_facets,
    parse_geom,
    parse_morse,
    parse_number,
    parse_path,
)
from tightmorse.morse import random_discrete_morse


def test_parse_number_exact():
    assert parse_number("3") == 3 and isinstance(parse_number("3"), int)
    assert parse_number("0.25") == Fraction(1, 4)
    assert parse_number("3/4") == Fraction(3, 4)
    with pytest.raises(FormatError):
        parse_number("x")


def test_facets_round_trip(checkerboard):
    text = dump_facets(checkerboard)
    assert parse_facets(text) == checkerboard
    assert text.startswith("facets 4\n")


def test_facets_comments_and_errors():
    assert parse_facets("# hi\nfacets 1\n1 2 3\n").f_vector == (3, 3, 1)
    with pytest.raises(FormatError):
        parse_facets("1 2 3\n")
    with pytest.raises(FormatError):
        parse_facets("facets 2\n1 2 3\n")


def test_geom_round_trip():
    g = convex_fixture("stacked(2)")
    text = dump_geom(g)
    back = parse_geom(text)
    assert back.complex == g.complex
    assert back.coords == {v: tuple(Fraction(x) for x in p) for v, p in g.coords.items()}


def test_morse_round_trip(checkerboard):
    m = random_discrete_morse(checkerboard, seed=4)
    text = dump_morse(m)
    back = parse_morse(text, checkerboard)
    assert back.pairs == m.pairs


def test_morse_critical_mismatch_rejected(checkerboard):
    m = random_discrete_morse(checkerboard, seed=4)
    text = dump_morse(m) + "critical 1 2\n"
    with pytest.raises(FormatError):
        parse_morse(text, checkerboard)


def test_path_round_trip():
    p = straight_path(5, 5, 5)
    assert parse_path(dump_path(p)).cubes == p.cubes


# -- CLI ------------------------------------------------------------------------

def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out.startswith("{") else out


def write_e(tmp_path):
    f = tmp_path / "E.facets"
    f.write_text(dump_facets(checkerboard()))
    return str(f)


def test_cli_betti(tmp_path, capsys):
    code, rep = run_cli(["betti", write_e(tmp_path)], capsys)
    assert code == 0
    assert rep["betti"] == [1, 3, 0] and rep["euler"] == -2 and rep["reduced"] is False


def test_cli_betti_reports_are_byte_identical(tmp_path, capsys):
    path = write_e(tmp_path)
    main(["betti", path])
    first = capsys.readouterr().out
    main(["betti", path])
    second = capsys.readouterr().out
    assert first == second


def test_cli_sweep_report_and_matching(tmp_path, capsys):
    geom = tmp_path / "s.geom"
    geom.write_text(dump_geom(convex_fixture("simplex3")))
    out = tmp_path / "m.morse"
    code, rep = run_cli(
        ["morse", "sweep", str(geom), "--pi", "1,2,4", "--out", str(out)], capsys
    )
    assert code == 0
    assert rep["morse_vector"] == [1, 0, 0, 0] and rep["perfect"] is True
    matching = parse_morse(out.read_text(), parse_geom(geom.read_text()).complex)
    assert len(matching.pairs) == 7


def test_cli_morse_validate_and_vector(tmp_path, capsys):
    path = write_e(tmp_path)
    m = random_discrete_morse(checkerboard(), seed=0)
    mfile = tmp_path / "e.morse"
    mfile.write_text(dump_morse(m))
    code, rep = run_cli(["morse", "validate", path, str(mfile)], capsys)
    assert code == 0 and rep["valid"] is True
    code, rep = run_cli(["morse", "vector", path, str(mfile)], capsys)
    assert rep["morse_vector"] == [1, 3, 0]


def test_cli_tight_check_direction(tmp_path, capsys):
    geom = tmp_path / "s.geom"
    geom.write_text(dump_geom(convex_fixture("simplex3")))
    code, rep = run_cli(["tight", "check", str(geom), "--pi", "1,2,4"], capsys)
    assert code == 0 and rep["tight"] is True and rep["failures"] == []


def test_cli_tight_check_tied_direction(tmp_path, capsys):
    # (1,1,1) puts three vertices at height 1; the sweep order breaks the tie
    geom = tmp_path / "simplex3.geom"
    geom.write_text(dump_geom(convex_fixture("simplex3")))
    code, rep = run_cli(["tight", "check", str(geom), "--pi", "1,1,1"], capsys)
    assert code == 0 and rep["tight"] is True and rep["checks"] == 6


def v_path_geom():
    c = from_facets([(1, 2), (2, 3)])
    return GeometricRealization(c, {1: (0, 2), 2: (1, 0), 3: (2, Fraction(17, 8))}, 2)


def drilled_geom():
    return furch_ball(3, 3, 2, straight_path(3, 3, 2)).realization


# (threshold, dim, betti_sub, image_rank) of each failure
V_PATH_FAILURES = [(1.0, 0, 2, 1)]
DRILLED_FAILURES = [
    (t, 1, 1, 0)
    for t in (307.5, 308.5, 316.0, 323.5, 324.5, 325.5, 333.0, 340.5, 341.5, 342.5,
              460.5, 578.5, 579.5, 580.5, 588.0, 595.5)
]


@pytest.mark.parametrize(
    "make, direction, checks, failures",
    [(v_path_geom, "0,1", 2, V_PATH_FAILURES), (drilled_geom, "1,17,289", 161, DRILLED_FAILURES)],
    ids=["v_path", "drilled3x3x2"],
)
def test_cli_tight_check_failures(tmp_path, capsys, make, direction, checks, failures):
    geom = tmp_path / "in.geom"
    geom.write_text(dump_geom(make()))
    code, rep = run_cli(["tight", "check", str(geom), "--pi", direction], capsys)
    assert code == 0
    assert rep == {
        "command": "tight",
        "version": __version__,
        "seed": 0,
        "inputs": {str(geom): hashlib.sha256(geom.read_bytes()).hexdigest()[:12]},
        "tight": False,
        "checks": checks,
        "failures": [
            {"threshold": t, "dim": i, "betti_sub": b, "image_rank": r} for t, i, b, r in failures
        ],
    }


def test_cli_tight_check_sampled(tmp_path, capsys):
    geom = tmp_path / "s.geom"
    geom.write_text(dump_geom(convex_fixture("octahedron_boundary")))
    code, rep = run_cli(["tight", "check", str(geom), "--samples", "10", "--seed", "3"], capsys)
    assert code == 0 and rep["fraction"] == 1.0


def test_cli_check_nonevasive_reject(tmp_path, capsys):
    code, rep = run_cli(["check", "nonevasive", write_e(tmp_path)], capsys)
    assert code == 0
    assert rep["result"] == "no" and rep["reason"] == "betti"


# (certificate_size, bytes and sha256 of the --out file), recorded before
# the search got integer colour palettes and its lazy memo
NONEVASIVE_GOLDEN = {
    "grid2x2x1": (163, 6778, "e2dccc3d5fae4302f95f525f3ae36337446a95ab732e00d0fe7f907349c80cad"),
    "drilled3x3x2": (595, 24947, "ff555bed200c3db9799db7ac7e1f7c8c9454e992a1719cd3d40b6a25fcd73fa7"),
}


@pytest.mark.parametrize(
    "name, make",
    [("grid2x2x1", lambda: grid_ball(2, 2, 1)), ("drilled3x3x2", drilled_geom)],
)
def test_cli_check_nonevasive_certificate_golden(tmp_path, capsys, name, make):
    geom = tmp_path / "in.geom"
    geom.write_text(dump_geom(make()))
    out = tmp_path / "cert.json"
    code, rep = run_cli(["check", "nonevasive", str(geom), "--out", str(out)], capsys)
    size, nbytes, digest = NONEVASIVE_GOLDEN[name]
    assert code == 0
    assert rep == {
        "command": "check",
        "version": __version__,
        "seed": 0,
        "inputs": {str(geom): hashlib.sha256(geom.read_bytes()).hexdigest()[:12]},
        "result": "yes",
        "certificate_size": size,
        "out": str(out),
    }
    assert len(out.read_bytes()) == nbytes
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_check_collapsible_budget_exit(tmp_path, capsys):
    # a sphere passes the Betti precheck only after removing a facet, so use
    # the boundary of the 3-simplex: betti says no instantly (exit 0); for
    # the budget path use a tiny backtracking budget on a collapsible input
    geom = tmp_path / "b.facets"
    geom.write_text(dump_facets(from_facets([(1, 2, 3, 4)])))
    code, rep = run_cli(
        ["check", "collapsible", str(geom), "--strategy", "backtracking", "--budget", "1"],
        capsys,
    )
    assert code == 2 and rep["result"] == "budget"


def test_cli_build_grid_round_trip(tmp_path, capsys):
    out = tmp_path / "g.geom"
    code, rep = run_cli(["build", "grid", "--n", "2,1,1", "--out", str(out)], capsys)
    assert code == 0 and rep["f_vector"][0] == 12
    assert parse_geom(out.read_text()).complex.vertex_count == 12


def test_cli_build_furch(tmp_path, capsys):
    pfile = tmp_path / "p.path"
    pfile.write_text(dump_path(straight_path(3, 3, 3)))
    out = tmp_path / "f.geom"
    code, rep = run_cli(
        ["build", "furch", "--n", "3,3,3", "--path", str(pfile), "--out", str(out)], capsys
    )
    assert code == 0 and rep["betti"] == [1, 0, 0, 0]
    assert len(rep["spanning_edge"]) == 2


def test_cli_build_cone_sphere_and_wedge(tmp_path, capsys):
    ball = tmp_path / "b.facets"
    ball.write_text(dump_facets(from_facets([(1, 2, 3, 4)])))
    out = tmp_path / "cs.facets"
    code, rep = run_cli(["build", "cone-sphere", str(ball), "--out", str(out)], capsys)
    assert code == 0 and rep["betti"] == [1, 0, 0, 1]

    b2 = tmp_path / "b2.facets"
    b2.write_text(dump_facets(from_facets([(5, 6, 7, 8)])))
    wout = tmp_path / "w.facets"
    code, rep = run_cli(
        ["build", "wedge", str(ball), str(b2), "--t1", "2,3,4", "--t2", "6,7,8",
         "--out", str(wout)], capsys,
    )
    assert code == 0 and rep["f_vector"][0] == 8


def test_cli_sweep_assertion_exit_code(tmp_path, capsys):
    # a roof path is not prefix-tight; forcing the sweep through with
    # --assume-tight trips the perfectness assertion (exit 3)
    from tightmorse.geometry import GeometricRealization

    roof = from_facets([(1, 2), (2, 3)])
    g = GeometricRealization(roof, {1: (0, 0, 0), 2: (1, 2, 0), 3: (2, Fraction(1, 8), 0)}, 3)
    geom = tmp_path / "roof.geom"
    geom.write_text(dump_geom(g))
    code, rep = run_cli(
        ["morse", "sweep", str(geom), "--pi", "0,1,0", "--assume-tight"], capsys
    )
    assert code == 3
    assert rep["error"] == "perfectness assertion failed"
    assert rep["morse_vector"] != rep["betti"]


def test_cli_tight_verify_embedding_flag(tmp_path, capsys):
    geom = tmp_path / "s.geom"
    geom.write_text(dump_geom(convex_fixture("simplex3")))
    code, rep = run_cli(
        ["tight", "check", str(geom), "--pi", "1,2,4", "--verify-embedding"], capsys
    )
    assert code == 0 and rep["tight"] is True

    bad = tmp_path / "bad.geom"
    crossing = from_facets([(1, 2), (3, 4)])
    g = GeometricRealization(crossing, {1: (0, 0), 2: (2, 2), 3: (0, 2), 4: (2, 0)}, 2)
    bad.write_text(dump_geom(g))
    code, rep = run_cli(
        ["tight", "check", str(bad), "--pi", "1,2", "--verify-embedding"], capsys
    )
    assert code == 1 and "InvalidEmbeddingError" in rep["error"]


def test_cli_verify_embedding_accepts_grid_ball(tmp_path, capsys):
    # a valid embedding with coplanar contacts: the flag changes nothing
    geom = tmp_path / "grid2x1x1.geom"
    geom.write_text(dump_geom(grid_ball(2, 1, 1)))
    args = ["tight", "check", str(geom), "--pi", "1,17,289"]
    assert main(args + ["--verify-embedding"]) == 0
    checked = capsys.readouterr().out
    assert main(args) == 0
    assert checked == capsys.readouterr().out


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti"])  # missing argument
    assert exc.value.code == 1


def test_cli_io_error_exit_code(capsys):
    code, rep = run_cli(["betti", "/nonexistent/file.facets"], capsys)
    assert code == 1 and "error" in rep


def test_cli_text_format(tmp_path, capsys):
    code, out = run_cli(["--format", "text", "betti", write_e(tmp_path)], capsys)
    assert code == 0 and "betti: [1, 3, 0]" in out


def test_console_script_installed():
    # pytest's pythonpath setting reaches only this process: hand the child
    # the directory the package under test was imported from
    src = str(Path(tightmorse.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tightmorse.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "build" in proc.stdout
