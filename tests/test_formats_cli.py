import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tightmorse
from tightmorse import __version__, algorithms, from_facets
from tightmorse.algorithms import NonEvasiveResult, NonEvasivenessCertificate
from tightmorse.cli import main
from tightmorse.geometry import GeometricRealization
from tightmorse.constructions import checkerboard, convex_fixture, furch_ball, grid_ball, straight_path
from tightmorse.errors import FormatError, InvalidEmbeddingError, MalformedFacetError
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
    read_complex,
    read_geom,
)
from tightmorse.morse import random_discrete_morse


def test_parse_number_exact():
    assert parse_number("3") == 3 and isinstance(parse_number("3"), int)
    assert parse_number("0.25") == Fraction(1, 4)
    assert parse_number("3/4") == Fraction(3, 4)
    with pytest.raises(FormatError):
        parse_number("x")
    with pytest.raises(FormatError, match="cannot parse number '1/0'"):
        parse_number("1/0")
    assert parse_number("1e4300") == 10**4300
    assert parse_number("-2.5E-4300") == Fraction(-25, 10**4301)


# Fraction expanded a decimal exponent in full, so 1e999999999999 never finished
@pytest.mark.parametrize("token", ["1e4301", "-2.5E-4301", "1e1_000_000"])
def test_parse_number_rejects_a_huge_exponent(token):
    with pytest.raises(FormatError, match=f"exponent of {token!r} exceeds 4300 in absolute value"):
        parse_number(token)


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


# the rows are read in order: the first bad row names the error
@pytest.mark.parametrize(
    "read, text, error, message",
    [
        (parse_facets, "facets 1\n1 2 x\n", FormatError, "expected an integer, got 'x'"),
        (parse_geom, "geom 3\nv 1 0 0 0\nv 2 1 0 0\nfacets 1\n1 2.0\n", FormatError, "expected an integer, got '2.0'"),
        (parse_geom, "geom 3\nv 1 0 0 0\nv 2 1 0 0\nfacets 2\n1 2\n", FormatError, "header says 2 facets, found 1"),
        (parse_facets, "facets 2\n1 x\n1 1 2\n", FormatError, "expected an integer, got 'x'"),
        (parse_facets, "facets 2\n1 1 2\n1 x\n", MalformedFacetError, "repeated vertex in face (1, 1, 2)"),
    ],
    ids=["facets_token", "geom_token", "geom_count", "token_then_repeat", "repeat_then_token"],
)
def test_facet_parser_error_messages(read, text, error, message):
    with pytest.raises(error) as err:
        read(text)
    assert str(err.value) == message


def test_geom_round_trip():
    g = convex_fixture("stacked(2)")
    text = dump_geom(g)
    back = parse_geom(text)
    assert back.complex == g.complex
    assert back.coords == {v: tuple(Fraction(x) for x in p) for v, p in g.coords.items()}


def geom_point(coords: str):
    return parse_geom(f"geom 3\nv 1 {coords}\nfacets 1\n1\n").coords[1]


def test_parse_geom_reads_integer_and_exact_coordinates():
    # an all-integer line is read by int alone; any other token sends the
    # whole line through parse_number, which keeps integers as int
    assert geom_point("3 -2 0") == (3, -2, 0)
    point = geom_point("3 1/2 0.25")
    assert point == (3, Fraction(1, 2), Fraction(1, 4))
    assert [type(x) for x in point] == [int, Fraction, Fraction]


@pytest.mark.parametrize(
    "coords, message",
    [
        ("0 0 x", "cannot parse number 'x'"),
        ("1e4301 0 0", "exponent of '1e4301' exceeds 4300 in absolute value"),
        ("0 1/0 0", "cannot parse number '1/0'"),
    ],
    ids=["bad_token", "huge_exponent", "zero_denominator"],
)
def test_parse_geom_names_the_bad_coordinate(coords, message):
    with pytest.raises(FormatError) as err:
        geom_point(coords)
    assert str(err.value) == message


# read_complex checks a geom file's coordinates without building the
# realization; it owes the errors read_geom raises, in the same order
MALFORMED_GEOM = {
    "missing_vertex": ("geom 2\nv 1 0 0\nv 4 1 1\nfacets 2\n1 2 3\n3 4\n", InvalidEmbeddingError,
                       "vertex 2 has no coordinates"),
    "no_vertex_lines": ("geom 3\nfacets 1\n5 7\n", InvalidEmbeddingError, "vertex 5 has no coordinates"),
    "header": ("geom x\nfacets 1\n1\n", FormatError, "malformed geom header"),
    "no_header": ("geometry\n", FormatError, "malformed geom header"),
    "arity": ("geom 3\nv 1 0 0\nfacets 1\n1\n", FormatError, "vertex line has wrong arity: 'v 1 0 0'"),
    "label": ("geom 1\nv a 0\nfacets 1\n1\n", FormatError, "expected an integer, got 'a'"),
    "repeated_label": ("geom 1\nv 1 0\nv 1 1\nfacets 1\n1\n", FormatError,
                       "vertex 1 has two coordinate lines"),
    "bad_number": ("geom 1\nv 1 1/0\nfacets 1\n1\n", FormatError, "cannot parse number '1/0'"),
    "bad_number_before_missing": ("geom 1\nv 3 x\nfacets 1\n1 2\n", FormatError, "cannot parse number 'x'"),
    "facets_count": ("geom 1\nv 1 0\nfacets 2\n1\n", FormatError, "header says 2 facets, found 1"),
    "facets_token": ("geom 1\nv 1 0\nfacets 1\n1 b\n", FormatError, "expected an integer, got 'b'"),
    "repeated_facet_vertex": ("geom 1\nv 1 0\nfacets 1\n1 1\n", MalformedFacetError,
                              "repeated vertex in face (1, 1)"),
}


@pytest.mark.parametrize("text, error, message", MALFORMED_GEOM.values(), ids=MALFORMED_GEOM)
def test_read_complex_raises_the_errors_of_read_geom(tmp_path, text, error, message):
    path = tmp_path / "bad.geom"
    path.write_text(text)
    for read in (read_complex, read_geom):
        with pytest.raises(error) as err:
            read(path)
        assert type(err.value) is error and str(err.value) == message, read.__name__


def test_read_complex_of_a_geom_file_is_its_complex(tmp_path):
    path = tmp_path / "g.geom"
    path.write_text("geom 1\nv 9 5\nv 1 0\nv 2 1/2\nfacets 1\n1 2\n")
    assert read_complex(path) == read_geom(path).complex == from_facets([(1, 2)])


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

FIXTURES = Path(__file__).parents[1] / "fixtures"


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


# name -> (realization, --pi, extra flags, exit code, report fields after
# "inputs", (bytes, sha256) of the --out file or None when none is written)
SWEEP_GOLDEN = {
    "simplex3": (
        lambda: convex_fixture("simplex3"), "1,2,4", [], 0,
        '"morse_vector": [1, 0, 0, 0], "betti": [1, 0, 0, 0], "perfect": true',
        (122, "daee171b7a18b25af734b04cbb18110b3a81973da779e1b9aef8c78d4c6fd66f"),
    ),
    "octahedron": (
        lambda: convex_fixture("octahedron_boundary"), "1,1,1", [], 0,
        '"morse_vector": [1, 0, 1], "betti": [1, 0, 1], "perfect": true',
        (210, "6b1c9c78c7b83531aaa6325699f59933a26374d55d53b46b474e791d3ca91964"),
    ),
    "grid2x2x1": (
        lambda: grid_ball(2, 2, 1), "1,17,289", [], 0,
        '"morse_vector": [1, 0, 0, 0], "betti": [1, 0, 0, 0], "perfect": true',
        (1582, "d62598af5c7be10756a9f09386d78fc6d1ab56b32655db73816d42c4c525af34"),
    ),
    "delta4": (
        lambda: convex_fixture("delta4_boundary"), "1,2,4,8", [], 0,
        '"morse_vector": [1, 0, 0, 1], "betti": [1, 0, 0, 1], "perfect": true',
        (266, "5e8c216fc5123389a185a2154047d2b57b87e18024f243c0fed0b3e8dcf2ae4e"),
    ),
    "drilled3x3x2": (
        lambda: drilled_geom(), "1,17,-289", ["--assume-tight"], 3,
        '"error": "perfectness assertion failed", "morse_vector": [1, 1, 1, 0], "betti": [1, 0, 0, 0]',
        None,
    ),
}


@pytest.mark.parametrize("name", list(SWEEP_GOLDEN))
def test_cli_sweep_golden(tmp_path, capsys, name):
    make, pi, flags, exit_code, fields, written = SWEEP_GOLDEN[name]
    geom = tmp_path / f"{name}.geom"
    geom.write_text(dump_geom(make()))
    out = tmp_path / f"{name}.morse"
    code = main(["morse", "sweep", str(geom), "--pi", pi, *flags, "--out", str(out)])
    inputs = json.dumps({str(geom): hashlib.sha256(geom.read_bytes()).hexdigest()[:12]})
    tail = f', "out": {json.dumps(str(out))}' if written else ""
    assert code == exit_code
    assert capsys.readouterr().out == (
        f'{{"command": "morse", "version": "{__version__}", "seed": 0, '
        f'"inputs": {inputs}, {fields}{tail}}}\n'
    )
    if written is None:
        assert not out.exists()
    else:
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == written


def test_cli_morse_validate_and_vector(tmp_path, capsys):
    path = write_e(tmp_path)
    m = random_discrete_morse(checkerboard(), seed=0)
    mfile = tmp_path / "e.morse"
    mfile.write_text(dump_morse(m))
    code, rep = run_cli(["morse", "validate", path, str(mfile)], capsys)
    assert code == 0 and rep["valid"] is True
    code, rep = run_cli(["morse", "vector", path, str(mfile)], capsys)
    assert rep["morse_vector"] == [1, 3, 0]


@pytest.mark.parametrize("critical_lines", [True, False], ids=["with_critical", "without_critical"])
def test_cli_morse_validate_pairs_of_another_complex(tmp_path, capsys, critical_lines):
    # the sweep matching of the 3-simplex, validated against the checkerboard:
    # with its critical lines it ended in "FormatError: critical lines
    # disagree with the pairs" (exit 1), without them in the report below
    mfile = tmp_path / "simplex3.morse"
    code, _ = run_cli(
        ["morse", "sweep", str(FIXTURES / "simplex3.geom"), "--pi", "1,2,4", "--out", str(mfile)], capsys
    )
    assert code == 0
    if not critical_lines:
        kept = [line for line in mfile.read_text().splitlines() if not line.startswith("critical")]
        mfile.write_text("\n".join(kept) + "\n")
    code, rep = run_cli(["morse", "validate", str(FIXTURES / "checkerboard.facets"), str(mfile)], capsys)
    assert code == 0
    # validate walks the pairs in sorted order: (0, 1) < (0, 2) < ...
    assert rep["valid"] is False and rep["error"] == "face (0, 1, 3) not in complex"


def test_cli_morse_validate_critical_lines_disagree(tmp_path, capsys):
    # pairs that fit the complex, with one critical line too many
    mfile = tmp_path / "e.morse"
    mfile.write_text(dump_morse(random_discrete_morse(checkerboard(), seed=4)) + "critical 1 2\n")
    code, rep = run_cli(["morse", "validate", write_e(tmp_path), str(mfile)], capsys)
    assert code == 1
    assert rep["error"] == "FormatError: critical lines disagree with the pairs"


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


# the level midpoints of heights beyond float range ended in an
# OverflowError traceback from float() in the tightness scan
@pytest.mark.parametrize(
    "args, error",
    [
        (["tight", "check", "{}", "--pi", "0,1e400"], "a failing level lies beyond float range"),
        (["morse", "sweep", "{}", "--pi", "0,-1e400"], "NotTightError: 1 prefix injectivity failures"),
    ],
    ids=["tight_check", "morse_sweep"],
)
def test_cli_heights_beyond_float_range(tmp_path, capsys, args, error):
    geom = tmp_path / "v.geom"
    geom.write_text(dump_geom(v_path_geom()))
    code = main([a.format(geom) for a in args])
    inputs = json.dumps({str(geom): hashlib.sha256(geom.read_bytes()).hexdigest()[:12]})
    assert code == 1
    assert capsys.readouterr().out == (
        f'{{"command": "{args[0]}", "version": "{__version__}", "seed": 0, '
        f'"inputs": {inputs}, "error": "{error}"}}\n'
    )


# argparse read a --pi value with a leading minus as an option and exited
# with "expected one argument", unless it was written --pi=-1,17,-289
@pytest.mark.parametrize(
    "command, verdict",
    [(["morse", "sweep"], "perfect"), (["tight", "check"], "tight")],
    ids=["morse_sweep", "tight_check"],
)
def test_cli_pi_with_a_leading_minus(tmp_path, capsys, command, verdict):
    geom = tmp_path / "g.geom"
    geom.write_text(dump_geom(grid_ball(2, 2, 1)))
    assert main([*command, str(geom), "--pi", "-1,17,-289"]) == 0
    spaced = capsys.readouterr().out
    assert main([*command, str(geom), "--pi=-1,17,-289"]) == 0
    assert capsys.readouterr().out == spaced
    assert json.loads(spaced)[verdict] is True


def test_cli_tight_check_sampled(tmp_path, capsys):
    geom = tmp_path / "s.geom"
    geom.write_text(dump_geom(convex_fixture("octahedron_boundary")))
    code, rep = run_cli(["tight", "check", str(geom), "--samples", "10", "--seed", "3"], capsys)
    assert code == 0 and rep["fraction"] == 1.0
    code, rep = run_cli(["tight", "check", str(geom)], capsys)
    assert code == 0 and rep["samples"] == 20


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_cli_tight_check_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    geom = tmp_path / "s.geom"
    geom.write_text(dump_geom(convex_fixture("simplex3")))
    with pytest.raises(SystemExit) as exc:
        main(["tight", "check", str(geom), "--samples", samples])
    assert exc.value.code == 1
    assert "argument --samples: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_cli_check_collapsible_rejects_fewer_than_one_restart(tmp_path, capsys, restarts):
    # it printed "result": "budget", "reason": "0 greedy restarts failed" and
    # exited 2 without trying
    facets = tmp_path / "t.facets"
    facets.write_text(dump_facets(from_facets([(1, 2, 3)])))
    with pytest.raises(SystemExit) as exc:
        main(["check", "collapsible", str(facets), "--restarts", restarts])
    assert exc.value.code == 1
    assert "argument --restarts: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["nonevasive"], ["collapsible", "--strategy", "backtracking"], ["collapsible"]],
    ids=["nonevasive", "backtracking", "greedy"],
)
def test_cli_check_rejects_a_negative_budget(tmp_path, capsys, args):
    # the searches answered as if the budget were 0 ("result": "budget",
    # exit 2), and greedy ignored it
    facets = tmp_path / "t.facets"
    facets.write_text(dump_facets(from_facets([(1, 2, 3)])))
    with pytest.raises(SystemExit) as exc:
        main(["check", *args[:1], str(facets), *args[1:], "--budget", "-3"])
    assert exc.value.code == 1
    assert "argument --budget: must be at least 0" in capsys.readouterr().err


def test_cli_check_budget_zero_still_answers_the_prechecks(tmp_path, capsys):
    facets = write_e(tmp_path)
    for args in (["nonevasive"], ["collapsible", "--strategy", "backtracking"]):
        code, rep = run_cli(["check", *args[:1], facets, *args[1:], "--budget", "0"], capsys)
        assert (code, rep["result"], rep["reason"]) == (0, "no", "betti")


TETRA_A = dump_facets(from_facets([(1, 2, 3, 4)]))
TETRA_B = dump_facets(from_facets([(5, 6, 7, 8)]))


# a malformed integer token in an input file or a CLI integer list: each
# ended in a ValueError traceback instead of the one-line JSON error
@pytest.mark.parametrize(
    "files, argv",
    [
        ({"bad.geom": "geom 3\nv x 0 0 0\nfacets 1\n0\n"}, ["tight", "check", "bad.geom", "--pi", "1,2,3"]),
        (
            {"e.facets": dump_facets(checkerboard()), "bad.morse": "pair 1 ; 1 x\n"},
            ["morse", "validate", "e.facets", "bad.morse"],
        ),
        (
            {"e.facets": dump_facets(checkerboard()), "bad.morse": "critical y\n"},
            ["morse", "vector", "e.facets", "bad.morse"],
        ),
        (
            {"bad.path": "1 1 2\n1 1 z\n"},
            ["build", "furch", "--n", "3,3,3", "--path", "bad.path", "--out", "f.geom"],
        ),
        ({}, ["build", "grid", "--n", "1,1", "--out", "g.geom"]),
        (
            {"a.facets": TETRA_A, "b.facets": TETRA_B},
            ["build", "wedge", "a.facets", "b.facets", "--t1", "0,1,x", "--t2", "6,7,8", "--out", "w.facets"],
        ),
    ],
    ids=["geom_label", "morse_pair", "morse_critical", "path_index", "grid_n", "wedge_t1"],
)
def test_cli_malformed_integer_is_an_input_error(tmp_path, capsys, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if "." in arg else arg for arg in argv]  # file names
    code, rep = run_cli(argv, capsys)
    assert code == 1
    assert rep["error"].startswith("FormatError: ")


# each answered as if the direction were padded with zeros or cut short
@pytest.mark.parametrize("command", [["tight", "check"], ["morse", "sweep"]], ids=["tight", "sweep"])
@pytest.mark.parametrize("pi", ["1,2", "1,2,4,8"])
def test_cli_direction_of_wrong_length_is_an_input_error(tmp_path, capsys, command, pi):
    geom = tmp_path / "simplex3.geom"
    geom.write_text(dump_geom(convex_fixture("simplex3")))
    code, rep = run_cli([*command, str(geom), "--pi", pi], capsys)
    assert code == 1
    n = len(pi.split(","))
    assert rep["error"] == f"DirectionLengthError: direction has {n} coordinates, expected 3"


def test_cli_repeated_geom_vertex_label_is_an_input_error(tmp_path, capsys):
    # the second point of vertex 1 replaced the first, and the edge was
    # reported tight (exit 0)
    geom = tmp_path / "dup.geom"
    geom.write_text("geom 3\nv 1 1 0 0\nv 1 0 1 0\nv 2 0 0 0\nfacets 1\n1 2\n")
    code, rep = run_cli(["tight", "check", str(geom), "--pi", "1,2,4"], capsys)
    assert code == 1
    assert rep["error"] == "FormatError: vertex 1 has two coordinate lines"


# a zero denominator raised ZeroDivisionError, which ended in a traceback
@pytest.mark.parametrize(
    "geom_text, pi",
    [("geom 3\nv 1 1/0 0 0\nfacets 1\n1\n", "1,2,4"), (None, "1/0,2,4")],
    ids=["geom_coordinate", "pi"],
)
def test_cli_zero_denominator_is_an_input_error(tmp_path, capsys, geom_text, pi):
    geom = tmp_path / "z.geom"
    geom.write_text(geom_text or dump_geom(convex_fixture("simplex3")))
    code, rep = run_cli(["tight", "check", str(geom), "--pi", pi], capsys)
    assert code == 1
    assert rep["error"] == "FormatError: cannot parse number '1/0'"


@pytest.mark.parametrize(
    "geom_text, pi",
    [("geom 3\nv 1 1e1000000 0 0\nfacets 1\n1\n", "1,2,4"), (None, "1e1000000,2,4")],
    ids=["geom_coordinate", "pi"],
)
def test_cli_huge_exponent_is_an_input_error(tmp_path, capsys, geom_text, pi):
    geom = tmp_path / "e.geom"
    geom.write_text(geom_text or dump_geom(convex_fixture("simplex3")))
    start = time.perf_counter()
    code, rep = run_cli(["tight", "check", str(geom), "--pi", pi], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert rep["error"] == "FormatError: exponent of '1e1000000' exceeds 4300 in absolute value"


@pytest.mark.parametrize("repeat", ["pair 1 ; 1 2", "pair 1 ; 2 1"], ids=["same", "reordered"])
def test_cli_repeated_morse_pair_is_an_input_error(tmp_path, capsys, repeat):
    # the matching kept one copy of the pair, and was reported valid (exit 0)
    facets = tmp_path / "e.facets"
    facets.write_text("facets 1\n1 2\n")
    mfile = tmp_path / "dup.morse"
    mfile.write_text(f"pair 1 ; 1 2\n{repeat}\n")
    code, rep = run_cli(["morse", "validate", str(facets), str(mfile)], capsys)
    assert code == 1
    assert rep["error"] == "FormatError: pair 1 ; 1 2 is listed twice"


def test_cli_build_grid_zero_cubes_is_an_input_error(tmp_path, capsys):
    # ended in a ValueError traceback
    out = tmp_path / "g.geom"
    code, rep = run_cli(["build", "grid", "--n", "0,1,1", "--out", str(out)], capsys)
    assert code == 1
    assert rep["error"] == "GridSizeError: cube counts must be at least 1"
    assert not out.exists()


@pytest.mark.parametrize("name", ["stacked(-3)", "stacked(3,1,9)"])
def test_cli_build_malformed_stacked_fixture_is_an_input_error(tmp_path, capsys, name):
    # stacked(-3) wrote the bare simplex and stacked(3,1,9) ignored the 9
    out = tmp_path / "s.geom"
    code, rep = run_cli(["build", "fixture", name, "--out", str(out)], capsys)
    assert code == 1
    assert rep["error"] == f"UnknownFixtureError: {name!r}: expected stacked(K) or stacked(K,SEED), K >= 0"
    assert not out.exists()


def test_cli_build_unseeded_stacked_twenty(tmp_path, capsys):
    # exited 1 with "MorseInvariantError: could not place a stacked vertex convexly"
    out = tmp_path / "s.geom"
    code, rep = run_cli(["build", "fixture", "stacked(20)", "--out", str(out)], capsys)
    assert code == 0
    assert rep["f_vector"][3] == 21
    assert parse_geom(out.read_text()).complex.f_vector == tuple(rep["f_vector"])


def test_cli_check_nonevasive_reject(tmp_path, capsys):
    code, rep = run_cli(["check", "nonevasive", write_e(tmp_path)], capsys)
    assert code == 0
    assert rep["result"] == "no" and rep["reason"] == "betti"


def test_cli_check_nonevasive_long_path(tmp_path, capsys):
    # the search and the certificate writer go 5,000 levels deep, five times
    # the default recursion limit; the expected text is one join
    n = 5000
    f = tmp_path / "path.facets"
    f.write_text(dump_facets(from_facets([(i, i + 1) for i in range(n)])))
    out = tmp_path / "cert.json"
    code, rep = run_cli(["check", "nonevasive", str(f), "--out", str(out)], capsys)
    assert code == 0
    assert (rep["result"], rep["certificate_size"]) == ("yes", 2 * n + 1)
    leaf = '{{"vertex": {}, "link": null, "deletion": null}}'.format
    heads = [f'{{"vertex": {v}, "link": {leaf(v + 1)}, "deletion": ' for v in range(n)]
    assert out.read_text() == "".join(heads) + leaf(n) + "}" * n


certificates = st.recursive(
    st.builds(NonEvasivenessCertificate, st.integers(0, 20)),
    lambda children: st.builds(
        NonEvasivenessCertificate, st.integers(0, 20), st.none() | children, st.none() | children
    ),
    max_leaves=12,
)


def nested(cert):
    """The certificate as the objects its JSON text should parse to."""
    if cert is None:
        return None
    return {"vertex": cert.vertex, "link": nested(cert.link_cert), "deletion": nested(cert.deletion_cert)}


# the fixtures hold no state between examples: the search is patched and the
# output overwritten and read back in each
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(certificates)
def test_cli_certificate_json_nests_like_the_tree(tmp_path, capsys, monkeypatch, cert):
    monkeypatch.setattr(algorithms, "nonevasive", lambda c, budget: NonEvasiveResult("yes", cert))
    out = tmp_path / "cert.json"
    code, rep = run_cli(["check", "nonevasive", str(FIXTURES / "simplex3.geom"), "--out", str(out)], capsys)
    assert (code, rep["certificate_size"]) == (0, cert.size)
    text = out.read_text()
    assert json.loads(text) == nested(cert)
    assert text == json.dumps(nested(cert))


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


def search_input(name, tmp_path):
    """Path of one golden search input: a fixture file or a built ball."""
    if name in ("checkerboard", "dunce_hat"):
        return str(FIXTURES / f"{name}.facets")
    if name == "simplex3":
        return str(FIXTURES / "simplex3.geom")
    glued = {
        "dunce_hat+pendant": [(8, 98)],
        "dunce_hat+4tetrahedra": [(1, 100 + 3 * i, 101 + 3 * i, 102 + 3 * i) for i in range(4)],
    }
    if name in glued:
        path = tmp_path / f"{name}.facets"
        hat = read_complex(str(FIXTURES / "dunce_hat.facets"))
        path.write_text(dump_facets(from_facets([*hat.facets, *glued[name]])))
        return str(path)
    g = {
        "grid1x1x1": lambda: grid_ball(1, 1, 1),
        "grid2x2x2": lambda: grid_ball(2, 2, 2),
        "drilled3x3x2": drilled_geom,
        "stacked(6)": lambda: convex_fixture("stacked(6)"),
    }[name]()
    path = tmp_path / f"{name}.geom"
    path.write_text(dump_geom(g))
    return str(path)


def search_report(path, exit_code, fields, seed=0):
    return exit_code, [
        ("command", "check"),
        ("version", __version__),
        ("seed", seed),
        ("inputs", {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]}),
        *fields.items(),
    ]


# report fields after "inputs" and before "out", with the bytes and sha256 of
# the certificate written (None when none is), recorded before the searches
# keyed their memo by f-vector first
NONEVASIVE_SEARCH_GOLDEN = {
    "grid2x2x2": (
        {"result": "yes", "certificate_size": 293},
        (12268, "c6d2fc6e0349e2bfea6f7be136f1e5acb68748da59a22d067e7c807294e8efba"),
    ),
    "drilled3x3x2": (
        {"result": "yes", "certificate_size": 595},
        (24947, "ff555bed200c3db9799db7ac7e1f7c8c9454e992a1719cd3d40b6a25fcd73fa7"),
    ),
    "stacked(6)": (
        {"result": "yes", "certificate_size": 63},
        (2587, "701a7e85cb0463da11412b2ac61b6346d006af62999f79bd8f3db474fc7df547"),
    ),
    "checkerboard": ({"result": "no", "reason": "betti"}, None),
    "dunce_hat": ({"result": "no", "reason": "exhausted"}, None),
}


@pytest.mark.parametrize("name", list(NONEVASIVE_SEARCH_GOLDEN))
def test_cli_check_nonevasive_search_golden(tmp_path, capsys, name):
    path = search_input(name, tmp_path)
    out = tmp_path / "cert.json"
    code, rep = run_cli(["check", "nonevasive", path, "--out", str(out)], capsys)
    fields, written = NONEVASIVE_SEARCH_GOLDEN[name]
    if written is not None:
        fields = {**fields, "out": str(out)}
    assert (code, list(rep.items())) == search_report(path, 0, fields)
    if written is None:
        assert not out.exists()
    else:
        assert (len(out.read_bytes()), hashlib.sha256(out.read_bytes()).hexdigest()) == written


# (extra arguments, exit code, report fields after "inputs"), recorded as above
BACKTRACKING_GOLDEN = {
    "simplex3": ([], 0, {"result": "yes", "steps": 7}),
    "checkerboard": ([], 0, {"result": "no", "reason": "betti"}),
    "grid1x1x1": ([], 0, {"result": "yes", "steps": 25}),
    "grid1x1x1 budget 1": (["--budget", "1"], 2, {"result": "budget"}),
    # 123 search nodes; a search over the order of every free pair takes
    # 11,298 and answers "budget" here
    "dunce_hat+4tetrahedra budget 1000": (["--budget", "1000"], 0, {"result": "no", "reason": "exhausted"}),
}


@pytest.mark.parametrize("name", list(BACKTRACKING_GOLDEN))
def test_cli_check_collapsible_backtracking_golden(tmp_path, capsys, name):
    path = search_input(name.split()[0], tmp_path)
    extra, exit_code, fields = BACKTRACKING_GOLDEN[name]
    code, rep = run_cli(["check", "collapsible", path, "--strategy", "backtracking", *extra], capsys)
    assert (code, list(rep.items())) == search_report(path, exit_code, fields)


# (seed, report fields after "inputs", sha256 of the steps and the end vertex
# of the library's sequence or None), recorded before the collapse engine
# numbered its faces
GREEDY_GOLDEN = {
    "checkerboard": (0, {"result": "no", "reason": "betti"}, None),
    "dunce_hat": (0, {"result": "no", "reason": "no free face"}, None),
    # the first attempt sticks on the hat's triangles, which every collapse keeps
    "dunce_hat+pendant": (0, {"result": "no", "reason": "stuck"}, None),
    "simplex3": (0, {"result": "yes", "steps": 7}, None),
    "furch3x3x3 seed 0": (
        0, {"result": "yes", "steps": 425},
        ("5f250d98363fa41510d8b50491664d063f74c2b87d7a60ec9dd228ea842dc3e3", 25),
    ),
    "furch3x3x3 seed 5": (
        5, {"result": "yes", "steps": 425},
        ("b355aca5f297d0b2bbfd049a3df0580f06c2a01a8683c79341af132ee75faaa3", 22),
    ),
}


@pytest.mark.parametrize("name", list(GREEDY_GOLDEN))
def test_cli_check_collapsible_greedy_golden(tmp_path, capsys, name):
    seed, fields, sequence = GREEDY_GOLDEN[name]
    if name.startswith("furch"):
        pfile = tmp_path / "p.path"
        pfile.write_text(dump_path(straight_path(3, 3, 3)))
        path = str(tmp_path / "furch.geom")
        run_cli(["build", "furch", "--n", "3,3,3", "--path", str(pfile), "--out", path], capsys)
    else:
        path = search_input(name, tmp_path)
    code, rep = run_cli(["check", "collapsible", path, "--seed", str(seed)], capsys)
    assert (code, list(rep.items())) == search_report(path, 0, fields, seed)
    if sequence is not None:
        res = tightmorse.collapsible(read_complex(path), seed=seed)
        digest = hashlib.sha256(repr(res.sequence.steps).encode()).hexdigest()
        assert (digest, *res.sequence.target.vertices) == sequence


# report fields after "inputs" and before "out", with the bytes and sha256 of
# the written file, recorded before complex_core built every complex through
# one closure and the grid and Furch balls shared one builder
BUILD_GOLDEN = {
    "grid2x2x2": (
        {"f_vector": [27, 98, 120, 48]},
        824, "9b273f0c72ff226c188657245053264b53c442c8ba1faa95ae08462606991443",
    ),
    "furch3x3x3": (
        {"f_vector": [64, 275, 362, 150], "betti": [1, 0, 0, 0], "spanning_edge": [20, 21]},
        2432, "ebfb6c8498554c4e410c50a5c364ac96ee37084f87554892b1d8e960b45ba55b",
    ),
    "furch4x4x4": (
        {"f_vector": [125, 598, 840, 366], "betti": [1, 0, 0, 0], "spanning_edge": [60, 61]},
        5912, "2223036abfbf2964d4070c5f7e0cecdf1d8b1285f5e86b669525cd4ddb93f4fa",
    ),
    "cone-sphere(grid2x2x2)": (
        {"f_vector": [28, 124, 192, 96], "betti": [1, 0, 0, 1], "apex": 27},
        1052, "f15fccae3bb925570e70c5754237dd88f2cd2b2135c306eb6ee65470bb99029c",
    ),
    "wedge(tetrahedra)": (
        {"f_vector": [8, 19, 18, 6], "apex": 8, "wedge_point": 4},
        57, "ad869c37ab46ed8181850a5665f8fae7557b292036dab1e970b2853f21e6f79c",
    ),
    "simplex3": (
        {"f_vector": [4, 6, 4, 1]},
        64, "f3e5296ef82dbb8827f6b97972e91a47baa28c23c9e6d8e42780a396f9092cc7",
    ),
    "octahedron_boundary": (
        {"f_vector": [6, 12, 8]},
        127, "a930452ccd24b394911fb63767a647d02d88342b7bf81a12d58f9fc0cf64c989",
    ),
    "icosahedron_boundary": (
        {"f_vector": [12, 30, 20]},
        353, "09ab886c9c44076c566553d18f269d4790edd297ecd3eaac403fde3f5bd1771c",
    ),
    "schlegel_cross4": (
        {"f_vector": [8, 24, 32, 15]},
        235, "6524dac93204ef69cb0291e7dedf12dda9dd08b34fe18fe8c509ae11d2b29ae7",
    ),
    "delta4_boundary": (
        {"f_vector": [5, 10, 10, 5]},
        116, "cda6242b2c1fc6b2f2e908d109e2e158fb57380bd911168b5b42a55d92e8ae9e",
    ),
    "stacked(12)": (
        {"f_vector": [16, 42, 40, 13]},
        1968, "f1229160b4fc965647de9e0293abd682eb49becbe9d018009d2a3abc191f1065",
    ),
    "stacked(8,3)": (
        {"f_vector": [12, 30, 28, 9]},
        283, "3ae084bbcafcc22dd99454503c460a849f947e0b7ce5d7f0e0953d12a74534de",
    ),
    "checkerboard": (
        {"f_vector": [6, 12, 4]},
        33, "ce587282bdacec438fbb1bd8e29fea12c3e5272551cfbb58aa612cb3f3f0f3af",
    ),
    "dunce_hat": (
        {"f_vector": [8, 24, 17]},
        112, "f074edf0c44eb43a15d866eb9dc7eb92dad4ef72572d2223a3066252b634fdc0",
    ),
    "trefoil_path": (
        {"steps": 69, "box": [7, 7, 16]},
        451, "7f0d3f156f58052f8a51fd867f505df24c042b8a272591992e5ed7bc7c868804",
    ),
}


def build_args(name, tmp_path):
    """(arguments after 'build', input files) of one golden build."""
    def write(file_name, text):
        path = tmp_path / file_name
        path.write_text(text)
        return str(path)

    if name == "grid2x2x2":
        return ["grid", "--n", "2,2,2"], []
    if name.startswith("furch"):
        n = int(name[len("furch")])
        path = write("p.path", dump_path(straight_path(n, n, n)))
        return ["furch", "--n", f"{n},{n},{n}", "--path", path], [path]
    if name == "cone-sphere(grid2x2x2)":
        ball = write("g.geom", dump_geom(grid_ball(2, 2, 2)))
        return ["cone-sphere", ball], [ball]
    if name == "wedge(tetrahedra)":
        b1 = write("b1.facets", dump_facets(from_facets([(1, 2, 3, 4)])))
        b2 = write("b2.facets", dump_facets(from_facets([(5, 6, 7, 8)])))
        return ["wedge", b1, b2, "--t1", "2,3,4", "--t2", "6,7,8"], [b1, b2]
    return ["fixture", name], []


@pytest.mark.parametrize("name", list(BUILD_GOLDEN))
def test_cli_build_golden(tmp_path, capsys, name):
    args, inputs = build_args(name, tmp_path)
    out = tmp_path / "out"
    code, rep = run_cli(["build", *args, "--out", str(out)], capsys)
    fields, nbytes, digest = BUILD_GOLDEN[name]
    expected = {
        "command": "build",
        "version": __version__,
        "seed": 0,
        "inputs": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()[:12] for p in inputs},
        **fields,
        "out": str(out),
    }
    assert code == 0
    assert list(rep.items()) == list(expected.items())  # key order too
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


# the build report used to reduce the certified complex a second time
@pytest.mark.parametrize("name, reductions", [("furch3x3x3", 1), ("cone-sphere(grid2x2x2)", 2)])
def test_cli_build_reports_the_certified_betti_vector(tmp_path, capsys, monkeypatch, name, reductions):
    from tightmorse import constructions, homology_z2

    seen = []

    def counting_betti(c):
        seen.append(c.dimension)
        return betti(c)

    betti = homology_z2.betti
    monkeypatch.setattr(homology_z2, "betti", counting_betti)
    monkeypatch.setattr(constructions, "betti", counting_betti)
    args, _ = build_args(name, tmp_path)
    code, rep = run_cli(["build", *args, "--out", str(tmp_path / "out")], capsys)
    assert code == 0 and rep["betti"] == BUILD_GOLDEN[name][0]["betti"]
    # the construction's own checks: the ball (and the sphere), not the rim
    assert seen.count(3) == reductions


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


def test_cli_report_digests_an_input_that_the_command_overwrites(tmp_path, capsys):
    geom = tmp_path / "g.geom"
    geom.write_text(dump_geom(grid_ball(1, 1, 1)))
    digest = hashlib.sha256(geom.read_bytes()).hexdigest()[:12]
    code, rep = run_cli(["build", "cone-sphere", str(geom), "--out", str(geom)], capsys)
    assert code == 0 and rep["betti"] == [1, 0, 0, 1]
    assert rep["inputs"] == {str(geom): digest}


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


def test_cli_timings_appends_elapsed_seconds(tmp_path, capsys):
    path = write_e(tmp_path)
    _, plain = run_cli(["betti", path], capsys)
    code, timed = run_cli(["--timings", "betti", path], capsys)
    assert code == 0
    assert list(timed) == [*plain, "elapsed_s"]
    assert {key: timed[key] for key in plain} == plain
    assert isinstance(timed["elapsed_s"], float) and timed["elapsed_s"] >= 0


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
