"""Raise and return branches that no other test reaches, one table per
library module.  Each row gives the call and what it returned or raised:
the exception's exact type and message, or the value."""

import json

import pytest

from tightmorse.algorithms import (
    collapsible,
    nonevasive,
    planar_acyclic_nonevasive,
    planar_perfect_morse,
    relative_collapse,
)
from tightmorse.cli import main
from tightmorse.complex_core import EMPTY_COMPLEX, from_facets
from tightmorse.constructions import LatticePath, convex_fixture, dunce_hat, furch_ball
from tightmorse.errors import (
    DimensionOutOfRangeError,
    EmptyComplexError,
    MalformedFacetError,
    MorseInvariantError,
    NotASubcomplexError,
    PathNotTopToBottomError,
    PathTouchesWallError,
)
from tightmorse.formats import dump_facets
from tightmorse.geometry import check_tightness_sampled
from tightmorse.homology_z2 import is_subcomplex
from tightmorse.morse import FaceSetCollapser

TRIANGLE = from_facets([(1, 2, 3)])
TETRAHEDRON = from_facets([(1, 2, 3, 4)])


def outcome(call):
    """call's return value, or the (type, message) of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def result(res):
    return res.status, res.reason


ALGORITHMS = {
    "nonevasive_empty": (lambda: result(nonevasive(EMPTY_COMPLEX)), ("no", "empty")),
    "greedy_empty": (lambda: result(collapsible(EMPTY_COMPLEX)), ("no", "empty")),
    "backtracking_empty": (lambda: result(collapsible(EMPTY_COMPLEX, "backtracking")), ("no", "empty")),
    # the pendant edge collapses and the first attempt sticks on the dunce
    # hat's triangles, which every maximal collapse keeps
    "greedy_stuck": (
        lambda: result(collapsible(from_facets([*dunce_hat().facets, (8, 98)]), restarts=3)),
        ("no", "stuck"),
    ),
    # every attempt collapses the tetrahedron away and sticks on the hat's
    # triangles, below the top dimension, which proves nothing
    "greedy_budget": (
        lambda: result(collapsible(from_facets([*dunce_hat().facets, (1, 30, 31, 32)]), restarts=3)),
        ("budget", "3 greedy restarts failed"),
    ),
    "relative_not_a_subcomplex": (
        lambda: relative_collapse(TRIANGLE, from_facets([(1, 5)])),
        (NotASubcomplexError, "target is not a subcomplex"),
    ),
    "planar_perfect_morse_empty": (
        lambda: planar_perfect_morse(EMPTY_COMPLEX),
        (EmptyComplexError, "planar routine needs a nonempty complex"),
    ),
    "planar_acyclic_empty": (lambda: planar_acyclic_nonevasive(EMPTY_COMPLEX), (EmptyComplexError, "empty complex")),
    "planar_acyclic_3_complex": (
        lambda: planar_acyclic_nonevasive(TETRAHEDRON),
        (DimensionOutOfRangeError, "planar routine limited to dimension <= 2"),
    ),
}


@pytest.mark.parametrize("call, expected", ALGORITHMS.values(), ids=ALGORITHMS)
def test_algorithms_branches(call, expected):
    assert outcome(call) == expected


def remove_an_edge_of_the_triangle():
    tracker = FaceSetCollapser(TRIANGLE)
    tracker.remove_facet(tracker.index[(1, 2)])


MORSE = {
    "remove_facet_not_maximal": (remove_an_edge_of_the_triangle, (MorseInvariantError, "(1, 2) is not maximal")),
}


@pytest.mark.parametrize("call, expected", MORSE.values(), ids=MORSE)
def test_morse_branches(call, expected):
    assert outcome(call) == expected


GEOMETRY = {
    "no_samples": (
        lambda: check_tightness_sampled(convex_fixture("simplex3"), 0),
        (ValueError, "need at least one sample"),
    ),
}


@pytest.mark.parametrize("call, expected", GEOMETRY.values(), ids=GEOMETRY)
def test_geometry_branches(call, expected):
    assert outcome(call) == expected


HOMOLOGY_Z2 = {
    "higher_dimension_first": (lambda: is_subcomplex(TRIANGLE, from_facets([(1, 2)])), False),
}


@pytest.mark.parametrize("call, expected", HOMOLOGY_Z2.values(), ids=HOMOLOGY_Z2)
def test_homology_z2_branches(call, expected):
    assert outcome(call) == expected


COMPLEX_CORE = {
    "negative_label": (
        lambda: from_facets([(2, -1)]),
        (MalformedFacetError, "negative vertex label in face (-1, 2)"),
    ),
    "repr_empty": (lambda: repr(EMPTY_COMPLEX), "SimplicialComplex(empty)"),
}


@pytest.mark.parametrize("call, expected", COMPLEX_CORE.values(), ids=COMPLEX_CORE)
def test_complex_core_branches(call, expected):
    assert outcome(call) == expected


CONSTRUCTIONS = {
    "one_cube": (
        lambda: furch_ball(3, 3, 3, LatticePath(((1, 1, 2),))),
        (PathNotTopToBottomError, "path needs at least two cubes"),
    ),
    "outside_the_box": (
        lambda: furch_ball(3, 3, 3, LatticePath(((1, 1, 3), (1, 1, 2)))),
        (PathTouchesWallError, "cube (1, 1, 3) outside the box"),
    ),
    "not_to_the_bottom": (
        lambda: furch_ball(3, 3, 3, LatticePath(((1, 1, 2), (1, 1, 1)))),
        (PathNotTopToBottomError, "path must end in the bottom cube layer"),
    ),
    "last_step_sideways": (
        lambda: furch_ball(4, 3, 2, LatticePath(((1, 1, 1), (1, 1, 0), (2, 1, 0)))),
        (PathNotTopToBottomError, "final step must be vertical"),
    ),
}


@pytest.mark.parametrize("call, expected", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS)
def test_constructions_branches(call, expected):
    assert outcome(call) == expected


E_FACETS = dump_facets(from_facets([(1, 2, 3), (3, 4)]))

# the format errors, through main(): input files, argv (names with a dot are
# files), and the error the one-line report names, with exit code 1
FORMATS = {
    "facets_header": (
        {"bad.facets": "facets x\n1\n"}, ["betti", "bad.facets"], "FormatError: malformed facets header",
    ),
    "geom_header": (
        {"bad.geom": "facets 1\n1\n"},
        ["tight", "check", "bad.geom", "--pi", "1,2"],
        "FormatError: expected 'geom <k>' header",
    ),
    "pair_without_semicolon": (
        {"e.facets": E_FACETS, "bad.morse": "pair 3 3 4\n"},
        ["morse", "validate", "e.facets", "bad.morse"],
        "FormatError: pair line without ';': 'pair 3 3 4'",
    ),
    "unrecognized_morse_line": (
        {"e.facets": E_FACETS, "bad.morse": "match 3 ; 3 4\n"},
        ["morse", "vector", "e.facets", "bad.morse"],
        "FormatError: unrecognized morse line 'match 3 ; 3 4'",
    ),
    "path_line": (
        {"bad.path": "1 1 2\n1 1\n"},
        ["build", "furch", "--n", "3,3,3", "--path", "bad.path", "--out", "f.geom"],
        "FormatError: path line needs three integers: '1 1'",
    ),
    "empty_path": (
        {"bad.path": "# no cubes\n"},
        ["build", "furch", "--n", "3,3,3", "--path", "bad.path", "--out", "f.geom"],
        "FormatError: empty path",
    ),
}


def run_main(tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return main([str(tmp_path / arg) if "." in arg else arg for arg in argv])


@pytest.mark.parametrize("files, argv, error", FORMATS.values(), ids=FORMATS)
def test_formats_branches(tmp_path, capsys, files, argv, error):
    assert run_main(tmp_path, files, argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == error
    assert not (tmp_path / "f.geom").exists()


# usage errors: argparse exits 1 with the message on stderr
CLI = {
    "budget_not_an_int": (
        {"e.facets": E_FACETS},
        ["check", "nonevasive", "e.facets", "--budget", "abc"],
        "error: argument --budget: invalid int value: 'abc'",
    ),
}


@pytest.mark.parametrize("files, argv, error", CLI.values(), ids=CLI)
def test_cli_branches(tmp_path, capsys, files, argv, error):
    with pytest.raises(SystemExit) as exc:
        run_main(tmp_path, files, argv)
    assert exc.value.code == 1
    assert error in capsys.readouterr().err.splitlines()
