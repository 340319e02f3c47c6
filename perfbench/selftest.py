"""Self-test of the independent checks: hand-known facts and broken outputs.

Run on its own with ``python3 perfbench/selftest.py``; every benchmark run
also runs it first and refuses to measure if a check is wrong.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import checks
from checks import CheckError

OCTAHEDRON = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)]
CHECKERBOARD = [(1, 2, 3), (3, 4, 5), (1, 5, 6), (2, 4, 6)]
# the 8-vertex dunce hat: a triangle with all three sides glued to one edge
DUNCE_HAT = [
    (1, 2, 5), (1, 4, 5), (2, 3, 5), (1, 3, 6), (3, 5, 6), (1, 2, 6),
    (2, 3, 7), (2, 6, 7), (1, 3, 7), (1, 3, 8), (1, 7, 8), (2, 3, 8),
    (1, 2, 4), (2, 4, 8), (4, 5, 6), (4, 6, 7), (4, 7, 8),
]
DELTA4_BOUNDARY = list(itertools.combinations(range(5), 4))
TETRAHEDRON = [(0, 1, 2, 3)]


def _rejects(fn, *args) -> None:
    try:
        fn(*args)
    except CheckError:
        return
    raise AssertionError(f"{fn.__name__} accepted a broken output")


def run() -> None:
    facts = {
        "octahedron boundary": (OCTAHEDRON, (1, 0, 1)),
        "checkerboard": (CHECKERBOARD, (1, 3, 0)),
        "dunce hat": (DUNCE_HAT, (1, 0, 0)),
        "delta4 boundary": (DELTA4_BOUNDARY, (1, 0, 0, 1)),
        "tetrahedron": (TETRAHEDRON, (1, 0, 0, 0)),
    }
    for name, (facets, expected) in facts.items():
        got = checks.betti(checks.closure(facets))
        if got != expected:
            raise AssertionError(f"Betti vector of the {name}: {got}, expected {expected}")
    if checks.free_pairs(checks.closure(DUNCE_HAT)):
        raise AssertionError("the dunce hat has no free face")
    if len(checks.free_pairs(checks.closure(CHECKERBOARD))) != 12:
        raise AssertionError("every checkerboard edge is free")

    # matchings: a valid collapse of a triangle, then a cyclic matching
    tri = checks.closure([(1, 2, 3)])
    good = [((2, 3), (1, 2, 3)), ((3,), (1, 3)), ((2,), (1, 2))]
    if checks.check_matching(tri, good) != (1, 0, 0):
        raise AssertionError("collapse of a triangle leaves one critical vertex")
    rim = checks.closure([(1, 2), (2, 3), (1, 3)])
    _rejects(checks.check_matching, rim, [((1,), (1, 2)), ((2,), (2, 3)), ((3,), (1, 3))])
    _rejects(checks.check_matching, tri, [((1,), (1, 2)), ((1,), (1, 3))])
    _rejects(checks.check_matching, tri, [((1,), (1, 2, 3))])
    _rejects(checks.check_morse_inequalities, checks.closure(OCTAHEDRON), (1, 0, 0))

    # collapses: the triangle collapses to vertex 1; a non-free first step fails
    if checks.replay_collapse(tri, good) != {(1,)}:
        raise AssertionError("triangle collapse does not end at vertex 1")
    _rejects(checks.replay_collapse, tri, [((2,), (1, 2))] + good)
    _rejects(checks.replay_collapse, checks.closure(TETRAHEDRON), [((0, 1), (0, 1, 2))])

    # certificates: an edge is non-evasive via either end; a wrong vertex fails
    edge = checks.closure([(1, 2)])
    cert = (1, (2, None, None), (2, None, None))
    if checks.replay_certificate(edge, cert) != 3:
        raise AssertionError("edge certificate has three nodes")
    _rejects(checks.replay_certificate, edge, (3, (2, None, None), (2, None, None)))
    _rejects(checks.replay_certificate, edge, (1, (1, None, None), (2, None, None)))
    _rejects(checks.replay_certificate, checks.closure(CHECKERBOARD), (1, (2, None, None), (2, None, None)))

    # tightness: a path bent down in the middle has a disconnected upper set
    bent = checks.closure([(0, 1), (1, 2)])
    coords = {0: (0, 2), 1: (1, 0), 2: (2, 1)}
    if checks.upper_failures(bent, coords, (0, 1)) != {(Fraction(1, 2), 0)}:
        raise AssertionError("the bent path's upper set above height 1/2 is disconnected")
    if checks.upper_failures(bent, coords, (1, 0)):
        raise AssertionError("the bent path is tight along its first axis")


if __name__ == "__main__":
    run()
    print("independent checks: all hand-known facts hold and every broken output is rejected")
    sys.exit(0)
