"""The sorted free list and the one collapse loop, against the oracle.

``collapse_oracle`` re-sorts every free face at every step, as the library
did before it kept the list sorted incrementally; every collapse entry point
must give the same pairs, steps and errors as its oracle twin.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import collapse_oracle as oracle
import complex_oracle
from tightmorse.algorithms import collapsible, planar_perfect_morse, relative_collapse
from tightmorse.complex_core import boundary_complex, from_faces
from tightmorse.constructions import (
    checkerboard,
    cone_sphere,
    dunce_hat,
    furch_ball,
    grid_ball,
    remove_facet,
    straight_path,
)
from tightmorse.errors import TightMorseError
from tightmorse.morse import FaceSetCollapser, random_discrete_morse

from conftest import random_complexes


def outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except TightMorseError as exc:
        return type(exc).__name__, str(exc)


def collapsible_summary(res):
    return res.status, res.reason, res.sequence.steps if res.sequence else None


def assert_same_as_oracle(c, seed, targets=()):
    """Every collapse entry point on c, relative collapses onto the vertices
    in targets, against the oracle."""
    assert random_discrete_morse(c, seed).pairs == oracle.random_discrete_morse(c, seed).pairs
    assert collapsible_summary(collapsible(c, "greedy", seed=seed)) == collapsible_summary(
        oracle.collapsible_greedy(c, seed)
    )
    assert outcome(lambda: planar_perfect_morse(c).pairs) == outcome(
        lambda: oracle.planar_perfect_morse(c).pairs
    )
    for v in targets:
        point = from_faces([(v,)])
        assert outcome(lambda: relative_collapse(c, point).steps) == outcome(
            lambda: oracle.relative_collapse(c, point).steps
        )


@settings(max_examples=80, deadline=None)
@given(random_complexes, st.integers(0, 10))
def test_collapses_match_oracle(c, seed):
    assert_same_as_oracle(c, seed, c.vertices)


@pytest.fixture(scope="module")
def drilled_ball():
    return furch_ball(5, 5, 5, straight_path(5, 5, 5)).realization.complex


@pytest.mark.parametrize("seed", range(5))
def test_drilled_ball_matches_oracle(drilled_ball, seed):
    assert_same_as_oracle(drilled_ball, seed)


def grid_rim(dims, punctured):
    rim = boundary_complex(grid_ball(*dims).complex)
    return remove_facet(rim, min(rim.face_set(2))) if punctured else rim


# a contractible complex with no free face, a 2-sphere and punctured
# 2-spheres: the planar routine and the relative collapse get stuck or finish
@pytest.mark.parametrize(
    "c",
    [dunce_hat(), grid_rim((2, 2, 2), False), grid_rim((2, 2, 2), True), grid_rim((3, 3, 2), True)],
    ids=["dunce_hat", "rim(2,2,2)", "punctured rim(2,2,2)", "punctured rim(3,3,2)"],
)
def test_fixed_complexes_match_oracle(c):
    verts = c.vertices
    assert_same_as_oracle(c, 0, (verts[0], verts[len(verts) // 2], verts[-1]))


@pytest.mark.parametrize(
    "c",
    [checkerboard(), grid_ball(2, 2, 1).complex, cone_sphere(grid_ball(1, 1, 1).complex).complex],
    ids=["checkerboard", "grid(2,2,1)", "cone_sphere(grid(1,1,1))"],
)
def test_free_list_matches_definition_after_every_removal(c):
    for seed in range(3):
        rng = random.Random(seed)
        tracker = FaceSetCollapser(c)
        while tracker.faces:
            free = tracker.free_pairs()
            assert free == complex_oracle.free_faces(from_faces(tracker.faces))
            if free:
                tracker.remove_pair(*rng.choice(free))
            else:
                tracker.remove_facet(rng.choice(tracker.facets_of_max_dim()))
        assert tracker.free_pairs() == []
