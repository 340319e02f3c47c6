"""The sorted free list and the one collapse loop, against the oracle.

``collapse_oracle`` re-sorts every free face at every step, as the library
did before it kept the list sorted incrementally; every collapse entry point
must give the same pairs, steps and errors as its oracle twin.  The
engine's per-id tables must give the free faces of the definition after
every removal, and the homology and free-face work that a finished collapse
or the Euler characteristic makes redundant must not run.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import collapse_oracle as oracle
import complex_oracle
from tightmorse import algorithms, complex_core, morse
from tightmorse.algorithms import collapsible, planar_perfect_morse, relative_collapse
from tightmorse.complex_core import EMPTY_COMPLEX, boundary_complex, from_faces
from tightmorse.constructions import (
    checkerboard,
    cone_sphere,
    dunce_hat,
    furch_ball,
    grid_ball,
    remove_facet,
    straight_path,
)
from tightmorse.errors import NotFreeAtStepError, TightMorseError
from tightmorse.morse import FaceSetCollapser, from_collapse_sequence, random_discrete_morse, random_pick

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


def assert_free_list_matches_definition(c, seed):
    """Remove faces in a seeded random order: a free pair when there is one,
    else a random top facet; the free list and the coface each free face
    names by its coface-id sum must match the definition after every step."""
    rng = random.Random(seed)
    tracker = FaceSetCollapser(c)
    while len(tracker):
        left = tracker.remaining()
        assert from_faces(left).num_faces == len(left) == len(tracker)
        free = tracker.free_pairs()
        assert free == complex_oracle.free_faces(from_faces(left))
        if free:
            s = rng.choice(tracker.free)
            tracker.remove_pair(s, tracker.coface(s))
        else:
            tracker.remove_facet(rng.choice(tracker.facets_of_max_dim()))
    assert tracker.free_pairs() == [] and tracker.remaining() == []


@pytest.mark.parametrize(
    "c",
    [checkerboard(), grid_ball(2, 2, 1).complex, cone_sphere(grid_ball(1, 1, 1).complex).complex],
    ids=["checkerboard", "grid(2,2,1)", "cone_sphere(grid(1,1,1))"],
)
def test_free_list_matches_definition_after_every_removal(c):
    for seed in range(3):
        assert_free_list_matches_definition(c, seed)


@settings(max_examples=60, deadline=None)
@given(random_complexes, st.integers(0, 2**32 - 1))
def test_free_list_matches_definition_on_random_complexes(c, seed):
    assert_free_list_matches_definition(c, seed)


@settings(max_examples=60, deadline=None)
@given(random_complexes, st.integers(0, 2**32 - 1))
def test_restore_pair_undoes_remove_pair(c, seed):
    # collapse at random, then undo the pairs last first: every undo must
    # give back the free faces of the definition, and the last one the
    # collapser's first state
    tracker = FaceSetCollapser(c)
    steps = tracker.collapse(random_pick(random.Random(seed)))
    index = tracker.index
    for s, t in reversed(steps):
        tracker.restore_pair(index[s], index[t])
        assert tracker.free_pairs() == complex_oracle.free_faces(from_faces(tracker.remaining()))
    fresh = FaceSetCollapser(c)
    assert tracker.free == fresh.free and len(tracker) == len(fresh)
    assert tracker.remaining() == fresh.remaining()
    assert [tracker.coface(i) for i in tracker.free] == [fresh.coface(i) for i in fresh.free]


@settings(max_examples=80, deadline=None)
@given(random_complexes, st.integers(0, 10), st.sampled_from(["outside", "not free", "coface"]), st.data())
def test_replay_rejects_every_bad_step_as_not_free(c, seed, kind, data):
    # a bad step after a valid prefix: a face outside the complex, a face
    # that is not free (removed ones included), or a free face with a wrong
    # coface; each is a NotFreeAtStepError at its step, never a lookup error
    steps = FaceSetCollapser(c).collapse(random_pick(random.Random(seed)))
    k = data.draw(st.integers(0, len(steps)), label="step")
    tracker = FaceSetCollapser(c)
    for s, t in steps[:k]:
        tracker.remove_pair(tracker.index[s], tracker.index[t])
    outside = (max(c.vertices) + 1,)
    if kind == "outside":
        bad = data.draw(st.sampled_from([(outside, outside + (outside[0] + 1,)), (outside, c.faces()[-1])]))
    elif kind == "not free":
        stuck = [f for f in c.faces() if tracker.coface(tracker.index[f]) is None]
        assume(stuck)
        s = data.draw(st.sampled_from(stuck))
        bad = (s, data.draw(st.sampled_from(list(c.faces()) + [outside])))
    else:
        assume(tracker.free)
        i = data.draw(st.sampled_from(tracker.free))
        wrong = [f for f in c.faces() if f != tracker.face[tracker.coface(i)]] + [outside]
        bad = (tracker.face[i], data.draw(st.sampled_from(wrong)))
    with pytest.raises(NotFreeAtStepError) as exc:
        from_collapse_sequence(c, steps[:k] + [bad])
    assert exc.value.step == k


def boom(*args, **kwargs):
    raise AssertionError("work a finished collapse makes redundant")


def test_relative_collapse_checks_no_homology_when_it_reaches_the_target(monkeypatch):
    disk = grid_rim((2, 2, 2), True)
    targets = [from_faces([(v,)]) for v in disk.vertices]
    expected = [oracle.relative_collapse(disk, point).steps for point in targets]
    monkeypatch.setattr(algorithms, "betti", boom)
    monkeypatch.setattr(algorithms, "inclusion_induced_injective", boom)
    assert [relative_collapse(disk, point).steps for point in targets] == expected


def test_relative_collapse_onto_a_non_isomorphic_target_keeps_its_error():
    disk = grid_rim((2, 2, 2), True)
    verts = disk.vertices
    two_points = from_faces([(verts[0],), (verts[-1],)])
    error = ("NotASubcomplexError", "inclusion is not a homology isomorphism: (2,) vs (1, 0, 0)")
    assert outcome(lambda: relative_collapse(disk, two_points)) == error
    assert outcome(lambda: oracle.relative_collapse(disk, two_points)) == error


@pytest.mark.parametrize(
    "c, b_c",
    [(from_faces([(0, 1, 2)]), "(1, 0, 0)"), (from_faces([(0, 1), (0, 2), (1, 2)]), "(1, 1)")],
    ids=["triangle", "triangle_boundary"],
)
def test_relative_collapse_onto_the_empty_complex_is_no_homology_isomorphism(c, b_c):
    # the inclusion of the empty complex misses every class of c; the
    # Betti numbers of the empty target must not be asked for
    error = ("NotASubcomplexError", f"inclusion is not a homology isomorphism: () vs {b_c}")
    assert outcome(lambda: relative_collapse(c, EMPTY_COMPLEX)) == error
    assert outcome(lambda: oracle.relative_collapse(c, EMPTY_COMPLEX)) == error


@pytest.mark.parametrize(
    "c", [grid_ball(2, 2, 2).complex, dunce_hat()], ids=["grid(2,2,2)", "dunce_hat"]
)
def test_greedy_collapsible_builds_no_second_coface_map(monkeypatch, c):
    expected = collapsible_summary(oracle.collapsible_greedy(c))
    monkeypatch.setattr(complex_core, "free_faces", boom)
    assert collapsible_summary(collapsible(c)) == expected
    assert expected[:2] in (("yes", None), ("no", "no free face"))


@pytest.mark.parametrize(
    "c",
    [grid_ball(2, 2, 2).complex, furch_ball(3, 3, 3, straight_path(3, 3, 3)).realization.complex],
    ids=["grid(2,2,2)", "drilled(3,3,3)"],
)
def test_greedy_collapsible_runs_no_reduction_when_it_collapses(monkeypatch, c):
    expected = collapsible_summary(oracle.collapsible_greedy(c))
    assert expected[0] == "yes"
    monkeypatch.setattr(algorithms, "betti", boom)
    assert collapsible_summary(collapsible(c)) == expected


@pytest.mark.parametrize(
    "c",
    [cone_sphere(grid_ball(1, 1, 1).complex).complex, checkerboard()],
    ids=["cone_sphere(grid(1,1,1))", "checkerboard"],
)
def test_euler_characteristic_rejects_without_a_reduction(monkeypatch, c):
    assert c.euler_characteristic != 1
    monkeypatch.setattr(algorithms, "betti", boom)
    monkeypatch.setattr(morse, "FaceSetCollapser", boom)
    for res in (collapsible(c), collapsible(c, "backtracking"), algorithms.nonevasive(c)):
        assert (res.status, res.reason) == ("no", "betti")
