"""The one-pass sweep against the per-vertex oracle.

``sweep_oracle`` builds each lower link from the vertex's full link, cut down
to the vertices already swept, and matches it with the reference planar
routine of ``collapse_oracle``, one link at a time.  The library files every
face under its last vertex in one pass and runs up to 64 consecutive lower
links on one collapser.  Both must return the same pairs, or raise the same exception with
the same message.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import sweep_oracle as oracle
import tightness_oracle
from tightmorse import algorithms, complex_core, from_facets, geometry, morse
from tightmorse.algorithms import sweep_perfect_morse
from tightmorse.complex_core import cone
from tightmorse.constructions import (
    _kuhn_ball,
    convex_fixture,
    dunce_hat,
    furch_ball,
    grid_ball,
    straight_path,
    suspension_realization,
)
from tightmorse.errors import LinkNotPlanarCollapsibleError, NotTightError, PerfectnessAssertionFailedError
from tightmorse.geometry import GeometricRealization, sweep_order


def outcome(sweep, g, direction, assume_tight):
    """Sorted pairs, or the (type, message) of the exception raised."""
    try:
        return sorted(sweep(g, direction, assume_tight=assume_tight).pairs)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_as_oracle(g, direction, assume_tight):
    expected = outcome(oracle.sweep_perfect_morse, g, direction, assume_tight)
    assert outcome(sweep_perfect_morse, g, direction, assume_tight) == expected
    return expected


facet_lists = st.lists(
    st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True), min_size=1, max_size=8
)

# tied directions, such as (1, 1, 0) on integer points, leave the order to
# the symbolic tie-break
directions = st.one_of(
    st.sampled_from([(1, 1, 0), (0, 0, 1), (1, 1, 1), (1, -1, 0), (1, 17, 289), (-1, 17, -289)]),
    st.tuples(*[st.integers(-2, 2)] * 3).filter(any),
)


@st.composite
def realizations(draw):
    """A complex on at most 9 vertices of dimension at most 3, at distinct
    integer points in [0, 4]^3."""
    c = from_facets(draw(facet_lists))
    points = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=9, max_size=9, unique=True))
    return GeometricRealization(c, {v: points[v] for v in c.vertices}, 3)


@settings(max_examples=60, deadline=None)
@given(realizations(), directions, st.booleans())
def test_sweep_matches_oracle(g, direction, assume_tight):
    assert_same_as_oracle(g, direction, assume_tight)


@st.composite
def realizations_4d(draw):
    """A complex on at most 9 vertices of dimension at most 4, at distinct
    integer points in [0, 2]^4: lower links of dimension 3 are rejected."""
    c = from_facets(draw(st.lists(
        st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True), min_size=1, max_size=6
    )))
    points = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=9, max_size=9, unique=True))
    return GeometricRealization(c, {v: points[v] for v in c.vertices}, 4)


@settings(max_examples=60, deadline=None)
@given(realizations_4d(), st.tuples(*[st.integers(-2, 2)] * 4).filter(any), st.booleans())
def test_sweep_matches_oracle_in_dimension_4(g, direction, assume_tight):
    assert_same_as_oracle(g, direction, assume_tight)


def test_grid_signed_permutations_match_oracle():
    g = grid_ball(2, 2, 2)
    for perm in itertools.permutations((1, 17, 289)):
        for signs in itertools.product((1, -1), repeat=3):
            direction = tuple(s * x for s, x in zip(signs, perm))
            assert isinstance(assert_same_as_oracle(g, direction, False), list)  # tight


@pytest.mark.parametrize("assume_tight", [False, True])
@pytest.mark.parametrize("direction", [(1, 17, 289), (1, 17, -289)])
def test_drilled_ball_matches_oracle(direction, assume_tight):
    g = furch_ball(3, 3, 2, straight_path(3, 3, 2)).realization
    assert_same_as_oracle(g, direction, assume_tight)


@pytest.mark.parametrize("assume_tight", [False, True])
def test_delta4_matches_oracle(assume_tight):
    assert_same_as_oracle(convex_fixture("delta4_boundary"), (1, 2, 4, 8), assume_tight)


@pytest.mark.parametrize("assume_tight", [False, True])
@pytest.mark.parametrize("direction", [(0, 0, 0, 1), (0, 0, 0, -1)])
def test_suspended_octahedron_matches_oracle(direction, assume_tight):
    g, _, _ = suspension_realization(convex_fixture("octahedron_boundary").complex)
    assert_same_as_oracle(g, direction, assume_tight)


@pytest.mark.parametrize(
    "assume_tight, exc_type, start",
    [
        (True, LinkNotPlanarCollapsibleError, "lower link of vertex 9 is not planar-collapsible"),
        (False, NotTightError, "5 prefix injectivity failures"),
    ],
    ids=["assume_tight", "scan_first"],
)
def test_dunce_hat_cone_apex_on_top_matches_oracle(assume_tight, exc_type, start):
    # every base vertex has a graph as lower link; the apex, swept last, has
    # the dunce hat, which has no free edge and is no closed surface.  The
    # oracle scans first, so without assume_tight its NotTightError wins
    # over the stuck link, though the sweep runs into that link first.
    c = cone(dunce_hat(), 9)
    coords = {v: (v, v * v, 0) for v in range(1, 9)}
    coords[9] = (0, 0, 1)
    g = GeometricRealization(c, coords, 3)
    raised, message = assert_same_as_oracle(g, (0, 0, 1), assume_tight)
    assert raised is exc_type
    assert message.startswith(start)


def two_coned_dunce_hats(height_of_9):
    """Disjoint cones over two dunce hats, apices 9 and 19 at heights 1 and
    2 above both bases: both apex lower links are stuck and no closed
    surface."""
    hat = dunce_hat()
    other = from_facets([tuple(u + 10 for u in f) for f in hat.facets])
    c = from_facets([*cone(hat, 9).facets, *cone(other, 19).facets])
    coords = {v: (v, v * v, 0) for v in range(1, 9)}
    coords.update({v + 10: (-v, v * v, 0) for v in range(1, 9)})
    coords[9] = (0, 0, height_of_9)
    coords[19] = (0, 1, 3 - height_of_9)
    return GeometricRealization(c, coords, 3)


@pytest.mark.parametrize("height_of_9, named", [(1, 9), (2, 19)])
def test_first_stuck_link_in_sweep_order_is_named(height_of_9, named):
    # both apices have stuck lower links; the one swept first is reported
    g = two_coned_dunce_hats(height_of_9)
    raised, message = assert_same_as_oracle(g, (0, 0, 1), True)
    assert raised is LinkNotPlanarCollapsibleError
    assert message.startswith(f"lower link of vertex {named} is not planar-collapsible")


def test_sweep_builds_no_vertex_link(monkeypatch):
    # the lower links come from one pass over the faces, not from link()
    g = grid_ball(2, 2, 1)
    expected = oracle.sweep_perfect_morse(g, (1, 17, 289)).pairs

    def no_link(c, v):
        raise AssertionError(f"link of vertex {v} built")

    monkeypatch.setattr(algorithms, "link", no_link)
    assert sweep_perfect_morse(g, (1, 17, 289)).pairs == expected


def raise_when_called(*args, **kwargs):
    raise AssertionError("a value the sweep has already proved is checked again")


TIGHT_SWEEPS = pytest.mark.parametrize(
    "make, direction",
    [
        (lambda: grid_ball(2, 2, 2), (1, 17, 289)),
        (lambda: convex_fixture("delta4_boundary"), (1, 2, 4, 8)),
        (lambda: suspension_realization(convex_fixture("octahedron_boundary").complex)[0], (0, 0, 0, 1)),
        # a solid torus: its critical edge has a Morse boundary to cancel
        (lambda: _kuhn_ball(3, 3, 1, frozenset({(1, 1, 0)})), (1, 17, 289)),
    ],
    ids=["grid(2,2,2)", "delta4_boundary", "suspended_octahedron", "frame(3,3,1)"],
)


@TIGHT_SWEEPS
def test_sweep_validates_once_and_builds_no_cone(monkeypatch, make, direction):
    # one certification pass: a lift is valid iff its link matching is, so
    # the structural checks and the differential's V-path pass, once each on
    # the whole matching, are the one check.  All lower links share one
    # collapser (these sweeps have at most 64 vertices), a closed last link
    # (delta4, the suspension) is punctured on it, and no per-vertex
    # matching or second planar run is built.
    g = make()
    expected = oracle.sweep_perfect_morse(g, direction).pairs
    monkeypatch.setattr(morse, "validate", raise_when_called)
    monkeypatch.setattr(morse, "cone", raise_when_called)
    monkeypatch.setattr(algorithms, "planar_perfect_morse", raise_when_called)
    calls = []

    def count(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))

    count(algorithms, "FaceSetCollapser")
    count(algorithms, "MorseMatching")
    count(morse, "_check_structure")
    count(morse, "morse_differential")
    assert sweep_perfect_morse(g, direction).pairs == expected
    assert calls.count("FaceSetCollapser") == calls.count("MorseMatching") == 1
    assert calls.count("_check_structure") == calls.count("morse_differential") == 1


def test_sweep_runs_one_collapser_per_64_links(monkeypatch):
    g = grid_ball(4, 4, 3)  # 100 vertices
    expected = oracle.sweep_perfect_morse(g, (1, 17, 289)).pairs
    calls = []
    collapser = algorithms.FaceSetCollapser
    monkeypatch.setattr(algorithms, "FaceSetCollapser", lambda c: calls.append(c) or collapser(c))
    assert sweep_perfect_morse(g, (1, 17, 289)).pairs == expected
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(realizations(), directions, st.booleans(), st.integers(1, 4))
def test_sweep_on_several_collapsers_matches_oracle(g, direction, assume_tight, links):
    # the links of a sweep split into runs of a few consecutive links, one
    # collapser each
    default = algorithms._LINKS_PER_COLLAPSER
    algorithms._LINKS_PER_COLLAPSER = links
    try:
        assert_same_as_oracle(g, direction, assume_tight)
    finally:
        algorithms._LINKS_PER_COLLAPSER = default


@pytest.mark.parametrize("links", [1, 2, 5])
@pytest.mark.parametrize("height_of_9", [1, 2])
def test_stuck_links_on_several_collapsers_match_oracle(monkeypatch, links, height_of_9):
    # the two stuck apices, and delta4's closed last link, on a collapser
    # of their own or shared
    monkeypatch.setattr(algorithms, "_LINKS_PER_COLLAPSER", links)
    assert_same_as_oracle(two_coned_dunce_hats(height_of_9), (0, 0, 1), True)
    assert_same_as_oracle(convex_fixture("delta4_boundary"), (1, 2, 4, 8), False)


def seven_vertex_torus():
    return from_facets([f for i in range(7) for f in (
        sorted({i, (i + 1) % 7, (i + 3) % 7}), sorted({i, (i + 2) % 7, (i + 3) % 7})
    )])


def two_octahedra():
    octahedron = convex_fixture("octahedron_boundary").complex
    return from_facets([*octahedron.facets, *[tuple(u + 10 for u in f) for f in octahedron.facets]])


def apex_on_top(base, apex):
    """The cone over base with its apex above the plane of the base, so
    swept last along (0, 0, 1): its lower link is all of base."""
    coords = {v: (v, v * v, 0) for v in base.vertices}
    coords[apex] = (0, 0, 1)
    return GeometricRealization(cone(base, apex), coords, 3)


@pytest.mark.parametrize("assume_tight", [False, True])
@pytest.mark.parametrize("links", [1, 2, 64])
@pytest.mark.parametrize(
    "base, stuck",
    [(seven_vertex_torus, None), (two_octahedra, "8 triangles left with no free edge")],
    ids=["torus", "two_octahedra"],
)
def test_closed_last_link_punctured_on_the_collapser_matches_oracle(
    monkeypatch, base, stuck, links, assume_tight
):
    # the apex's lower link is a closed surface.  The torus, punctured,
    # collapses to a graph; two octahedra, punctured in the first, leave the
    # second stuck, so the apex is named with the triangles left after the
    # puncture
    monkeypatch.setattr(algorithms, "_LINKS_PER_COLLAPSER", links)
    raised, message = assert_same_as_oracle(apex_on_top(base(), 30), (0, 0, 1), assume_tight)
    if not assume_tight:
        assert raised is NotTightError  # the cone kills the base's homology
    elif stuck:
        assert raised is LinkNotPlanarCollapsibleError
        assert message == f"lower link of vertex 30 is not planar-collapsible: {stuck}"
    else:
        assert raised is PerfectnessAssertionFailedError


@TIGHT_SWEEPS
def test_tight_sweep_runs_no_scan_and_no_betti(monkeypatch, make, direction):
    # a zero Morse differential proves both prefix-tightness and perfectness
    g = make()
    expected = oracle.sweep_perfect_morse(g, direction).pairs
    monkeypatch.setattr(geometry, "is_prefix_tight", raise_when_called)
    monkeypatch.setattr(algorithms, "betti", raise_when_called)
    assert sweep_perfect_morse(g, direction).pairs == expected


def test_non_tight_sweep_reports_the_oracle_scan():
    # the nonzero differential sends the sweep to the scan for its report
    g = furch_ball(3, 3, 2, straight_path(3, 3, 2)).realization
    with pytest.raises(NotTightError) as expected:
        oracle.sweep_perfect_morse(g, (1, 17, -289))
    with pytest.raises(NotTightError) as got:
        sweep_perfect_morse(g, (1, 17, -289))
    assert str(got.value) == str(expected.value)
    assert got.value.report == expected.value.report and not got.value.report.tight


@settings(max_examples=60, deadline=None)
@given(realizations(), directions)
def test_zero_differential_iff_prefix_tight(g, direction):
    # whenever the sweep loop gets through, its Morse differential is zero
    # exactly when every sweep prefix injects (the scan of the oracle)
    try:
        pairs = algorithms._sweep_pairs(g.complex, sweep_order(g, direction).vertices)
    except LinkNotPlanarCollapsibleError:
        return
    m = morse.MorseMatching(g.complex, frozenset(pairs))
    morse.validate(m)
    zero = not any(morse.morse_differential(m).values())
    assert zero == tightness_oracle.is_prefix_tight(g, direction).tight


def test_sweep_closes_no_face_family_again(monkeypatch):
    # the punctured last link is a closed family minus one top face
    g = convex_fixture("delta4_boundary")
    expected = oracle.sweep_perfect_morse(g, (1, 2, 4, 8)).pairs
    monkeypatch.setattr(complex_core, "_close", raise_when_called)
    assert sweep_perfect_morse(g, (1, 2, 4, 8)).pairs == expected
