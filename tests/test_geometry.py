import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import embedding_oracle

from tightmorse import betti, embedding, from_facets
from tightmorse.constructions import (
    checkerboard,
    convex_fixture,
    dunce_hat,
    furch_ball,
    grid_ball,
    stacked_ball,
    straight_path,
    suspension_realization,
)
from tightmorse.errors import DegenerateDirectionError, DirectionLengthError, InvalidEmbeddingError
from tightmorse.geometry import (
    GeometricRealization,
    check_tightness_sampled,
    is_pi_tight,
    is_prefix_tight,
    sweep_order,
    verify_embedding,
)

from conftest import assert_betti_recursion, restricted


def delta3_realization():
    c = from_facets([(0, 1, 2, 3)])
    coords = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    return GeometricRealization(c, coords, 3)


def v_path(c_height=Fraction(17, 8)):
    c = from_facets([(1, 2), (2, 3)])
    return GeometricRealization(c, {1: (0, 2), 2: (1, 0), 3: (2, c_height)}, 2)


def test_sweep_order_simplex():
    order = sweep_order(delta3_realization(), (1, 2, 4))
    assert order.vertices == (0, 1, 2, 3)
    assert order.heights == (0, 1, 2, 4)


def test_sweep_order_breaks_symmetry_ties():
    # e1, e2, e3 all at height 1: the coordinate tuples order them
    order = sweep_order(delta3_realization(), (1, 1, 1))
    assert order.vertices == (0, 3, 2, 1)
    assert order.heights == (0, 1, 1, 1)


def test_flat_complex_fully_degenerate():
    # all heights equal, so the order is that of the coordinate tuples
    e = checkerboard()
    coords = {v: (-v, v * v, 0) for v in e.vertices}
    g = GeometricRealization(e, coords, 3)
    assert sweep_order(g, (0, 0, 1)).vertices == (6, 5, 4, 3, 2, 1)


def test_sweep_order_rejects_zero_direction():
    with pytest.raises(DegenerateDirectionError) as exc:
        sweep_order(delta3_realization(), (0, 0, 0))
    assert exc.value.ties == [] and str(exc.value) == "zero direction"
    point = GeometricRealization(from_facets([(1,)]), {1: ()}, 0)
    with pytest.raises(DegenerateDirectionError):
        check_tightness_sampled(point, 5)


def test_sweep_order_rejects_coincident_points():
    c = from_facets([(1, 2), (2, 3), (3, 4)])
    g = GeometricRealization(c, {1: (0, 0), 2: (1, 2), 3: (0, 0), 4: (1, 2)}, 2)
    for direction in ((0, 1), (1, 0), (-3, 5)):
        with pytest.raises(DegenerateDirectionError) as exc:
            sweep_order(g, direction)
        assert sorted(map(sorted, exc.value.ties)) == [[1, 3], [2, 4]]
    with pytest.raises(DegenerateDirectionError):
        is_pi_tight(g, (0, 1))


@pytest.mark.parametrize("direction", [(1, 2), (1, 2, 4, 8), ()])
def test_direction_of_wrong_length_rejected(direction):
    # the heights zipped the direction with the coordinates, so (1, 2)
    # silently swept a 3-D realization along (1, 2, 0)
    g = delta3_realization()
    message = f"direction has {len(direction)} coordinates, expected 3"
    with pytest.raises(DirectionLengthError, match=message):
        sweep_order(g, direction)


@st.composite
def tied_realizations(draw):
    """A complex on at most 9 vertices of dimension at most 3, with distinct
    integer points in [0, 16]^k (k = 2 or 3) and a direction in
    {-1, 0, 1}^k other than zero, so heights tie often."""
    c = from_facets(draw(st.lists(
        st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True), min_size=1, max_size=8
    )))
    k = draw(st.sampled_from([2, 3]))
    points = draw(st.lists(st.tuples(*[st.integers(0, 16)] * k), min_size=9, max_size=9, unique=True))
    direction = draw(st.tuples(*[st.integers(-1, 1)] * k).filter(any))
    return GeometricRealization(c, {v: points[v] for v in c.vertices}, k), direction


def scan_summary(report):
    return report.tight, report.checks, [(f.dim, f.betti_sub, f.image_rank) for f in report.failures]


@settings(max_examples=300, deadline=None)
@given(tied_realizations())
def test_symbolic_ties_match_explicit_perturbation(case):
    # with coordinates in [0, 16], eps = 1/64 already orders the heights
    # along d + eps e1 + eps^2 e2 + eps^3 e3 lexicographically
    g, direction = case
    eps = Fraction(1, 64)
    explicit = tuple(d + eps ** (i + 1) for i, d in enumerate(direction))
    assert sweep_order(g, direction).vertices == sweep_order(g, explicit).vertices
    assert scan_summary(is_pi_tight(g, direction)) == scan_summary(is_pi_tight(g, explicit))
    assert scan_summary(is_prefix_tight(g, direction)) == scan_summary(is_prefix_tight(g, explicit))


def test_simplex_is_tight_any_direction():
    g = delta3_realization()
    rep = is_pi_tight(g, (1, 2, 4))
    assert rep.tight and not rep.failures


def test_v_path_fails_tightness():
    rep = is_pi_tight(v_path(), (0, 1))
    assert not rep.tight
    failure = rep.failures[0]
    assert failure.dim == 0 and failure.betti_sub == 2 and failure.image_rank == 1


@pytest.mark.parametrize("shift, threshold", [(0, math.inf), (-4, -math.inf)], ids=["above", "below"])
def test_threshold_beyond_float_range_is_infinite(shift, threshold):
    # float() of the level midpoint raised OverflowError; the V path shifted
    # down by 4 fails at the negative level -3
    c = from_facets([(1, 2), (2, 3)])
    g = GeometricRealization(c, {1: (0, 2 + shift), 2: (1, shift), 3: (2, Fraction(17, 8) + shift)}, 2)
    rep = is_pi_tight(g, (0, 10**400))
    assert [(f.threshold, f.dim, f.betti_sub, f.image_rank) for f in rep.failures] == [(threshold, 0, 2, 1)]
    assert [(f.dim, f.betti_sub, f.image_rank) for f in is_pi_tight(g, (0, 1)).failures] == [(0, 2, 1)]


def test_upper_and_prefix_conventions_differ():
    # the mirror of the V (a roof) passes the upper check but not the
    # prefix check, and vice versa
    roof = from_facets([(1, 2), (2, 3)])
    g = GeometricRealization(roof, {1: (0, 0), 2: (1, 2), 3: (2, Fraction(1, 8))}, 2)
    assert is_pi_tight(g, (0, 1)).tight
    assert not is_prefix_tight(g, (0, 1)).tight
    gv = v_path()
    assert not is_pi_tight(gv, (0, 1)).tight
    assert is_prefix_tight(gv, (0, 1)).tight


def test_sampled_tightness_convex():
    rep = check_tightness_sampled(delta3_realization(), 30, seed=2)
    assert rep.fraction == 1.0


def test_sampled_tightness_v_path():
    rep = check_tightness_sampled(v_path(), 100, seed=0)
    assert rep.fraction < 1.0
    assert rep.failures
    # sampled directions are exact nonzero integer vectors
    assert all(type(x) is int for _, d, _ in rep.failures for x in d)
    assert all(any(d) for _, d, _ in rep.failures)


def test_sampled_tightness_single_point():
    g = GeometricRealization(from_facets([(4,)]), {4: (1, 2)}, 2)
    assert check_tightness_sampled(g, 10, seed=0).fraction == 1.0


def test_octahedron_tight_many_directions():
    g = convex_fixture("octahedron_boundary")
    rep = check_tightness_sampled(g, 100, seed=5)
    assert rep.fraction == 1.0


def test_convex_fixture_family_tight_in_sampled_directions():
    fixtures = [
        convex_fixture("simplex3"),
        convex_fixture("schlegel_cross4"),
        stacked_ball(4),
        stacked_ball(6, seed=1),
    ]
    for i, g in enumerate(fixtures):
        rep = check_tightness_sampled(g, 30, seed=10 + i)
        assert rep.fraction == 1.0


def test_betti_recursion_simplex():
    assert_betti_recursion(delta3_realization(), (1, 2, 4))


def test_betti_recursion_octahedron():
    assert_betti_recursion(convex_fixture("octahedron_boundary"), (1, 2, 4))


def test_prefixes_of_tight_fixture_stay_tight():
    g = stacked_ball(4)
    d = (3, 2, 1)
    order = sweep_order(g, d)
    assert is_prefix_tight(g, d).tight
    for j in range(2, len(order.vertices) + 1):
        prefix = restricted(g, order.vertices[:j])
        assert is_prefix_tight(prefix, d).tight
        assert is_pi_tight(prefix, tuple(-x for x in d)).tight


def test_suspension_fixture_is_tight_in_r4():
    sus, north, south = suspension_realization(dunce_hat())
    assert betti(sus.complex) == (1, 0, 0, 0)
    direction = (0, 0, 0, 1)
    assert is_pi_tight(sus, direction).tight
    assert is_prefix_tight(sus, direction).tight


def test_verify_embedding_accepts_simplex():
    verify_embedding(delta3_realization())


def test_verify_embedding_rejects_crossing_edges():
    c = from_facets([(1, 2), (3, 4)])
    coords = {1: (0, 0), 2: (2, 2), 3: (0, 2), 4: (2, 0)}
    with pytest.raises(InvalidEmbeddingError):
        verify_embedding(GeometricRealization(c, coords, 2))


def test_verify_embedding_rejects_degenerate_face():
    c = from_facets([(1, 2, 3)])
    coords = {1: (0, 0), 2: (1, 1), 3: (2, 2)}
    with pytest.raises(InvalidEmbeddingError):
        verify_embedding(GeometricRealization(c, coords, 2))


def triangle_and_collinear_edge():
    c = from_facets([(0, 1, 2), (1, 3)])
    coords = {0: (0, 0, 0), 1: (1, 0, 0), 2: (1, 0, 1), 3: (2, 0, 0)}
    return GeometricRealization(c, coords, 3)


def moved_through_neighbour(g):
    """g with one vertex reflected through the centroid of an interior triangle
    of a tetrahedron around it: the tetrahedron flips onto the other side of
    that triangle and overlaps the tetrahedron there."""
    tets = g.complex.facets
    for tet in tets:
        for v in tet:
            tri = tuple(u for u in tet if u != v)
            if any(other != tet and set(tri) <= set(other) for other in tets):
                centroid = [sum(Fraction(g.coords[u][i]) for u in tri) / 3 for i in range(3)]
                coords = dict(g.coords)
                coords[v] = tuple(2 * c - x for c, x in zip(centroid, g.coords[v]))
                return GeometricRealization(g.complex, coords, 3)
    raise AssertionError("no interior triangle")


GRID_DIMS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1)]


# valid embeddings whose faces meet in coplanar points, so that the contact
# systems of some pairs are rank-deficient
@pytest.mark.parametrize(
    "make",
    [triangle_and_collinear_edge] + [partial(grid_ball, *dims) for dims in GRID_DIMS],
    ids=["triangle+edge"] + ["grid(%d,%d,%d)" % dims for dims in GRID_DIMS],
)
def test_verify_embedding_accepts_coplanar_contacts(make):
    verify_embedding(make())


@pytest.mark.parametrize("dims", GRID_DIMS, ids=lambda d: "grid(%d,%d,%d)" % d)
def test_verify_embedding_rejects_vertex_moved_through_neighbour(dims):
    with pytest.raises(InvalidEmbeddingError):
        verify_embedding(moved_through_neighbour(grid_ball(*dims)))


@st.composite
def small_realizations(draw):
    """A complex on at most 7 vertices of dimension at most 3 (at most k in
    R^k), with points, coincident ones too, in a box of side 2-4 in R^2 or
    R^3: integer points in R^2, and in R^3 points whose coordinates share a
    denominator of 1-3."""
    k = draw(st.sampled_from([2, 3]))
    c = from_facets(draw(st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=k + 1, unique=True), min_size=2, max_size=6
    )))
    side = draw(st.integers(2, 4))
    den = draw(st.integers(1, 3)) if k == 3 else 1
    point = st.tuples(*[st.integers(0, side * den).map(lambda n: Fraction(n, den))] * k)
    return GeometricRealization(c, {v: draw(point) for v in c.vertices}, k)


@settings(max_examples=150, deadline=None)
@given(small_realizations())
def test_verify_embedding_matches_oracle(g):
    """The library accepts exactly what the all-faces, all-bases oracle accepts."""
    try:
        verify_embedding(g)
        accepted = True
    except InvalidEmbeddingError:
        accepted = False
    assert accepted == embedding_oracle.embeds(g)


@st.composite
def r3_realizations(draw):
    """A complex of dimension at most 3 on at most 8 vertices in R^3, its
    vertices placed on at most 8 points (so often several on one) whose
    coordinates are fractions n/d with 0 <= n <= 6 and 1 <= d <= 3."""
    c = from_facets(draw(st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True), min_size=2, max_size=8
    )))
    coordinate = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))
    points = draw(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=8))
    return GeometricRealization(c, {v: draw(st.sampled_from(points)) for v in c.vertices}, 3)


@settings(max_examples=300, deadline=None)
@given(r3_realizations())
def test_plane_certified_pairs_have_no_outside_mass(g):
    """A facet pair that a plane certifies has no common point outside its
    shared face, by the oracle's all-bases LP; affinely dependent facets are
    rejected before any pair is looked at, so they are skipped."""
    coords = embedding._exact_coords(g)
    ints = embedding._scaled_ints(coords)
    facets = [f for f in g.complex.facets if embedding._affinely_independent([coords[v] for v in f])]
    for a, fa in enumerate(facets):
        for fb in facets[a + 1:]:
            if embedding._plane_certifies(ints, fa, fb):
                worst = embedding_oracle.max_outside_mass(
                    [coords[v] for v in fa], [coords[v] for v in fb],
                    [i for i, v in enumerate(fa) if v in fb],
                )
                assert worst is None or worst <= 0, (fa, fb)


@pytest.mark.parametrize(
    "make",
    [partial(grid_ball, *dims) for dims in GRID_DIMS + [(2, 2, 2)]]
    + [
        lambda: furch_ball(3, 3, 2, straight_path(3, 3, 2)).realization,
        partial(stacked_ball, 12),
        partial(convex_fixture, "schlegel_cross4"),
    ],
    ids=["grid(%d,%d,%d)" % dims for dims in GRID_DIMS + [(2, 2, 2)]]
    + ["straight-drilled(3,3,2)", "stacked(12)", "schlegel_cross4"],
)
def test_verify_embedding_certifies_grid_balls_without_the_lp(monkeypatch, make):
    def no_lp(*args):
        raise AssertionError("the contact LP ran")

    g = make()
    monkeypatch.setattr(embedding, "_max_outside_mass", no_lp)
    verify_embedding(g)


def test_verify_embedding_tells_coincident_vertices_apart():
    # the tetrahedra share vertex 0, and vertex 4 of the second sits on
    # vertex 3 of the first: the hulls share the segment from 0 to 3, which
    # a comparison of coordinates would take for a shared edge
    c = from_facets([(0, 1, 2, 3), (0, 4, 5, 6)])
    coords = {
        0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1),
        4: (0, 0, 1), 5: (-1, 0, 1), 6: (0, -1, 1),
    }
    with pytest.raises(InvalidEmbeddingError, match=r"facets \(0, 1, 2, 3\) and \(0, 4, 5, 6\) overlap"):
        verify_embedding(GeometricRealization(c, coords, 3))
