import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import constructions_oracle
from tightmorse import betti, free_faces, from_facets
from tightmorse.algorithms import collapsible, nonevasive, verify_certificate
from tightmorse.complex_core import boundary_complex, deletion, from_faces, link
from tightmorse.constructions import (
    LatticePath,
    _cube_tets,
    _hull_triangles,
    _is_two_sphere,
    checkerboard,
    cone_sphere,
    convex_fixture,
    dunce_hat,
    furch_ball,
    grid_ball,
    remove_facet,
    stacked_ball,
    straight_path,
    suspension_realization,
    trefoil_path,
    verify_convex_position,
    wedge_thicken,
)
from tightmorse.errors import (
    FacetNotFoundError,
    LabelClashError,
    NotABallError,
    NotBoundaryTriangleError,
    PathNotTopToBottomError,
    PathSelfIntersectsError,
    PathTouchesWallError,
    UnknownFixtureError,
)
from tightmorse.geometry import GeometricRealization


# -- grid balls -----------------------------------------------------------------

def test_grid_ball_unit_cube():
    g = grid_ball(1, 1, 1)
    assert g.complex.f_vector == (8, 19, 18, 6)
    assert g.complex.euler_characteristic == 1


def test_grid_ball_2x1x1():
    g = grid_ball(2, 1, 1)
    assert g.complex.vertex_count == 12
    assert len(g.complex.face_set(3)) == 12


def test_grid_ball_homology():
    g = grid_ball(3, 3, 3)
    assert betti(g.complex) == (1, 0, 0, 0)
    assert _is_two_sphere(boundary_complex(g.complex))


def test_grid_diagonal_rule_consistent():
    # every square face shared by two cubes carries the same diagonal, so
    # the union of the per-cube closures has no extra edges
    g = grid_ball(2, 2, 1)
    per_cube_edges = set()
    for cube in itertools.product(range(2), range(2), range(1)):
        for tet in _cube_tets(cube, 2, 1):
            for e in itertools.combinations(sorted(tet), 2):
                per_cube_edges.add(e)
    assert per_cube_edges == set(g.complex.face_set(1))


# -- drilling -----------------------------------------------------------------

def test_straight_furch():
    ball = furch_ball(3, 3, 3, straight_path(3, 3, 3))
    c = ball.realization.complex
    assert betti(c) == (1, 0, 0, 0)
    rim = boundary_complex(c)
    assert _is_two_sphere(rim)
    x, y = ball.spanning_edge
    assert ball.spanning_edge not in rim
    assert (x,) in rim.face_set(0) and (y,) in rim.face_set(0)


def test_furch_straight_7x7x7():
    ball = furch_ball(7, 7, 7, straight_path(7, 7, 7))
    assert betti(ball.realization.complex) == (1, 0, 0, 0)


def test_furch_wall_guard():
    path = LatticePath(tuple((0, 1, k) for k in range(2, -1, -1)))
    with pytest.raises(PathTouchesWallError):
        furch_ball(3, 3, 3, path)


def test_furch_top_to_bottom_guard():
    path = LatticePath(((1, 1, 1), (1, 1, 0)))
    with pytest.raises(PathNotTopToBottomError):
        furch_ball(3, 3, 3, path)


def test_path_self_intersection_guard():
    with pytest.raises(PathSelfIntersectsError):
        LatticePath(((1, 1, 2), (1, 1, 1), (1, 1, 2)))


def test_trefoil_path_audit():
    path, box = trefoil_path()
    cubes = path.cubes
    nx, ny, nz = box
    # clearance and mouth structure
    assert all(1 <= x <= nx - 2 and 1 <= y <= ny - 2 for x, y, _ in cubes)
    assert [c for c in cubes if c[2] == nz - 1] == [cubes[0]]
    assert [c for c in cubes if c[2] == 0] == [cubes[-1]]
    # the tube never touches itself across a face (knot integrity)
    for i, a in enumerate(cubes):
        for j in range(i + 2, len(cubes)):
            assert sum(abs(p - q) for p, q in zip(a, cubes[j])) > 1
    # the removed tube is itself a ball, so it is an honest tunnel
    tets = []
    for cube in cubes[:-1]:
        tets.extend(_cube_tets(cube, ny, nz))
    assert betti(from_facets(tets)) == (1, 0, 0, 0)


def test_trefoil_furch_certification():
    path, box = trefoil_path()
    ball = furch_ball(*box, path)
    c = ball.realization.complex
    assert betti(c) == (1, 0, 0, 0)
    rim = boundary_complex(c)
    assert _is_two_sphere(rim)
    x, y = ball.spanning_edge
    assert ball.spanning_edge in c and ball.spanning_edge not in rim
    assert (x,) in rim.face_set(0) and (y,) in rim.face_set(0)


# -- cone spheres ------------------------------------------------------------------

def test_cone_sphere_of_simplex(simplex3):
    cs = cone_sphere(simplex3)
    assert cs.complex.f_vector == (5, 10, 10, 5)  # boundary of the 4-simplex
    assert betti(cs.complex) == (1, 0, 0, 1)


def test_cone_sphere_of_grid():
    cs = cone_sphere(grid_ball(2, 2, 2).complex)
    assert betti(cs.complex) == (1, 0, 0, 1)
    assert cs.complex.euler_characteristic == 0


def test_cone_sphere_rejects_non_ball(boundary_delta3):
    with pytest.raises(NotABallError):
        cone_sphere(boundary_delta3)


def test_remove_facet_collapsible(simplex3):
    cs = cone_sphere(simplex3)
    ball = remove_facet(cs.complex, cs.complex.facets[0])
    assert collapsible(ball, strategy="greedy", seed=0).status == "yes"


def test_remove_facet_guard(simplex3):
    with pytest.raises(FacetNotFoundError):
        remove_facet(simplex3, (1, 2, 3))  # a face but not a facet


# -- wedge thickening -----------------------------------------------------------------

def test_wedge_thicken_two_simplices():
    b1 = from_facets([(1, 2, 3, 4)])
    b2 = from_facets([(5, 6, 7, 8)])
    w = wedge_thicken(b1, b2, (2, 3, 4), (6, 7, 8))
    assert w.complex.vertex_count == 8  # 4 + 4 - 1 + 1
    assert betti(w.complex) == (1, 0, 0, 0)
    # deletion of the apex is the wedge plus the two exposed pyramid walls
    deleted = deletion(w.complex, w.apex)
    extra = set(deleted.faces()) - set(w.wedge.faces())
    assert set(w.side_walls) <= extra
    assert all(w.wedge_point in f or len(f) <= 2 for f in extra)
    res = nonevasive(w.complex)
    assert res.status == "yes"
    assert verify_certificate(w.complex, res.certificate)


def test_wedge_thicken_guards():
    b1 = from_facets([(1, 2, 3, 4)])
    with pytest.raises(LabelClashError):
        wedge_thicken(b1, b1, (2, 3, 4), (2, 3, 4))
    b2 = from_facets([(5, 6, 7, 8)])
    with pytest.raises(NotBoundaryTriangleError):
        wedge_thicken(b1, b2, (1, 2, 9), (6, 7, 8))


# -- convex fixtures --------------------------------------------------------------------

def test_simplex3_fixture():
    g = convex_fixture("simplex3")
    assert g.coords[0] == (0, 0, 0)
    assert g.complex.f_vector == (4, 6, 4, 1)
    assert verify_convex_position(g)


def test_octahedron_fixture(octahedron):
    assert octahedron.complex.f_vector == (6, 12, 8)
    assert betti(octahedron.complex) == (1, 0, 1)
    assert verify_convex_position(octahedron)


def test_icosahedron_fixture():
    g = convex_fixture("icosahedron_boundary")
    assert g.complex.f_vector == (12, 30, 20)
    assert verify_convex_position(g)


def test_schlegel_fixture():
    g = convex_fixture("schlegel_cross4")
    assert g.complex.f_vector == (8, 24, 32, 15)
    assert betti(g.complex) == (1, 0, 0, 0)


def test_stacked_fixture_parse_and_convexity():
    g = convex_fixture("stacked(4)")
    assert len(g.complex.face_set(3)) == 5
    assert verify_convex_position(g)
    g2 = convex_fixture("stacked(3,7)")
    assert len(g2.complex.face_set(3)) == 4
    assert verify_convex_position(g2)
    assert convex_fixture("stacked(0)").complex.f_vector == (4, 6, 4, 1)
    assert convex_fixture("stacked( 3 , 1 )") == stacked_ball(3, seed=1)


def test_malformed_stacked_fixture_rejected():
    # stacked(-3) gave the bare simplex and stacked(3,1,9) dropped the 9
    for name in ("stacked(-3)", "stacked(3,1,9)", "stacked()", "stacked(3,)"):
        with pytest.raises(UnknownFixtureError):
            convex_fixture(name)
    with pytest.raises(ValueError, match="must not be negative"):
        stacked_ball(-1)


def test_stacked_seeds_vary():
    a = stacked_ball(5, seed=0)
    b = stacked_ball(5, seed=1)
    assert a.complex.f_vector == b.complex.f_vector
    assert a.complex != b.complex


def test_stacked_ball_golden():
    # recorded before the support planes were computed once per stacking step
    g = stacked_ball(8, seed=3)
    coords = {
        0: ("0", "0", "0"), 1: ("1", "0", "0"), 2: ("0", "1", "0"), 3: ("0", "0", "1"),
        4: ("1/3", "-1/2", "1/3"), 5: ("1/2", "1/2", "1/2"), 6: ("-1/8", "1/3", "1/3"),
        7: ("3/4", "3/4", "1/6"), 8: ("1/6", "33/64", "33/64"), 9: ("33/64", "1/6", "33/64"),
        10: ("-217/1752", "4/9", "211/2628"), 11: ("1/3", "1/3", "-1/16"),
    }
    assert {v: tuple(map(Fraction, p)) for v, p in coords.items()} == g.coords
    assert sorted(g.complex.facets) == [
        (0, 1, 2, 3), (0, 1, 2, 11), (0, 1, 3, 4), (0, 2, 3, 6), (0, 2, 6, 10),
        (1, 2, 3, 5), (1, 2, 5, 7), (1, 3, 5, 9), (2, 3, 5, 8),
    ]
    assert verify_convex_position(g)


@pytest.mark.parametrize("k", [20, 24])
def test_unseeded_stacked_ball_past_nineteen_stackings(k):
    # raised MorseInvariantError: stacking always on the first rim triangle
    # needed an eps below the 64 halvings that were tried
    g = stacked_ball(k)
    assert len(g.complex.facets) == k + 1
    assert verify_convex_position(g)
    assert betti(g.complex) == (1, 0, 0, 0)


# -- the support test and the exact stacking rule against the oracle -------------------

coordinates = st.fractions(min_value=-2, max_value=2, max_denominator=3)
points3 = st.tuples(coordinates, coordinates, coordinates)


def _along(p, d, ts):
    return [tuple(a + t * b for a, b in zip(p, d)) for t in ts]


def _tetrahedron_and_centroid(ps):
    return ps + [tuple(sum(axis) / 4 for axis in zip(*ps[:4]))]


# 4 to 7 points: general, collinear, coplanar, and a tetrahedron with its
# centroid (never in convex position)
point_sets = st.one_of(
    st.lists(points3, min_size=4, max_size=7),
    st.builds(_along, points3, points3, st.lists(coordinates, min_size=4, max_size=6)),
    st.builds(
        lambda a, b, c, xys: [(x, y, a * x + b * y + c) for x, y in xys],
        coordinates, coordinates, coordinates,
        st.lists(st.tuples(coordinates, coordinates), min_size=4, max_size=6),
    ),
    st.lists(points3, min_size=4, max_size=5).map(_tetrahedron_and_centroid),
).map(lambda ps: dict(enumerate(ps)))


@settings(max_examples=150, deadline=None)
@given(point_sets, st.data())
def test_support_test_matches_centroid_oracle(points, data):
    hull = _hull_triangles(points)
    assert hull == constructions_oracle._hull_triangles(points)
    size = data.draw(st.sampled_from((3, 4)), label="facet size")
    facets = data.draw(st.lists(
        st.lists(st.sampled_from(sorted(points)), min_size=size, max_size=size, unique=True),
        min_size=1, max_size=6,
    ), label="facets")
    # every point is a vertex, so each triangle has another point to support
    vertices = [(v,) for v in points]
    for faces in (facets, hull):
        g = GeometricRealization(from_faces(vertices + [tuple(sorted(f)) for f in faces]), points, 3)
        assert verify_convex_position(g) == constructions_oracle.verify_convex_position(g)


@pytest.mark.parametrize("g, convex", [
    (grid_ball(1, 1, 1), False),
    (grid_ball(2, 2, 1), False),
    (convex_fixture("icosahedron_boundary"), True),
    (convex_fixture("octahedron_boundary"), True),
    (stacked_ball(6, seed=2), True),
], ids=["grid111", "grid221", "icosahedron", "octahedron", "stacked6s2"])
def test_convex_position_matches_centroid_oracle_on_fixtures(g, convex):
    assert verify_convex_position(g) == constructions_oracle.verify_convex_position(g) == convex


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(0, 19), st.none()),
    st.tuples(st.integers(0, 14), st.integers(0, 2**32)),
))
def test_stacked_ball_matches_halving_oracle(k_seed):
    # the exact eps rule picks what the halving loop picked wherever that
    # loop succeeds: unseeded up to 19 stackings, and seeded well beyond
    g = stacked_ball(*k_seed)
    oracle = constructions_oracle.stacked_ball(*k_seed)
    assert g.coords == oracle.coords
    assert g.complex == oracle.complex


def test_unknown_fixture():
    with pytest.raises(UnknownFixtureError):
        convex_fixture("rudin")


# -- fixed complexes -----------------------------------------------------------------------

def test_checkerboard_links(checkerboard):
    for v in checkerboard.vertices:
        assert link(checkerboard, v).f_vector == (4, 2)


def test_dunce_hat_properties():
    dh = dunce_hat()
    assert dh.f_vector == (8, 24, 17)
    assert betti(dh) == (1, 0, 0)
    assert free_faces(dh) == []


def test_suspension_realization_structure():
    dh = dunce_hat()
    sus, north, south = suspension_realization(dh)
    assert sus.complex.vertex_count == dh.vertex_count + 2
    assert sus.coords[north][3] == 1 and sus.coords[south][3] == -1
    assert free_faces(sus.complex) == []
