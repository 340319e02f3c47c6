import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tightmorse import (
    barycentric_subdivision,
    betti,
    cone,
    deletion,
    free_faces,
    from_facets,
    join,
    link,
    restrict,
    star,
    suspension,
)
from tightmorse.complex_core import (
    EMPTY_COMPLEX,
    boundary_complex,
    canonical_face,
    from_faces,
    is_closed_surface,
)
from tightmorse.constructions import _is_two_sphere, checkerboard, dunce_hat, grid_ball
from tightmorse.errors import (
    EmptyInputError,
    LabelClashError,
    MalformedFacetError,
    VertexNotFoundError,
)
from tightmorse.morse import FaceSetCollapser

import complex_oracle as oracle
from conftest import fan_disc, random_complexes, torus_3x3


def test_single_triangle_closure(triangle):
    assert triangle.f_vector == (3, 3, 1)
    assert triangle.facets == ((1, 2, 3),)


def test_checkerboard_f_vector(checkerboard):
    assert checkerboard.f_vector == (6, 12, 4)


def test_facet_absorption(triangle):
    assert from_facets([(1, 2), (2, 3), (1, 2, 3)]) == triangle


def facets_by_all_subfaces(c):
    """Maximal faces as first defined: no face of any dimension contains them."""
    non_maximal = {sub for f in c.faces() for sub in oracle.subfaces(f)}
    return tuple(f for d in range(c.dimension, -1, -1) for f in c.faces(d) if f not in non_maximal)


@settings(max_examples=150, deadline=None)
@given(random_complexes)
def test_facets_match_all_subfaces_definition(c):
    assert c.facets == facets_by_all_subfaces(c)


@pytest.mark.parametrize(
    "c",
    [grid_ball(2, 2, 2).complex, dunce_hat(), checkerboard(), EMPTY_COMPLEX, from_facets([(4,)])],
    ids=["grid(2,2,2)", "dunce_hat", "checkerboard", "empty", "point"],
)
def test_facets_fixed_complexes(c):
    assert c.facets == facets_by_all_subfaces(c)


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        from_facets([])


def test_malformed_facet_rejected():
    with pytest.raises(MalformedFacetError):
        from_facets([(1, 1, 2)])


def test_link_in_triangle(triangle):
    lk = link(triangle, 1)
    assert lk.faces() == ((2,), (3,), (2, 3))


def test_link_in_e_is_two_disjoint_edges(checkerboard):
    for v in checkerboard.vertices:
        lk = link(checkerboard, v)
        assert lk.f_vector == (4, 2)
        assert betti(lk) == (2, 0)


def test_link_in_sphere(boundary_delta3):
    lk = link(boundary_delta3, 1)
    assert lk == from_facets([(2, 3), (3, 4), (2, 4)])


def test_link_missing_vertex(triangle):
    with pytest.raises(VertexNotFoundError):
        link(triangle, 9)


def test_deletion_from_boundary_delta3(boundary_delta3):
    assert deletion(boundary_delta3, 4) == from_facets([(1, 2, 3)])


def test_deletion_from_e_set_arithmetic(checkerboard):
    # oracle: plain set arithmetic on the stored faces
    expected = from_faces([f for f in checkerboard.faces() if 1 not in f])
    got = deletion(checkerboard, 1)
    assert got == expected
    assert got.f_vector == (5, 8, 2)
    assert (5, 6) in got  # the edge left behind by the two deleted triangles


def test_deletion_of_cone_apex(triangle):
    apex = 9
    coned = cone(triangle, apex)
    assert deletion(coned, apex) == triangle


def test_star_in_triangle(triangle):
    assert star(triangle, 1) == triangle


def test_star_in_e(checkerboard):
    expected = from_facets([(1, 2, 3), (1, 5, 6)])
    assert star(checkerboard, 1) == expected
    assert expected.f_vector == (5, 6, 2)


def test_star_of_cone_apex(checkerboard):
    coned = cone(checkerboard, 10)
    assert star(coned, 10) == coned


def test_cone_over_circle(boundary_delta2):
    coned = cone(boundary_delta2, 4)
    assert coned.f_vector == (4, 6, 3)


def test_cone_label_clash(triangle):
    with pytest.raises(LabelClashError):
        cone(triangle, 2)


def test_suspension_of_two_points():
    two = from_facets([(1,), (2,)])
    sus, north, south = suspension(two)
    assert sus.f_vector == (4, 4)
    assert betti(sus) == (1, 1)  # a 4-cycle
    assert {north, south} == {3, 4}


def test_boundary_of_cone_over_simplex(simplex3):
    coned = cone(simplex3, 7)
    assert boundary_complex(coned).f_vector == (5, 10, 10, 5)


def test_closed_surface_and_two_sphere(boundary_delta3, boundary_delta2, checkerboard, simplex3):
    second = from_facets([(4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)])
    pinched = from_facets(boundary_delta3.face_set(2) | second.face_set(2))
    fin = from_facets(boundary_delta3.face_set(2) | {(1, 2, 9)})
    assert betti(torus_3x3()) == (1, 2, 1)
    for c, closed, sphere in [
        (boundary_delta3, True, True),
        (pinched, True, False),  # two spheres sharing vertex 4
        (torus_3x3(), True, False),
        (fin, False, False),  # edge (1, 2) lies in three triangles
        (checkerboard, False, False),
        (boundary_delta2, False, False),
        (simplex3, False, False),
        (EMPTY_COMPLEX, False, False),
    ]:
        assert is_closed_surface(c) is closed
        assert _is_two_sphere(c) is sphere


def test_join_relabels_on_clash(triangle):
    # the edge's labels 1, 2 move past the triangle's to 4, 5
    joined = join(triangle, from_facets([(1, 2)]))
    assert joined.facets == ((1, 2, 3, 4, 5),)  # triangle * edge
    assert join(triangle, from_facets([(7, 8)])).facets == ((1, 2, 3, 7, 8),)


def test_sd_of_triangle(triangle):
    sd = barycentric_subdivision(triangle)
    assert sd.f_vector == (7, 12, 6)


def test_sd_chain_enumeration_oracle(triangle):
    # chains in the face poset, counted directly
    faces = triangle.faces()
    below = {f: [g for g in faces if set(g) < set(f)] for f in faces}

    def count_chains(length):
        total = 0

        def extend(chain):
            nonlocal total
            if len(chain) == length:
                total += 1
                return
            for g in below[chain[-1]]:
                extend(chain + (g,))

        for f in faces:
            extend((f,))
        return total

    sd = barycentric_subdivision(triangle)
    assert sd.f_vector == (count_chains(1), count_chains(2), count_chains(3))


def test_sd_of_edge_is_path():
    sd = barycentric_subdivision(from_facets([(1, 2)]))
    assert sd.f_vector == (3, 2)


def test_sd_preserves_euler_and_betti(checkerboard):
    sd = barycentric_subdivision(checkerboard)
    assert sd.euler_characteristic == checkerboard.euler_characteristic == -2
    assert betti(sd) == (1, 3, 0)
    # vertex i is the barycenter of faces()[i]; edges join a face to a coface
    faces = checkerboard.faces()
    assert sd.vertices == tuple(range(len(faces)))
    assert all(set(faces[i]) < set(faces[j]) for i, j in sd.face_set(1))


def test_free_faces_of_triangle(triangle):
    free = dict(free_faces(triangle))
    assert set(free) == {(1, 2), (1, 3), (2, 3)}


def test_free_faces_of_e_are_its_edges(checkerboard):
    free = free_faces(checkerboard)
    assert sorted(f for f, _ in free) == list(checkerboard.faces(1))
    for edge, coface in free:
        assert len(coface) == 3 and set(edge) < set(coface)


def test_sphere_has_no_free_faces(boundary_delta3):
    assert free_faces(boundary_delta3) == []


def test_restrict_is_induced(checkerboard):
    sub = restrict(checkerboard, [1, 2, 3])
    assert sub == from_facets([(1, 2, 3)])


def test_join_associative_on_disjoint_labels():
    a = from_facets([(0, 1)])
    b = from_facets([(10,), (11,)])
    c = from_facets([(20, 21)])
    left = join(join(a, b), c)
    right = join(a, join(b, c))
    assert left == right  # disjoint labels, so no relabeling happens


# -- property tests -----------------------------------------------------------

facet_lists = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_downward_closure_property(facets):
    c = from_facets(facets)
    for face in c.faces():
        for k in range(1, len(face)):
            for sub in itertools.combinations(face, k):
                assert sub in c


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_star_deletion_link_decomposition(facets):
    c = from_facets(facets)
    v = c.vertices[0]
    st_faces = set(star(c, v).faces())
    del_faces = set(deletion(c, v).faces())
    lk = link(c, v)
    assert st_faces | del_faces == set(c.faces())
    assert st_faces & del_faces == set(lk.faces())


@settings(max_examples=25, deadline=None)
@given(facet_lists)
def test_double_cone_is_acyclic(facets):
    c = from_facets(facets)
    cc = cone(cone(c, 90), 91)
    b = betti(cc)
    assert b[0] == 1 and all(x == 0 for x in b[1:])


@settings(max_examples=20, deadline=None)
@given(facet_lists)
def test_sd_preserves_betti_property(facets):
    c = from_facets(facets)
    assert betti(barycentric_subdivision(c)) == betti(c)


def test_sd_f_vector_against_direct_enumeration():
    # count(f) = chains of the face poset ending at f; their total is the
    # number of sd faces, and per-length counts give the sd f-vector.
    for c in (fan_disc(3), from_facets([(1, 2, 3), (3, 4, 5)])):
        faces = c.faces()
        below = {f: [g for g in faces if set(g) < set(f)] for f in faces}
        per_length: dict[int, int] = {}

        def extend(chain):
            per_length[len(chain)] = per_length.get(len(chain), 0) + 1
            for g in below[chain[-1]]:
                extend(chain + (g,))

        for f in faces:
            extend((f,))
        sd = barycentric_subdivision(c)
        assert sd.f_vector == tuple(per_length[k] for k in sorted(per_length))
        assert sd.euler_characteristic == c.euler_characteristic


# -- against the oracle: every operator closed by the all-subsets closure ------

def assert_matches_oracle(c, facets, rnd):
    """The operators that build complexes and free_faces, against the oracle;
    c is the complex generated by facets."""
    assert from_facets(facets) == oracle.close([canonical_face(f) for f in facets]) == c
    shuffled = list(c.faces())
    rnd.shuffle(shuffled)
    assert from_faces(shuffled) == c
    for v in c.vertices:
        assert link(c, v) == oracle.link(c, v)
        assert star(c, v) == oracle.star(c, v)
    apex = max(c.vertices) + 1
    assert cone(c, apex) == oracle.cone(c, apex)
    assert suspension(c) == oracle.suspension(c)
    assert join(c, c) == oracle.join(c, c)  # relabels the second copy
    assert join(c, link(c, c.vertices[0])) == oracle.join(c, link(c, c.vertices[0]))
    free = oracle.free_faces(c)
    assert free_faces(c) == free
    assert FaceSetCollapser(c).free_pairs() == free


@settings(max_examples=60, deadline=None)
@given(facet_lists, st.randoms(use_true_random=False))
def test_operators_match_oracle_on_facet_lists(facets, rnd):
    assert_matches_oracle(from_facets(facets), facets, rnd)


@settings(max_examples=60, deadline=None)
@given(random_complexes, st.randoms(use_true_random=False))
def test_operators_match_oracle_on_random_complexes(c, rnd):
    assert_matches_oracle(c, c.facets, rnd)


@settings(max_examples=100, deadline=None)
@given(st.one_of(facet_lists.map(from_facets), random_complexes))
def test_link_and_deletion_match_oracle_at_every_vertex(c):
    # link and deletion cut the stored levels; the oracle closes its faces again
    for v in c.vertices:
        for got, want in ((link(c, v), oracle.link(c, v)), (deletion(c, v), oracle.deletion(c, v))):
            assert got == want and got.f_vector == want.f_vector


@st.composite
def overlapping_facets(draw):
    """Facets of up to 5 vertices, shuffled among repeats of some of them (in
    any vertex order) and faces nested inside them."""
    facets = draw(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True), min_size=1, max_size=6))
    extra = []
    for f in draw(st.lists(st.sampled_from(facets), max_size=4)):
        extra.append(draw(st.permutations(f)))
        extra.append(draw(st.lists(st.sampled_from(f), min_size=1, max_size=len(f), unique=True)))
    return draw(st.permutations(facets + extra))


@settings(max_examples=100, deadline=None)
@given(overlapping_facets())
def test_closure_matches_oracle_on_overlapping_facets(facets):
    closed = oracle.close([canonical_face(f) for f in facets])
    assert from_facets(facets) == closed
    assert from_faces(facets + [()]) == closed
    assert from_faces(reversed(closed.faces())) == closed


def test_empty_face_closes_to_the_empty_complex():
    assert from_faces([()]) == from_faces([(), ()]) == oracle.close([()]) == EMPTY_COMPLEX


def test_operators_on_the_empty_complex_match_oracle():
    assert from_faces([]) == oracle.close([]) == EMPTY_COMPLEX
    assert cone(EMPTY_COMPLEX, 3) == oracle.cone(EMPTY_COMPLEX, 3)
    assert suspension(EMPTY_COMPLEX) == oracle.suspension(EMPTY_COMPLEX)
    assert join(EMPTY_COMPLEX, EMPTY_COMPLEX) == EMPTY_COMPLEX
    assert free_faces(EMPTY_COMPLEX) == oracle.free_faces(EMPTY_COMPLEX) == []
    isolated = from_facets([(1, 2), (5,)])
    assert star(isolated, 5) == oracle.star(isolated, 5) == from_facets([(5,)])
