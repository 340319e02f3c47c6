from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import embedding_oracle

from tightmorse import betti, from_facets
from tightmorse.constructions import (
    checkerboard,
    convex_fixture,
    dunce_hat,
    grid_ball,
    stacked_ball,
    suspension_realization,
)
from tightmorse.errors import (
    DegenerateDirectionError,
    InvalidEmbeddingError,
    NotTightError,
    ThresholdHitsVertexError,
)
from tightmorse.geometry import (
    GeometricRealization,
    check_tightness_sampled,
    is_pi_tight,
    is_prefix_tight,
    sweep_order,
    upper_subcomplex,
    verify_embedding,
    verify_lemma_betti_recursion,
)


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


def test_upper_subcomplex_thresholds():
    g = delta3_realization()
    c = g.complex
    assert upper_subcomplex(g, (1, 2, 4), -1) == c
    top = upper_subcomplex(g, (1, 2, 4), Fraction(7, 2))
    assert top.faces() == ((3,),)
    mid = upper_subcomplex(g, (1, 2, 4), 3)  # between e2 and e3
    assert mid.faces() == ((3,),)
    with pytest.raises(ThresholdHitsVertexError):
        upper_subcomplex(g, (1, 2, 4), 2)


def test_upper_subcomplex_monotone():
    g = delta3_realization()
    prev = None
    for t in (Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(3)):
        cur = set(upper_subcomplex(g, (1, 2, 4), t).faces())
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_simplex_is_tight_any_direction():
    g = delta3_realization()
    rep = is_pi_tight(g, (1, 2, 4))
    assert rep.tight and not rep.failures


def test_v_path_fails_tightness():
    rep = is_pi_tight(v_path(), (0, 1))
    assert not rep.tight
    failure = rep.failures[0]
    assert failure.dim == 0 and failure.betti_sub == 2 and failure.image_rank == 1


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
    rep = verify_lemma_betti_recursion(delta3_realization(), (1, 2, 4))
    assert rep.ok and rep.top_vertex == 3


def test_betti_recursion_octahedron():
    g = convex_fixture("octahedron_boundary")
    rep = verify_lemma_betti_recursion(g, (1, 2, 4))
    assert rep.ok


def test_betti_recursion_requires_tightness():
    roof = from_facets([(1, 2), (2, 3)])
    g = GeometricRealization(roof, {1: (0, 0), 2: (1, 2), 3: (2, Fraction(1, 8))}, 2)
    with pytest.raises(NotTightError):
        verify_lemma_betti_recursion(g, (0, 1))


def test_betti_recursion_isolated_top_vertex():
    c = from_facets([(1, 2), (3,)])
    g = GeometricRealization(c, {1: (0, 0), 2: (1, 1), 3: (0, 5)}, 2)
    rep = verify_lemma_betti_recursion(g, (0, 1))
    assert rep.ok and rep.top_vertex == 3


def test_prefixes_of_tight_fixture_stay_tight():
    g = stacked_ball(4)
    d = (3, 2, 1)
    order = sweep_order(g, d)
    assert is_prefix_tight(g, d).tight
    for j in range(2, len(order.vertices) + 1):
        prefix = g.restricted(order.vertices[:j])
        assert is_prefix_tight(prefix, d).tight
        assert is_pi_tight(prefix, tuple(-x for x in d)).tight


def test_suspension_fixture_is_tight_in_r4():
    sus, north, south = suspension_realization(dunce_hat())
    assert tuple(betti(sus.complex)) == (1, 0, 0, 0)
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
    R^k), with integer points, coincident ones too, in a box of side 2-4 in
    R^2 or R^3."""
    k = draw(st.sampled_from([2, 3]))
    c = from_facets(draw(st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=k + 1, unique=True), min_size=2, max_size=6
    )))
    side = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(0, side)] * k)
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
