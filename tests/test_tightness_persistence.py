"""The persistence reduction against the per-threshold oracle.

``tightness_oracle`` rebuilds every upper set and computes a kernel basis for
each, as the library did before it reduced the upper-star filtration once;
tightness reports must be equal field by field, and inclusion checks must
give the same answer in every dimension.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import homology_oracle
import tightness_oracle as oracle
from tightmorse import from_facets, geometry, inclusion_induced_injective
from tightmorse.complex_core import from_faces, restrict
from tightmorse.constructions import furch_ball, grid_ball, straight_path
from tightmorse.geometry import GeometricRealization, is_pi_tight, is_prefix_tight, sweep_order
from tightmorse.homology_z2 import persistence_pairs

from conftest import drilled_cone_sphere, random_complexes


def assert_same_as_oracle(g, direction):
    assert is_pi_tight(g, direction) == oracle.is_pi_tight(g, direction)
    assert is_prefix_tight(g, direction) == oracle.is_prefix_tight(g, direction)


facet_lists = st.lists(
    st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True), min_size=1, max_size=8
)


@st.composite
def realizations(draw):
    """A complex on at most 9 vertices of dimension at most 3, with distinct
    integer points in [0, 16]^k (k = 2 or 3) and a direction: either
    (±1, ±17, ±289) cut to k coordinates, which separates all heights, or
    one in {-1, 0, 1}^k other than zero, so heights tie often and the
    symbolic tie-break orders them."""
    c = from_facets(draw(facet_lists))
    k = draw(st.sampled_from([2, 3]))
    points = draw(st.lists(st.tuples(*[st.integers(0, 16)] * k), min_size=9, max_size=9, unique=True))
    if draw(st.booleans()):
        direction = draw(st.tuples(*[st.integers(-1, 1)] * k).filter(any))
    else:
        signs = draw(st.tuples(*[st.sampled_from([1, -1])] * k))
        direction = tuple(s * 17**e for e, s in enumerate(signs))
    return GeometricRealization(c, {v: points[v] for v in c.vertices}, k), direction


@settings(max_examples=200, deadline=None)
@given(realizations())
def test_tightness_matches_oracle(case):
    assert_same_as_oracle(*case)


@settings(max_examples=200, deadline=None)
@given(realizations())
def test_scan_reduces_the_oracle_filtration(case):
    """The scan's one stable sort of ``c.faces()`` equals the oracle's sort
    of (-position, size, face) tuples, for upper sets and for prefixes."""
    g, direction = case
    seen = []

    def spy(faces):
        seen.append(list(faces))
        return persistence_pairs(faces)

    vertices = sweep_order(g, direction).vertices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "persistence_pairs", spy)
        is_pi_tight(g, direction)
        is_prefix_tight(g, direction)
    assert seen == [
        oracle.upper_set_filtration(g.complex, vertices),
        oracle.upper_set_filtration(g.complex, vertices[::-1]),
    ]


def drilled(*dims):
    return furch_ball(*dims, straight_path(*dims)).realization


# straight-drilled balls fail the upper check along one sign of the last
# coordinate and the prefix check along the other
@pytest.mark.parametrize("dims", [(3, 3, 2), (4, 4, 3)], ids=["drilled3x3x2", "drilled4x4x3"])
@pytest.mark.parametrize("direction", [(1, 17, 289), (1, 17, -289)])
def test_drilled_balls_match_oracle(dims, direction):
    g = drilled(*dims)
    assert not is_pi_tight(g, (1, 17, 289)).tight
    assert_same_as_oracle(g, direction)


def test_grid_cube_matches_oracle():
    g = grid_ball(3, 3, 3)
    assert is_pi_tight(g, (1, 17, 289)).tight
    assert_same_as_oracle(g, (1, 17, 289))


def test_single_vertex_matches_oracle():
    g = GeometricRealization(from_facets([(4,)]), {4: (1, 2, 3)}, 3)
    assert is_pi_tight(g, (1, 17, 289)).checks == 0
    assert_same_as_oracle(g, (1, 17, 289))


def test_persistence_pairs_of_triangle():
    faces = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    # one component survives; the edge (2, 3) closes a cycle the triangle fills
    assert persistence_pairs(faces) == [(0, None), (1, 3), (2, 4), (5, 6)]


# (count, sha256 of repr) of the pairs, recorded from the reduction that built
# each column by slicing faces; in lexicographic and in reversed order per level
PAIRS_PINNED = {
    ("grid2", False): (147, "537ce33655d293f2b5a44669a23fdc7e83fddb4dc366931f0d88ead6ee4a8fbb"),
    ("grid2", True): (147, "b9634a543aaeec244916bd489c357be15773c5acc16ee5291272e2ab6b32590b"),
    ("cone", False): (614, "f9dee5a73087249e33461212baee8e45dd2076e076b7cc5d4863fbc6d9ba9384"),
    ("cone", True): (614, "7d0305182aff542fbde6ddd2053ee29b2009926328207bee5f737395744fcd50"),
}


@pytest.mark.parametrize("name, rev", list(PAIRS_PINNED))
def test_persistence_pairs_pinned(name, rev):
    c = grid_ball(2, 2, 2).complex if name == "grid2" else drilled_cone_sphere()
    faces = [f for d in range(c.dimension + 1) for f in (reversed(c.faces(d)) if rev else c.faces(d))]
    pairs = persistence_pairs(faces)
    assert (len(pairs), hashlib.sha256(repr(pairs).encode()).hexdigest()) == PAIRS_PINNED[name, rev]


@st.composite
def filtrations(draw):
    """A random complex's faces in one of the three orders the library
    reduces: by dimension (shuffled within each), the tightness scan's
    upper-set order for random distinct heights, and inclusion's order with
    the faces of a subcomplex (the closure of some faces) first."""
    c = draw(random_complexes)
    levels = [list(c.faces(d)) for d in range(c.dimension + 1)]
    order = draw(st.sampled_from(["dimension", "upper", "inclusion"]))
    if order == "dimension":
        return [f for level in levels for f in draw(st.permutations(level))]
    if order == "upper":
        position = {v: k for k, v in enumerate(draw(st.permutations(c.vertices)))}
        return sorted(c.faces(), key=lambda f: (-min(map(position.__getitem__, f)), len(f), f))
    keep = draw(st.sets(st.sampled_from(c.faces())))
    a = from_faces(keep)
    inner = [f for d in range(a.dimension + 1) for f in a.faces(d)]
    return inner + [f for level in levels for f in level if f not in a]


@settings(max_examples=300, deadline=None)
@given(filtrations())
def test_persistence_pairs_match_reduction_without_clearing(faces):
    assert persistence_pairs(faces) == homology_oracle.persistence_pairs(faces)


@settings(max_examples=200, deadline=None)
@given(
    facet_lists, st.sets(st.integers(0, 40)), st.sampled_from(["induced", "closure", "punctured"])
)
def test_inclusion_matches_oracle(facets, keep, mode):
    """a is the subcomplex of x induced on some vertices, the closure of some
    of its faces, or x without some of its facets."""
    x = from_facets(facets)
    if mode == "induced":
        a = restrict(x, keep)
    elif mode == "closure":
        a = from_faces([f for k, f in enumerate(x.faces()) if k in keep])
    else:
        dropped = {f for k, f in enumerate(x.facets) if k in keep}
        a = from_faces([f for f in x.faces() if f not in dropped])
    for i in range(-1, x.dimension + 2):
        assert inclusion_induced_injective(a, x, i) == oracle.inclusion_induced_injective(a, x, i)
