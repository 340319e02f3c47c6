"""Shared fixtures: small complexes with known invariants."""

import pytest
from hypothesis import strategies as st

from tightmorse import betti, constructions, from_facets
from tightmorse.complex_core import SimplicialComplex, cone, link, restrict
from tightmorse.geometry import GeometricRealization, is_prefix_tight, sweep_order


# facets on vertices 0..6, optionally coned from 7: at most 8 vertices and
# dimension 3, and the cones are acyclic, so searches and collapses run past
# their homology prechecks
random_complexes = st.builds(
    lambda facets, coned: cone(from_facets(facets), 7) if coned else from_facets(facets),
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True), min_size=1, max_size=6),
    st.booleans(),
)


def alternating_sum(values) -> int:
    """sum_i (-1)^i values[i]: the Euler characteristic of a Betti or Morse vector."""
    return sum((-1) ** i * v for i, v in enumerate(values))


def restricted(g: GeometricRealization, vertices) -> GeometricRealization:
    """The induced subcomplex of g on the given vertices, with their coordinates."""
    keep = set(vertices)
    return GeometricRealization(restrict(g.complex, keep), {v: g.coords[v] for v in keep}, g.ambient_dim)


def assert_betti_recursion(g, direction) -> None:
    """The link/deletion Betti identity at the top vertex v of the sweep.

    Every sweep prefix of g must include injectively; then, in non-reduced
    mod-2 Betti numbers, with L the link of v in C = g.complex,

        b_i(L) + b_{i+1}(C - v) - delta_{i0} = b_{i+1}(C),

    with each Betti vector padded by zeros up to dimension dim C + 1.
    """
    assert is_prefix_tight(g, direction).tight
    order = sweep_order(g, direction)
    c, v = g.complex, order.vertices[-1]
    b_link, b_rest, b_c = (
        b + (0,) * (c.dimension + 2 - len(b))
        for b in (betti(link(c, v)), betti(restrict(c, order.vertices[:-1])), betti(c))
    )
    for i in range(c.dimension + 1):
        assert b_link[i] + b_rest[i + 1] - (i == 0) == b_c[i + 1], (v, i)


@pytest.fixture
def triangle() -> SimplicialComplex:
    return from_facets([(1, 2, 3)])


@pytest.fixture
def checkerboard() -> SimplicialComplex:
    return constructions.checkerboard()


@pytest.fixture
def simplex3() -> SimplicialComplex:
    return from_facets([(0, 1, 2, 3)])


@pytest.fixture
def boundary_delta3() -> SimplicialComplex:
    return from_facets([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


@pytest.fixture
def boundary_delta2() -> SimplicialComplex:
    return from_facets([(1, 2), (2, 3), (1, 3)])


def annulus_complex(m: int = 3) -> SimplicialComplex:
    """Triangulated annulus: outer cycle 0..m-1, inner cycle m..2m-1."""
    tris = []
    for i in range(m):
        j = (i + 1) % m
        tris.append((i, j, m + i))
        tris.append((j, m + i, m + j))
    return from_facets(tris)


def fan_disc(k: int) -> SimplicialComplex:
    """Disc: k triangles around a center vertex 0, rim 1..k+1."""
    return from_facets([(0, i, i + 1) for i in range(1, k + 1)])


def torus_3x3() -> SimplicialComplex:
    """The 3x3 grid on the torus, each square cut along its diagonal."""
    v = lambda i, j: 3 * (i % 3) + j % 3
    return from_facets(
        t
        for i in range(3)
        for j in range(3)
        for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    )


def drilled_cone_sphere() -> SimplicialComplex:
    """The cone sphere over the straight-drilled 3x3x3 ball."""
    ball = constructions.furch_ball(3, 3, 3, constructions.straight_path(3, 3, 3))
    return constructions.cone_sphere(ball.realization.complex).complex


@pytest.fixture
def annulus() -> SimplicialComplex:
    return annulus_complex(3)


@pytest.fixture
def octahedron():
    return constructions.convex_fixture("octahedron_boundary")
