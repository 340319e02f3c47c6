import pytest
from hypothesis import given, settings, strategies as st

from tightmorse import betti, constructions, from_facets, inclusion_induced_injective
from tightmorse.complex_core import from_faces
from tightmorse.errors import (
    DimensionOutOfRangeError,
    EmptyComplexError,
    NotASubcomplexError,
)

from conftest import (
    alternating_sum, annulus_complex, drilled_cone_sphere, fan_disc, random_complexes, torus_3x3,
)
from homology_oracle import betti as oracle_betti, boundary_matrix
from tightness_oracle import gf2_kernel_basis


def naive_rank_mod2(rows: list[list[int]]) -> int:
    """Independent oracle: list-based Gaussian elimination over GF(2)."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense(matrix):
    return [[matrix.entry(i, j) for j in range(matrix.ncols)] for i in range(matrix.nrows)]


def test_boundary_of_single_edge():
    m = boundary_matrix(from_facets([(1, 2)]), 1)
    assert (m.nrows, m.ncols) == (2, 1)
    assert dense(m) == [[1], [1]]


def test_boundary_of_triangle(triangle):
    m = boundary_matrix(triangle, 2)
    assert (m.nrows, m.ncols) == (3, 1)
    assert dense(m) == [[1], [1], [1]]


def test_boundary_of_e(checkerboard):
    m = boundary_matrix(checkerboard, 1)
    assert (m.nrows, m.ncols) == (6, 12)
    d = dense(m)
    for j in range(12):
        assert sum(row[j] for row in d) == 2
    assert m.rank() == 5 == naive_rank_mod2(d)


def test_rank_matches_naive_oracle(checkerboard, boundary_delta3):
    for c in (checkerboard, boundary_delta3, annulus_complex(4), fan_disc(5)):
        for i in range(1, c.dimension + 1):
            m = boundary_matrix(c, i)
            assert m.rank() == naive_rank_mod2(dense(m))


def test_dimension_out_of_range(triangle):
    with pytest.raises(DimensionOutOfRangeError):
        boundary_matrix(triangle, 3)
    with pytest.raises(DimensionOutOfRangeError):
        boundary_matrix(triangle, 0)


def test_boundary_squared_is_zero(checkerboard, boundary_delta3):
    for c in (checkerboard, boundary_delta3, fan_disc(6)):
        for i in range(2, c.dimension + 1):
            low = boundary_matrix(c, i - 1)
            high = boundary_matrix(c, i)
            for j in range(high.ncols):
                col = high.column(j)
                out = 0
                for r in range(high.nrows):
                    if (col >> r) & 1:
                        out ^= low.column(r)
                assert out == 0


def test_kernel_basis_is_kernel():
    m = boundary_matrix(annulus_complex(3), 1)
    basis = gf2_kernel_basis(list(m.rows), m.ncols)
    # each kernel vector maps to zero
    for vec in basis:
        image = 0
        for i, row in enumerate(m.rows):
            bits = bin(row & vec).count("1") % 2
            image |= bits << i
        assert image == 0
    assert len(basis) == m.ncols - m.rank()


def test_betti_point():
    assert betti(from_facets([(7,)])) == (1,)


def test_betti_e(checkerboard):
    b = betti(checkerboard)
    assert b == (1, 3, 0)
    assert alternating_sum(b) == checkerboard.euler_characteristic == -2


def test_betti_sphere(boundary_delta3):
    assert betti(boundary_delta3) == (1, 0, 1)


def test_betti_empty_rejected():
    with pytest.raises(EmptyComplexError):
        betti(from_faces([]))


@pytest.mark.parametrize("make, expected", [
    (lambda: constructions.grid_ball(3, 3, 3).complex, (1, 0, 0, 0)),
    (drilled_cone_sphere, (1, 0, 0, 1)),
    (constructions.dunce_hat, (1, 0, 0)),
    (constructions.checkerboard, (1, 3, 0)),
    (torus_3x3, (1, 2, 1)),
], ids=["grid3", "drilled_cone_sphere", "dunce_hat", "checkerboard", "torus_3x3"])
def test_betti_matches_rank_oracle_on_fixed_cases(make, expected):
    c = make()
    assert betti(c) == oracle_betti(c) == expected


@settings(max_examples=80, deadline=None)
@given(random_complexes)
def test_betti_matches_rank_oracle_on_random_complexes(c):
    assert betti(c) == oracle_betti(c)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=8))
def test_betti_matches_rank_oracle_on_facet_lists(facets):
    c = from_facets(facets)
    assert betti(c) == oracle_betti(c)


def test_inclusion_identity(checkerboard):
    for i in range(3):
        assert inclusion_induced_injective(checkerboard, checkerboard, i)


def test_inclusion_two_points_into_edge():
    two = from_facets([(1,), (2,)])
    edge = from_facets([(1, 2)])
    assert not inclusion_induced_injective(two, edge, 0)


def test_inclusion_circle_into_annulus(annulus):
    circle = from_facets([(0, 1), (1, 2), (0, 2)])
    assert inclusion_induced_injective(circle, annulus, 1)


def test_inclusion_circle_into_disc():
    wheel = from_facets([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)])
    rim = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert not inclusion_induced_injective(rim, wheel, 1)


def test_inclusion_requires_subcomplex(triangle, boundary_delta3):
    with pytest.raises(NotASubcomplexError):
        inclusion_induced_injective(from_facets([(8, 9)]), triangle, 0)
    with pytest.raises(NotASubcomplexError):
        inclusion_induced_injective(boundary_delta3, triangle, 0)


# -- brute-force quotient oracle ------------------------------------------------

def spanned_vectors(generators: list[int]) -> set[int]:
    out = {0}
    for g in generators:
        out |= {x ^ g for x in out}
    return out


def brute_force_injective(a, x, i) -> bool:
    """Enumerate all cycles of a and all boundary chains of a and x."""
    a_faces = a.faces(i)
    x_faces = x.faces(i)
    x_index = {f: j for j, f in enumerate(x_faces)}

    def boundary_masks(c, dim, index_faces):
        index = {f: j for j, f in enumerate(index_faces)}
        masks = []
        for f in c.faces(dim + 1):
            m = 0
            for k in range(len(f)):
                m ^= 1 << index[f[:k] + f[k + 1:]]
            masks.append(m)
        return masks

    def is_cycle(mask):
        if i == 0:
            return True
        low = a.faces(i - 1)
        low_index = {f: j for j, f in enumerate(low)}
        out = 0
        for j, f in enumerate(a_faces):
            if (mask >> j) & 1:
                for k in range(len(f)):
                    out ^= 1 << low_index[f[:k] + f[k + 1:]]
        return out == 0

    boundaries_a = spanned_vectors(boundary_masks(a, i, a_faces))
    boundaries_x = spanned_vectors(boundary_masks(x, i, x_faces))
    for mask in range(1 << len(a_faces)):
        if not is_cycle(mask):
            continue
        in_x = 0
        for j, f in enumerate(a_faces):
            if (mask >> j) & 1:
                in_x |= 1 << x_index[f]
        if in_x in boundaries_x and mask not in boundaries_a:
            return False
    return True


def test_inclusion_agrees_with_brute_force_oracle():
    wheel = from_facets([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)])
    rim = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
    tree = from_facets([(1, 2), (2, 3)])
    two = from_facets([(1,), (3,)])
    pairs = [
        (two, wheel, 0),
        (rim, wheel, 1),
        (rim, rim, 1),
        (tree, wheel, 0),
        (tree, rim, 0),
        (from_facets([(0, 1)]), wheel, 1),
    ]
    for a, x, i in pairs:
        assert sum(a.f_vector) <= 20 and sum(x.f_vector) <= 20
        assert inclusion_induced_injective(a, x, i) == brute_force_injective(a, x, i)


# -- properties -----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=5))
def test_euler_betti_property(facets):
    c = from_facets(facets)
    assert alternating_sum(betti(c)) == c.euler_characteristic


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=5))
def test_boundary_squared_zero_property(facets):
    c = from_facets(facets)
    for i in range(2, c.dimension + 1):
        low = boundary_matrix(c, i - 1)
        high = boundary_matrix(c, i)
        for j in range(high.ncols):
            col = high.column(j)
            out = 0
            for r in range(high.nrows):
                if (col >> r) & 1:
                    out ^= low.column(r)
            assert out == 0
