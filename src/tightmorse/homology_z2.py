"""Exact mod-2 homology by one persistence reduction: Betti numbers and
the injectivity of inclusion-induced maps.

The boundary matrix of a filtration is reduced one dimension at a time,
top dimension first, each column a Python integer used as a bit vector
(bit k = k-th face of the dimension below, in filtration order), so
elimination is a loop of XORs on arbitrary-precision ints.  Clearing skips
the columns of faces that a column one dimension up has already paired,
since they reduce to zero (Chen–Kerber 2011; Bauer–Kerber–Reininghaus
2014).  That one reduction answers every question here: b_i counts the
i-classes that are never destroyed, and H_i(A) -> H_i(X) is injective iff
no i-class born in A dies in X.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .complex_core import Face, SimplicialComplex
from .errors import EmptyComplexError, NotASubcomplexError

# -- Betti numbers ---------------------------------------------------------

def betti(c: SimplicialComplex) -> tuple[int, ...]:
    """Non-reduced Betti numbers over Z2, one per dimension 0..dim c.

    ``c.faces()`` lists the faces by dimension, so it is a filtration, and
    b_i counts the i-faces that create a class that is never destroyed.
    """
    if c.is_empty:
        raise EmptyComplexError("Betti numbers of the empty complex")
    faces = c.faces()
    values = [0] * (c.dimension + 1)
    for k, destroyer in persistence_pairs(faces):
        if destroyer is None:
            values[len(faces[k]) - 1] += 1
    return tuple(values)


def is_subcomplex(a: SimplicialComplex, x: SimplicialComplex) -> bool:
    if a.dimension > x.dimension:
        return False
    return all(a.face_set(d) <= x.face_set(d) for d in range(a.dimension + 1))


# -- persistence -----------------------------------------------------------

def persistence_pairs(faces: Sequence[Face]) -> list[tuple[int, int | None]]:
    """Persistence pairs of a filtration, as indices into ``faces``.

    ``faces`` lists the faces of a complex, each after its proper faces.
    The boundary matrix in that order is reduced with clearing, one
    dimension at a time from the top: the rows of a d-face's column are the
    (d-1)-faces, numbered in filtration order within their dimension, and a
    column is added to by earlier reduced columns until its lowest one (the
    largest row) is claimed by no earlier column.  A face whose column
    reduces to zero creates a class; the face whose column ends with its
    lowest one on the creator destroys that class.  Clearing: a face already
    paired with a destroyer one dimension up is a creator, so its column is
    skipped unreduced.  No column meets a column of another dimension, so
    the pairs are those of reducing the whole matrix column by column.
    Returns (creator, destroyer) in creator order, with None for a class
    that is never destroyed.
    """
    row: dict[Face, int] = {}  # face -> position among the faces of its dimension
    levels: list[list[int]] = []  # indices into faces, per dimension
    for k, face in enumerate(faces):
        if len(face) > len(levels):
            levels.append([])
        level = levels[len(face) - 1]
        row[face] = len(level)
        level.append(k)
    # per face: the destroyer of a class it creates (None: never), -1 if it destroys
    partner: list[int | None] = [None] * len(faces)
    for d in range(len(levels) - 1, 0, -1):
        rows = levels[d - 1]
        reduced: dict[int, int] = {}  # lowest one -> reduced column
        for k in levels[d]:
            if partner[k] is not None:  # cleared: its column reduces to zero
                continue
            column = 0
            for j in map(row.__getitem__, combinations(faces[k], d)):
                column |= 1 << j
            while column:
                low = column.bit_length() - 1
                other = reduced.get(low)
                if other is None:
                    reduced[low] = column
                    partner[rows[low]] = k
                    partner[k] = -1
                    break
                column ^= other
    return [(k, p) for k, p in enumerate(partner) if p != -1]


def inclusion_induced_injective(a: SimplicialComplex, x: SimplicialComplex, i: int) -> bool:
    """Is H_i(a) -> H_i(x) injective over Z2?

    Filters the (i+1)-skeleton of x with the faces of a first: the map is
    injective iff no i-dimensional class created inside a is destroyed by a
    face outside it.  An empty a is accepted (trivially injective).
    """
    if not is_subcomplex(a, x):
        raise NotASubcomplexError("first argument is not a subcomplex of the second")
    if i > a.dimension:
        return True
    inner = [f for d in range(i + 2) for f in a.faces(d)]
    faces = inner + [f for d in range(i + 2) for f in x.faces(d) if f not in a.face_set(d)]
    return all(
        destroyer is None or destroyer < len(inner)
        for k, destroyer in persistence_pairs(faces)
        if k < len(inner) and len(faces[k]) == i + 1
    )
