"""Exact mod-2 homology: bit-packed boundary matrices, Betti numbers, and
persistence pairs, which decide injectivity of inclusion-induced maps.

Rows of a matrix are Python integers used as bit vectors (bit j = column j),
so elimination is a loop of XORs on arbitrary-precision ints.  Face-to-index
maps are lexicographic, making every matrix reproducible bit for bit.  The
persistence reduction packs columns the same way (bit k = k-th face of the
filtration), and one reduction answers every inclusion of a filtration at
once: H_i(A) -> H_i(X) is injective iff no i-class born in A dies in X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complex_core import Face, SimplicialComplex
from .errors import DimensionOutOfRangeError, EmptyComplexError, NotASubcomplexError

# -- GF(2) elimination -----------------------------------------------------

def gf2_rank(rows: list[int]) -> int:
    """Rank of the span of the given bit-vectors."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                rank += 1
                break
            row ^= piv
    return rank


# -- boundary matrices -----------------------------------------------------

@dataclass(frozen=True)
class BitMatrix:
    """Mod-2 matrix with bit-packed rows.

    For a boundary matrix, rows are indexed by (i-1)-faces and columns by
    i-faces, both in lexicographic order.
    """

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def rank(self) -> int:
        return gf2_rank(list(self.rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        """Column j as a bit mask over rows."""
        mask = 0
        for i, row in enumerate(self.rows):
            mask |= ((row >> j) & 1) << i
        return mask


def boundary_matrix(c: SimplicialComplex, i: int) -> BitMatrix:
    """Incidence matrix of the boundary map from i-chains to (i-1)-chains."""
    if c.is_empty:
        raise EmptyComplexError("boundary matrix of the empty complex")
    if i < 1 or i > c.dimension:
        raise DimensionOutOfRangeError(f"dimension {i} outside 1..{c.dimension}")
    low = c.faces(i - 1)
    high = c.faces(i)
    index = {f: r for r, f in enumerate(low)}
    rows = [0] * len(low)
    for j, face in enumerate(high):
        for k in range(len(face)):
            sub = face[:k] + face[k + 1:]
            rows[index[sub]] |= 1 << j
    return BitMatrix(len(low), len(high), tuple(rows))


# -- Betti numbers ---------------------------------------------------------

@dataclass(frozen=True)
class BettiVector:
    """Per-dimension mod-2 Betti numbers with an explicit convention flag."""

    values: tuple[int, ...]
    reduced: bool = False

    def __getitem__(self, i: int) -> int:
        return self.values[i] if 0 <= i < len(self.values) else 0

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def euler_characteristic(self) -> int:
        if self.reduced:
            raise ValueError("Euler characteristic uses the non-reduced convention")
        return sum((-1) ** i * b for i, b in enumerate(self.values))


def _boundary_ranks(c: SimplicialComplex) -> list[int]:
    """rank of the boundary map in each dimension 0..dim+1 (ends are 0)."""
    ranks = [0] * (c.dimension + 2)
    for i in range(1, c.dimension + 1):
        ranks[i] = boundary_matrix(c, i).rank()
    return ranks


def betti(c: SimplicialComplex, reduced: bool = False) -> BettiVector:
    """Betti numbers over Z2; non-reduced by default."""
    if c.is_empty:
        raise EmptyComplexError("Betti numbers of the empty complex")
    ranks = _boundary_ranks(c)
    values = [
        len(c.face_set(i)) - ranks[i] - ranks[i + 1]
        for i in range(c.dimension + 1)
    ]
    if reduced:
        values[0] -= 1
    return BettiVector(tuple(values), reduced=reduced)


def is_subcomplex(a: SimplicialComplex, x: SimplicialComplex) -> bool:
    if a.dimension > x.dimension:
        return False
    return all(a.face_set(d) <= x.face_set(d) for d in range(a.dimension + 1))


# -- persistence -----------------------------------------------------------

def persistence_pairs(faces: Sequence[Face]) -> list[tuple[int, int | None]]:
    """Persistence pairs of a filtration, as indices into ``faces``.

    ``faces`` lists the faces of a complex, each after its proper faces.
    The boundary matrix in that order is reduced column by column: a column
    is added to by earlier reduced columns until its lowest one (the largest
    row index) is claimed by no earlier column.  A face whose column reduces
    to zero creates a class; the face whose column ends with its lowest one
    on the creator destroys that class.  Returns (creator, destroyer) in
    creator order, with None for a class that is never destroyed.
    """
    index = {f: k for k, f in enumerate(faces)}
    reduced: dict[int, int] = {}  # lowest one -> reduced column
    destroyer: dict[int, int] = {}
    creators = []
    for k, face in enumerate(faces):
        column = 0
        if len(face) > 1:
            for t in range(len(face)):
                column |= 1 << index[face[:t] + face[t + 1:]]
        while column:
            low = column.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                reduced[low] = column
                destroyer[low] = k
                break
            column ^= other
        else:
            creators.append(k)
    return [(k, destroyer.get(k)) for k in creators]


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
