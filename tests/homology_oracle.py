"""Reference mod-2 homology: bit-packed boundary matrices and their ranks,
and the persistence reduction without clearing.

``betti`` is the rank form of ``tightmorse.homology_z2.betti``, kept as the
oracle that the library's persistence reduction is compared against:
b_i = #i-faces - rank d_i - rank d_{i+1}, each rank by GF(2) elimination of
a boundary matrix.  Rows of a matrix are Python integers used as bit
vectors (bit j = column j), and face-to-index maps are lexicographic, so
every matrix is reproducible bit for bit.  ``persistence_pairs`` reduces the
whole boundary matrix of a filtration in one pass, every column as wide as
the filtration and none skipped; the library's clearing reduction must give
the same pairs in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from tightmorse.complex_core import Face, SimplicialComplex
from tightmorse.errors import DimensionOutOfRangeError, EmptyComplexError


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


def _boundary_ranks(c: SimplicialComplex) -> list[int]:
    """rank of the boundary map in each dimension 0..dim+1 (ends are 0)."""
    ranks = [0] * (c.dimension + 2)
    for i in range(1, c.dimension + 1):
        ranks[i] = boundary_matrix(c, i).rank()
    return ranks


def betti(c: SimplicialComplex) -> tuple[int, ...]:
    """Non-reduced Betti numbers over Z2, one per dimension 0..dim c."""
    if c.is_empty:
        raise EmptyComplexError("Betti numbers of the empty complex")
    ranks = _boundary_ranks(c)
    return tuple(len(c.face_set(i)) - ranks[i] - ranks[i + 1] for i in range(c.dimension + 1))


def persistence_pairs(faces: Sequence[Face]) -> list[tuple[int, int | None]]:
    """Persistence pairs of a filtration, as indices into ``faces``.

    The boundary matrix in filtration order is reduced column by column: a
    column is added to by earlier reduced columns until its lowest one (the
    largest row index) is claimed by no earlier column.  Returns (creator,
    destroyer) in creator order, with None for a class never destroyed.
    """
    index = {f: k for k, f in enumerate(faces)}
    reduced: dict[int, int] = {}  # lowest one -> reduced column
    destroyer: dict[int, int] = {}
    creators = []
    for k, face in enumerate(faces):
        column = 0
        if len(face) > 1:
            for j in map(index.__getitem__, combinations(face, len(face) - 1)):
                column |= 1 << j
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
