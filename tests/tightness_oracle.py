"""Reference tightness scan: one kernel basis per upper set and threshold.

This is the straightforward form of the library's homology checks, kept as
the oracle that ``tightmorse.homology_z2.persistence_pairs`` and its callers
are compared against.  ``inclusion_induced_injective`` compares the span of
a's cycles with x's boundaries by elimination; ``is_pi_tight`` and
``is_prefix_tight`` rebuild the upper set at each of the n-1 thresholds of
the sweep and test each dimension's inclusion the same way.
"""

from __future__ import annotations

from tightmorse.complex_core import Face, SimplicialComplex, restrict
from tightmorse.errors import NotASubcomplexError
from tightmorse.geometry import (
    GeometricRealization,
    SweepOrder,
    TightnessFailure,
    TightnessReport,
    Vector,
    sweep_order,
)
from tightmorse.homology_z2 import is_subcomplex

from homology_oracle import boundary_matrix


class Gf2Space:
    """Incrementally built row space with rank queries."""

    def __init__(self, rows: list[int] | None = None):
        self.pivots: dict[int, int] = {}
        for row in rows or ():
            self.add(row)

    def add(self, row: int) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        while row:
            lead = row.bit_length() - 1
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = row
                return True
            row ^= piv
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def clone(self) -> "Gf2Space":
        copy = Gf2Space()
        copy.pivots = dict(self.pivots)
        return copy

    def contains(self, row: int) -> bool:
        while row:
            piv = self.pivots.get(row.bit_length() - 1)
            if piv is None:
                return False
            row ^= piv
        return True


def gf2_kernel_basis(rows: list[int], ncols: int) -> list[int]:
    """Basis of the kernel {x : Mx = 0}, vectors as bit masks over columns."""
    reduced: list[tuple[int, int]] = []  # (pivot column, row)
    taken: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in taken:
                row ^= taken[lead]
            else:
                taken[lead] = row
                reduced.append((lead, row))
                break
    # back-substitute to reduced echelon form
    reduced.sort(reverse=True)
    for i, (lead, row) in enumerate(reduced):
        for j in range(i):
            lead_j, row_j = reduced[j]
            if (row_j >> lead) & 1:
                reduced[j] = (lead_j, row_j ^ row)
    pivot_cols = {lead for lead, _ in reduced}
    basis = []
    for col in range(ncols):
        if col in pivot_cols:
            continue
        vec = 1 << col
        for lead, row in reduced:
            if (row >> col) & 1:
                vec |= 1 << lead
        basis.append(vec)
    return basis


def boundary_chain_masks(c: SimplicialComplex, i: int) -> list[int]:
    """Boundaries of all i-faces as bit masks over the (i-1)-faces of c."""
    if i < 1 or i > c.dimension:
        return []
    low_index = {f: r for r, f in enumerate(c.faces(i - 1))}
    masks = []
    for face in c.faces(i):
        m = 0
        for k in range(len(face)):
            m |= 1 << low_index[face[:k] + face[k + 1:]]
        masks.append(m)
    return masks


def cycle_masks_in(a: SimplicialComplex, x_faces: tuple[Face, ...], i: int) -> list[int]:
    """Basis of the i-cycles of a, written over the i-face basis of x."""
    a_faces = a.faces(i)
    if not a_faces:
        return []
    if i == 0:
        local = [1 << j for j in range(len(a_faces))]
    else:
        rows = boundary_matrix(a, i).rows if i <= a.dimension else ()
        local = gf2_kernel_basis(list(rows), len(a_faces))
    x_index = {f: j for j, f in enumerate(x_faces)}
    out = []
    for vec in local:
        m = 0
        for j, face in enumerate(a_faces):
            if (vec >> j) & 1:
                m |= 1 << x_index[face]
        out.append(m)
    return out


def inclusion_induced_injective(a: SimplicialComplex, x: SimplicialComplex, i: int) -> bool:
    """Is H_i(a) -> H_i(x) injective over Z2?

    Rank of the induced map is dim(Z_i(a) + B_i(x)) - dim B_i(x); the map is
    injective iff this equals the i-th Betti number of a.  An empty a is
    accepted (trivially injective).
    """
    if not is_subcomplex(a, x):
        raise NotASubcomplexError("first argument is not a subcomplex of the second")
    if a.is_empty or i > a.dimension:
        return True
    beta_a = _betti_single(a, i)
    if beta_a == 0:
        return True
    x_faces = x.faces(i)
    boundary_space = Gf2Space(boundary_chain_masks(x, i + 1))
    rank_b = boundary_space.rank
    for z in cycle_masks_in(a, x_faces, i):
        boundary_space.add(z)
    image_rank = boundary_space.rank - rank_b
    return image_rank == beta_a


def _betti_single(c: SimplicialComplex, i: int) -> int:
    if i < 0 or i > c.dimension:
        return 0
    r_i = boundary_matrix(c, i).rank() if i >= 1 else 0
    r_up = boundary_matrix(c, i + 1).rank() if i + 1 <= c.dimension else 0
    return len(c.face_set(i)) - r_i - r_up


def _injectivity_scan(g: GeometricRealization, order: SweepOrder) -> TightnessReport:
    """Check every upper set of the given sweep order against the complex."""
    c = g.complex
    dim = c.dimension
    n = len(order.vertices)
    failures: list[TightnessFailure] = []
    checks = 0

    # ambient boundary spaces, one per dimension, eliminated once and cloned
    x_faces = {i: c.faces(i) for i in range(dim + 1)}
    base_spaces = {i: Gf2Space(boundary_chain_masks(c, i + 1)) for i in range(dim + 1)}

    for j in range(1, n):
        upper_vertices = order.vertices[j:]
        a = restrict(c, upper_vertices)
        threshold = (order.heights[j - 1] + order.heights[j]) / 2
        for i in range(dim + 1):
            if i > a.dimension:
                continue
            cycles = cycle_masks_in(a, x_faces[i], i)
            beta_a = len(cycles) - Gf2Space(boundary_chain_masks(a, i + 1)).rank
            checks += 1
            if beta_a == 0:
                continue
            space = base_spaces[i].clone()
            base_rank = space.rank
            for z in cycles:
                space.add(z)
            image_rank = space.rank - base_rank
            if image_rank != beta_a:
                failures.append(TightnessFailure(float(threshold), i, beta_a, image_rank))
    return TightnessReport(not failures, order.direction, checks, tuple(failures))


def is_pi_tight(g: GeometricRealization, direction: Vector) -> TightnessReport:
    """Injectivity of H_*(upper halfspace part) -> H_*(complex), all levels.

    Checks the n-1 thresholds between consecutive vertex heights.  Only the
    +direction halfspaces are checked; tightness of the opposite sign is a
    separate call with the negated vector.
    """
    order = sweep_order(g, direction)
    return _injectivity_scan(g, order)


def is_prefix_tight(g: GeometricRealization, direction: Vector) -> TightnessReport:
    """Injectivity of every ascending sweep prefix into the full complex.

    The prefixes (below-threshold induced subcomplexes) are exactly the
    upper sets of the negated direction; this is the hypothesis the sweep
    construction consumes.
    """
    order = sweep_order(g, direction)
    reversed_order = SweepOrder(
        tuple(-d for d in direction),
        tuple(reversed(order.vertices)),
        tuple(-h for h in reversed(order.heights)),
    )
    return _injectivity_scan(g, reversed_order)
