"""Exact check that a geometric realization is a linear embedding.

``geometry.verify_embedding`` loads this module on first use, so a command
that never checks an embedding does not compile it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Sequence

from .errors import InvalidEmbeddingError
from .geometry import GeometricRealization


def _exact_coords(g: GeometricRealization) -> dict[int, tuple[Fraction, ...]]:
    out = {}
    for v, p in g.coords.items():
        out[v] = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in p)
    return out


def _affinely_independent(points: Sequence[tuple[Fraction, ...]]) -> bool:
    if len(points) <= 1:
        return True
    base = points[0]
    rows = [tuple(x - b for x, b in zip(p, base)) for p in points[1:]]
    # exact rank by fraction-free elimination
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0])
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = Fraction(rows[r][col], rows[rank][col])
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(points) - 1


def _pivot(tableau: list[list[Fraction]], basis: list[int], r: int, j: int) -> None:
    """Make column j basic in row r; the cost row is the last row."""
    row = tableau[r]
    p = row[j]
    row[:] = [x / p for x in row]
    for other in tableau:
        f = other[j]
        if f and other is not row:
            other[:] = [a - f * b if b else a for a, b in zip(other, row)]
    basis[r] = j


def _climb(tableau: list[list[Fraction]], basis: list[int], columns: int) -> None:
    """Pivot until no column below ``columns`` has a positive reduced cost.

    Bland's rule picks the smallest improving column and, among the rows
    with the least ratio, the one whose basic variable is smallest, so
    degenerate pivots cannot cycle.  The feasible sets solved here are
    bounded, so some row always limits the entering column.
    """
    *rows, cost = tableau
    while True:
        j = next((j for j in range(columns) if cost[j] > 0), None)
        if j is None:
            return
        r = min(
            (r for r, row in enumerate(rows) if row[j] > 0),
            key=lambda r: (rows[r][-1] / rows[r][j], basis[r]),
        )
        _pivot(tableau, basis, r, j)


def _simplex_max(
    rows: list[list[Fraction]], rhs: list[Fraction], objective: list[Fraction]
) -> Fraction | None:
    """Maximum of objective . x over the bounded set {x >= 0 : rows . x = rhs}.

    Two-phase dense tableau simplex over exact fractions; rhs must be
    nonnegative.  Phase 1 starts from one artificial variable per row and
    drives their sum to zero, which also handles rank-deficient rows: an
    artificial that stays basic at zero after phase 1 sits in a row that is
    zero on every structural column, and no later pivot changes that row.
    Returns None when the set is empty.
    """
    m, n = len(rows), len(objective)
    zero, one = Fraction(0), Fraction(1)
    tableau = [
        list(row) + [one if i == r else zero for i in range(m)] + [b]
        for r, (row, b) in enumerate(zip(rows, rhs))
    ]
    # phase 1 maximizes minus the sum of the artificials
    cost = [sum(column) for column in zip(*tableau)]
    tableau.append(cost[:n] + [zero] * m + cost[-1:])
    basis = list(range(n, n + m))
    _climb(tableau, basis, n + m)
    if tableau[-1][-1] != 0:
        return None
    for r in range(m):
        if basis[r] >= n:
            j = next((j for j in range(n) if tableau[r][j]), None)
            if j is not None:
                _pivot(tableau, basis, r, j)
    # phase 2: reduced costs of the objective; artificials never enter again
    weights = list(objective) + [zero] * (m + 1)
    tableau[-1] = [
        weights[j] - sum(weights[basis[r]] * tableau[r][j] for r in range(m))
        for j in range(n + m + 1)
    ]
    _climb(tableau, basis, n)
    return -tableau[-1][-1]


def _max_outside_mass(
    pa: list[tuple[Fraction, ...]],
    pb: list[tuple[Fraction, ...]],
    shared_in_a: list[int],
) -> Fraction | None:
    """Max total barycentric mass of conv(pa) ∩ conv(pb) outside the shared face.

    The contact polytope {A·l = B·m, sum l = sum m = 1, l, m >= 0} holds the
    common points of the two hulls, and the objective is the weight l puts
    on the vertices of pa outside the shared face.  Returns None when the
    hulls do not intersect.
    """
    k = len(pa[0])
    s, t = len(pa), len(pb)
    zero, one = Fraction(0), Fraction(1)
    # equality rows: coordinates, then the two affine constraints
    rows = [[pa[i][c] for i in range(s)] + [-pb[j][c] for j in range(t)] for c in range(k)]
    rows.append([one] * s + [zero] * t)
    rows.append([zero] * s + [one] * t)
    rhs = [zero] * k + [one, one]
    objective = [zero if (i >= s or i in shared_in_a) else one for i in range(s + t)]
    return _simplex_max(rows, rhs, objective)


def _scaled_ints(coords: dict[int, tuple[Fraction, ...]]) -> dict[int, tuple[int, ...]]:
    """The coordinates times the LCM of all their denominators, as ints."""
    scale = math.lcm(*(x.denominator for p in coords.values() for x in p))
    return {v: tuple(x.numerator * (scale // x.denominator) for x in p) for v, p in coords.items()}


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _minus(p: Sequence[int], q: Sequence[int]) -> tuple[int, int, int]:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _candidate_normals(shared, only_a, only_b):
    """Normals of the planes tried for a facet pair (σ, τ) in R^3: the cross
    products u × w of two edges of the pair, two of σ first, then two of τ,
    then one of each.

    Each facet lists its shared vertices first, so the first normal of a
    pair that shares a triangle is the triangle's normal.  For a
    vertex-disjoint pair the products hold the facet normals and the edge ×
    edge products, the complete separating-axis set for two tetrahedra.
    """
    ea = [_minus(q, p) for p, q in combinations(shared + only_a, 2)]
    eb = [_minus(q, p) for p, q in combinations(shared + only_b, 2)]
    for u, w in chain(combinations(ea, 2), combinations(eb, 2), product(ea, eb)):
        yield _cross(u, w)


def _plane_splits(hs: list[int], ha: list[int], hb: list[int]) -> bool:
    """The plane rule for facets σ and τ on the heights n·x of their shared
    vertices (hs) and of their own vertices (ha for σ, hb for τ).

    With a the least height on σ and b the greatest on τ, conv σ lies in
    {h >= a} and conv τ in {h <= b}; when a >= b they meet at most on the
    plane h = a = b, and if all of τ's or all of σ's own vertices are off
    that plane, only in the hull of the shared face (nowhere when a > b).
    """
    a = min(hs + ha)
    b = max(hs + hb)
    return a >= b and (max(hb) < a or min(ha) > b)


def _plane_certifies(ints: dict[int, tuple[int, ...]], fa: Sequence[int], fb: Sequence[int]) -> bool:
    """True when a plane whose normal is the cross product of two edges of
    the pair proves conv fa ∩ conv fb = conv(fa ∩ fb).

    ``ints`` holds integer points in R^3; the shared vertices are found by
    label and listed first.  Each normal n is tried with both signs (-n is
    ``_plane_splits`` with the facets swapped).  A zero normal certifies
    nothing, since both facets have own vertices.  False proves nothing.
    """
    shared = [ints[v] for v in fa if v in fb]
    only_a = [ints[v] for v in fa if v not in fb]
    only_b = [ints[v] for v in fb if v not in fa]
    for nx, ny, nz in _candidate_normals(shared, only_a, only_b):
        hs = [nx * x + ny * y + nz * z for x, y, z in shared]
        ha = [nx * x + ny * y + nz * z for x, y, z in only_a]
        hb = [nx * x + ny * y + nz * z for x, y, z in only_b]
        if _plane_splits(hs, ha, hb) or _plane_splits(hs, hb, ha):
            return True
    return False


def verify_embedding(g: GeometricRealization) -> None:
    """Exact check that the coordinates give a linear embedding.

    Only the facets (maximal faces) are examined, which suffices:

    * every face lies in a facet, and a subset of an affinely independent
      set is affinely independent;
    * let faces s' of facet s and t' of facet t be given, where
      conv s ∩ conv t = conv(s ∩ t).  Then conv s' ∩ conv t' lies in
      conv(s' ∩ t) and in conv(t' ∩ s), since barycentric coordinates in
      an affinely independent s or t are unique.  Both hulls lie in the
      simplex conv(s ∩ t), so their intersection is conv(s' ∩ t').

    Each facet must be affinely independent.  In R^3 a pair of facets is
    first tried against the planes normal to the cross products of two of
    its edges (``_plane_certifies``), on the coordinates scaled once to
    integers.  Every other pair, and every pair in other dimensions, gets
    one exact two-phase simplex solve (``_simplex_max``) for the largest
    barycentric mass a common point puts outside the shared face, and is
    rejected if that is positive; the solve is the only path that rejects,
    so the planes change no verdict.  Shared vertices are found by label,
    so two vertices at one point are never taken for one.  Intended as an
    opt-in diagnostic, not a standing invariant.
    """
    coords = _exact_coords(g)
    facets = g.complex.facets
    points = {f: [coords[v] for v in f] for f in facets}
    for f in facets:
        if not _affinely_independent(points[f]):
            raise InvalidEmbeddingError(f"facet {f} is affinely dependent")
    ints = _scaled_ints(coords) if g.ambient_dim == 3 else None
    for a, fa in enumerate(facets):
        for fb in facets[a + 1:]:
            if ints is not None and _plane_certifies(ints, fa, fb):
                continue
            shared = [i for i, v in enumerate(fa) if v in fb]
            worst = _max_outside_mass(points[fa], points[fb], shared)
            if worst is not None and worst > 0:
                raise InvalidEmbeddingError(f"facets {fa} and {fb} overlap outside their shared face")
