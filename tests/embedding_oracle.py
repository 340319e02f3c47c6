"""Reference embedding check: every pair of faces, every basis of the contact LP.

This is the straightforward form of ``tightmorse.embedding.verify_embedding``,
kept as the oracle it is compared against.  Every face must be affinely
independent, and every pair of faces that are not nested must meet exactly
in their shared face.  The contact polytope of a pair,
{A·l = B·m, sum l = sum m = 1, l, m >= 0}, is bounded, so its maximum is at
a vertex, and every vertex is the solution of some set of rank(rows)
linearly independent columns with the others set to zero.  The oracle
solves every such set of columns, keeps the solutions that are nonnegative
and satisfy every row, and takes the largest mass outside the shared face.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from tightmorse.geometry import GeometricRealization


def _eliminate(a: list[list[Fraction]], columns: int) -> list[int]:
    """Gauss-Jordan elimination in place on the first ``columns`` columns;
    returns the pivot columns, one per nonzero row left at the top."""
    row, pivots = 0, []
    for col in range(columns):
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                factor = a[r][col] / a[row][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    return pivots


def _rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_eliminate([list(r) for r in rows], len(rows[0])))


def _affinely_independent(points: list[tuple[Fraction, ...]]) -> bool:
    base = points[0]
    return _rank([[x - b for x, b in zip(p, base)] for p in points[1:]]) == len(points) - 1


def _solve_square_subsystem(rows, rhs, basis):
    """A solution of rows·x = rhs using only the columns in ``basis``, or
    None when those columns cannot reach rhs."""
    m, n = len(rows), len(basis)
    a = [[rows[r][v] for v in basis] + [rhs[r]] for r in range(m)]
    pivots = _eliminate(a, n)
    if any(a[r][n] != 0 for r in range(len(pivots), m)):
        return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = a[r][n] / a[r][col]
    return sol


def max_outside_mass(pa, pb, shared_in_a) -> Fraction | None:
    """Largest mass a common point of conv(pa) and conv(pb) puts outside the
    shared face, over every basic solution; None when the hulls are disjoint."""
    k = len(pa[0])
    s, t = len(pa), len(pb)
    nvars = s + t
    rows = [[pa[i][c] for i in range(s)] + [-pb[j][c] for j in range(t)] for c in range(k)]
    rows.append([Fraction(1)] * s + [Fraction(0)] * t)
    rows.append([Fraction(0)] * s + [Fraction(1)] * t)
    rhs = [Fraction(0)] * k + [Fraction(1), Fraction(1)]
    objective = [int(i < s and i not in shared_in_a) for i in range(nvars)]

    best = None
    for basis in itertools.combinations(range(nvars), _rank(rows)):
        sol = _solve_square_subsystem(rows, rhs, basis)
        if sol is None or any(x < 0 for x in sol):
            continue
        full = [Fraction(0)] * nvars
        for var, val in zip(basis, sol):
            full[var] = val
        # consistency: the point must satisfy every row, not just the pivots
        if any(sum(r * x for r, x in zip(row, full)) != b for row, b in zip(rows, rhs)):
            continue
        value = sum(o * x for o, x in zip(objective, full))
        if best is None or value > best:
            best = value
    return best


def embeds(g: GeometricRealization) -> bool:
    """True iff the coordinates give a linear embedding of the complex."""
    coords = {v: tuple(Fraction(x) for x in p) for v, p in g.coords.items()}
    faces = g.complex.faces()
    if not all(_affinely_independent([coords[v] for v in f]) for f in faces):
        return False
    for fa, fb in itertools.combinations(faces, 2):
        if set(fa) <= set(fb) or set(fb) <= set(fa):
            continue
        shared = set(fa) & set(fb)
        worst = max_outside_mass(
            [coords[v] for v in fa], [coords[v] for v in fb],
            [i for i, v in enumerate(fa) if v in shared],
        )
        if (worst is None and shared) or (worst is not None and worst > 0):
            return False
    return True
