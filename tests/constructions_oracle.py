"""Reference convex-position code: the centroid-oriented support test and
the stacked ball that searches for its offset by halving.

``verify_convex_position`` orients each boundary triangle's plane away from
the centroid of all points and asks every other point to lie strictly
beneath it; ``_hull_triangles`` tries every triple of points.
``stacked_ball`` rebuilds the rim, the centroid and every support plane at
each stacking and halves ``eps`` from 1/2 up to 64 times until the new
vertex lies beneath every other plane, so it raises ``MorseInvariantError``
when 64 halvings are not enough.  This is the form
``tightmorse.constructions`` had before its exact rule for ``eps``, kept as
the oracle that the library's coordinates are compared against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tightmorse.complex_core import Face, boundary_complex, from_facets
from tightmorse.errors import MorseInvariantError
from tightmorse.geometry import GeometricRealization


def _simplex3() -> GeometricRealization:
    c = from_facets([(0, 1, 2, 3)])
    coords = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    return GeometricRealization(c, coords, 3)


def _frac_point(*xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


def _centroid(points: dict[int, tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    return tuple(sum(axis) / len(points) for axis in zip(*points.values()))


def _plane(points: dict[int, tuple[Fraction, ...]], tri: Face):
    """(normal, offset) of the plane through a triangle's three points; the
    normal is zero when they are collinear."""
    a, b, c = (points[v] for v in tri)
    u = tuple(q - p for p, q in zip(a, b))
    w = tuple(q - p for p, q in zip(a, c))
    n = (
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    )
    return n, sum(ni * ai for ni, ai in zip(n, a))


def _support(points: dict[int, tuple[Fraction, ...]], tri: Face, centroid: tuple[Fraction, ...]):
    """Plane (normal, offset) of a triangle, oriented away from the centroid."""
    n, offset = _plane(points, tri)
    inner = sum(ni * ci for ni, ci in zip(n, centroid))
    if inner > offset:
        n = tuple(-x for x in n)
        offset = -offset
    return n, offset


def verify_convex_position(g: GeometricRealization) -> bool:
    """Every boundary triangle supports the vertex set strictly."""
    c = g.complex
    surface = c if c.dimension == 2 else boundary_complex(c)
    points = {v: _frac_point(*g.coords[v]) for v in c.vertices}
    centroid = _centroid(points)
    for tri in surface.face_set(2):
        n, offset = _support(points, tri, centroid)
        for v, p in points.items():
            if v in tri:
                continue
            if sum(ni * pi for ni, pi in zip(n, p)) >= offset:
                return False
    return True


def stacked_ball(k: int, seed: int | None = None) -> GeometricRealization:
    """Simplex with k stellar stackings on boundary facets, convex position.

    Each new vertex sits just beyond the barycenter of the chosen boundary
    triangle, with the offset halved until the point is beneath every other
    supporting plane (verified exactly on rationals).  Raises ValueError
    for a negative k.
    """
    if k < 0:
        raise ValueError("the number of stackings must not be negative")
    g = _simplex3()
    rng = random.Random(seed) if seed is not None else None
    facets = list(g.complex.face_set(3))
    coords: dict[int, tuple[Fraction, ...]] = {
        v: _frac_point(*p) for v, p in g.coords.items()
    }
    c = g.complex
    for step in range(k):
        rim = boundary_complex(c)
        triangles = sorted(rim.face_set(2))
        tri = triangles[rng.randrange(len(triangles))] if rng else triangles[0]
        centroid = _centroid(coords)
        planes = {other: _support(coords, other, centroid) for other in rim.face_set(2)}
        n, offset = planes[tri]
        bary = tuple(
            sum(coords[v][i] for v in tri) / 3 for i in range(3)
        )
        norm2 = sum(x * x for x in n)
        eps = Fraction(1, 2)
        w = max(c.vertices) + 1
        for _ in range(64):
            cand = tuple(b + eps * ni / norm2 for b, ni in zip(bary, n))
            if all(
                sum(ni * ci for ni, ci in zip(n2, cand)) < off2
                for other, (n2, off2) in planes.items()
                if other != tri
            ):
                break
            eps /= 2
        else:
            raise MorseInvariantError("could not place a stacked vertex convexly")
        coords[w] = cand
        facets.append(tuple(sorted(tri + (w,))))
        c = from_facets(facets)
    return GeometricRealization(c, dict(coords), 3)


def _hull_triangles(points: dict[int, tuple[Fraction, ...]]) -> list[Face]:
    """Facets of a simplicial convex hull by exhaustive support checks."""
    labels = sorted(points)
    tris = []
    for tri in itertools.combinations(labels, 3):
        n, offset = _plane(points, tri)
        if all(x == 0 for x in n):
            continue
        heights = [sum(ni * pi for ni, pi in zip(n, points[v])) - offset for v in labels if v not in tri]
        if all(h > 0 for h in heights) or all(h < 0 for h in heights):
            tris.append(tri)
    return tris
