"""Generators for the example complexes: triangulated grid balls, drilled
(knotted) balls, cone spheres, wedge thickenings, convex-position fixtures,
and a dunce hat.

Grid cubes follow the six-tetrahedra scheme around the main diagonal with a
translation-invariant axis order, so every shared square face carries the
same diagonal.  Drilling paths address cubes by their minimal corner.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .complex_core import (
    Face,
    SimplicialComplex,
    boundary_complex,
    deletion,
    from_facets,
    from_faces,
    is_closed_surface,
    suspension,
)
from .errors import (
    FacetNotFoundError,
    FormatError,
    GridSizeError,
    LabelClashError,
    MorseInvariantError,
    NotABallError,
    NotBoundaryTriangleError,
    PathNotTopToBottomError,
    PathSelfIntersectsError,
    PathTouchesWallError,
    UnknownFixtureError,
)
from .geometry import GeometricRealization
from .homology_z2 import betti

Cube = tuple[int, int, int]

# the mod-2 Betti vectors that furch_ball and cone_sphere certify
BALL_BETTI = (1, 0, 0, 0)
SPHERE_BETTI = (1, 0, 0, 1)


# -- grid balls ---------------------------------------------------------------

_AXIS_ORDERS = tuple(itertools.permutations(range(3)))


def _vertex_label(i: int, j: int, k: int, ny: int, nz: int) -> int:
    return (i * (ny + 1) + j) * (nz + 1) + k


def _cube_tets(cube: Cube, ny: int, nz: int) -> list[tuple[int, int, int, int]]:
    """Kuhn subdivision: one tetrahedron per monotone lattice path."""
    x, y, z = cube
    tets = []
    for order in _AXIS_ORDERS:
        corner = [x, y, z]
        path = [tuple(corner)]
        for axis in order:
            corner[axis] += 1
            path.append(tuple(corner))
        tets.append(tuple(_vertex_label(i, j, k, ny, nz) for i, j, k in path))
    return tets


def _kuhn_ball(
    nx: int, ny: int, nz: int, removed: frozenset[Cube] = frozenset()
) -> GeometricRealization:
    """Kuhn tetrahedra of the box's cubes except the removed ones, with the
    grid coordinates of the vertices they use."""
    tets = []
    for cube in itertools.product(range(nx), range(ny), range(nz)):
        if cube not in removed:
            tets.extend(_cube_tets(cube, ny, nz))
    c = from_facets(tets)
    coords = {}
    for point in itertools.product(range(nx + 1), range(ny + 1), range(nz + 1)):
        v = _vertex_label(*point, ny, nz)
        if c.has_vertex(v):
            coords[v] = point
    return GeometricRealization(c, coords, 3)


def grid_ball(nx: int, ny: int, nz: int) -> GeometricRealization:
    """Box of nx*ny*nz unit cubes, each cut into six tetrahedra."""
    if min(nx, ny, nz) < 1:
        raise GridSizeError("cube counts must be at least 1")
    return _kuhn_ball(nx, ny, nz)


# -- drilled balls ------------------------------------------------------------

@dataclass(frozen=True)
class LatticePath:
    """Cube path with axis-parallel unit steps, addressed by minimal corners."""

    cubes: tuple[Cube, ...]

    def __post_init__(self):
        seen = set()
        for cube in self.cubes:
            if cube in seen:
                raise PathSelfIntersectsError(f"cube {cube} repeated")
            seen.add(cube)
        for a, b in zip(self.cubes, self.cubes[1:]):
            if sum(abs(p - q) for p, q in zip(a, b)) != 1:
                raise FormatError(f"cubes {a} and {b} are not face-adjacent")

    def __len__(self) -> int:
        return len(self.cubes)


@dataclass(frozen=True)
class FurchBall:
    """Drilled grid ball with its designated spanning edge."""

    realization: GeometricRealization
    spanning_edge: tuple[int, int]
    box: tuple[int, int, int]
    path: LatticePath


def _is_two_sphere(surface: SimplicialComplex) -> bool:
    """Connected closed surface with mod-2 Betti numbers (1, 0, 1)."""
    return is_closed_surface(surface) and betti(surface) == (1, 0, 1)


def furch_ball(nx: int, ny: int, nz: int, path: LatticePath) -> FurchBall:
    """Drill a tube along the path, keeping the last cube before the bottom.

    The tube removes every tetrahedron of every path cube except the final
    one; the surviving vertical edge of that cube is the designated
    spanning edge.  The output is certified: the complex is a homology
    ball, its boundary is a 2-sphere, and the edge is interior with both
    endpoints on the boundary.
    """
    cubes = path.cubes
    if len(cubes) < 2:
        raise PathNotTopToBottomError("path needs at least two cubes")
    for x, y, z in cubes:
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise PathTouchesWallError(f"cube {(x, y, z)} outside the box")
        if x in (0, nx - 1) or y in (0, ny - 1):
            raise PathTouchesWallError(f"cube {(x, y, z)} touches a side wall")
    if cubes[0][2] != nz - 1:
        raise PathNotTopToBottomError("path must start in the top cube layer")
    if cubes[-1][2] != 0:
        raise PathNotTopToBottomError("path must end in the bottom cube layer")
    if cubes[-2][0] != cubes[-1][0] or cubes[-2][1] != cubes[-1][1]:
        raise PathNotTopToBottomError("final step must be vertical")

    realization = _kuhn_ball(nx, ny, nz, frozenset(cubes[:-1]))
    c = realization.complex

    if (b := betti(c)) != BALL_BETTI:
        raise NotABallError(f"drilled complex has Betti vector {b}")
    rim = boundary_complex(c)
    if not _is_two_sphere(rim):
        raise NotABallError("boundary of the drilled complex is not a 2-sphere")

    lx, ly, _ = cubes[-1]
    edge = None
    for cx, cy in ((lx, ly), (lx + 1, ly), (lx, ly + 1), (lx + 1, ly + 1)):
        bottom = _vertex_label(cx, cy, 0, ny, nz)
        top = _vertex_label(cx, cy, 1, ny, nz)
        cand = tuple(sorted((bottom, top)))
        if cand not in c or cand in rim:
            continue
        if (bottom,) in rim.face_set(0) and (top,) in rim.face_set(0):
            edge = cand
            break
    if edge is None:
        raise NotABallError("no interior spanning edge with boundary endpoints found")
    return FurchBall(realization, edge, (nx, ny, nz), path)


def straight_path(nx: int = 3, ny: int = 3, nz: int = 3) -> LatticePath:
    """Vertical drilling path down the middle column."""
    x, y = nx // 2, ny // 2
    return LatticePath(tuple((x, y, k) for k in range(nz - 1, -1, -1)))


# A drilled trefoil: two strand columns braided three times (every crossing
# has the front strand passing the back one at depth distance two), closed
# by a side lane on the right, entry at the top face, exit at the bottom.
# The box is taller than the 7x7x7 of the straight fixture: with one-cube
# tubes and one solid cube between strands, three same-sign crossings do not
# fit in seven layers.
_TREFOIL_CUBES: tuple[Cube, ...] = (
    (1, 1, 15), (1, 1, 14), (1, 1, 13),
    (1, 1, 12), (2, 1, 12), (3, 1, 12),
    (3, 1, 11),
    (3, 2, 11), (3, 3, 11), (3, 4, 11), (3, 5, 11),
    (3, 5, 10), (2, 5, 10), (1, 5, 10),
    (1, 5, 9), (1, 5, 8), (1, 5, 7),
    (1, 4, 7), (1, 3, 7), (1, 2, 7), (1, 1, 7),
    (1, 1, 6), (1, 1, 5),
    (1, 1, 4), (2, 1, 4), (3, 1, 4),
    (3, 1, 3),
    (4, 1, 3), (5, 1, 3),
    (5, 1, 4), (5, 1, 5), (5, 1, 6), (5, 1, 7), (5, 1, 8), (5, 1, 9),
    (5, 1, 10), (5, 1, 11), (5, 1, 12), (5, 1, 13), (5, 1, 14),
    (4, 1, 14), (3, 1, 14),
    (3, 2, 14), (3, 3, 14),
    (3, 3, 13), (2, 3, 13), (1, 3, 13),
    (1, 3, 12), (1, 3, 11), (1, 3, 10),
    (1, 2, 10), (1, 1, 10),
    (1, 1, 9), (2, 1, 9), (3, 1, 9),
    (3, 1, 8), (3, 1, 7), (3, 1, 6),
    (3, 2, 6), (3, 3, 6),
    (3, 3, 5), (2, 3, 5), (1, 3, 5),
    (1, 3, 4), (1, 3, 3), (1, 3, 2),
    (1, 2, 2), (1, 1, 2),
    (1, 1, 1), (1, 1, 0),
)


def trefoil_path() -> tuple[LatticePath, tuple[int, int, int]]:
    """Bundled trefoil drilling path and the box that carries it (7x7x16)."""
    return LatticePath(_TREFOIL_CUBES), (7, 7, 16)


# -- cone spheres --------------------------------------------------------------

@dataclass(frozen=True)
class ConeSphere:
    complex: SimplicialComplex
    apex: int


def cone_sphere(ball: SimplicialComplex) -> ConeSphere:
    """Close a ball into a sphere by coning a fresh apex over its boundary."""
    if ball.dimension != 3 or betti(ball) != BALL_BETTI:
        raise NotABallError("input is not a homology 3-ball")
    rim = boundary_complex(ball)
    if not _is_two_sphere(rim):
        raise NotABallError("boundary is not a 2-sphere")
    apex = max(ball.vertices) + 1
    faces = list(ball.faces())
    faces.append((apex,))
    for f in rim.faces():
        faces.append(tuple(sorted(f + (apex,))))
    sphere = from_faces(faces)
    if (b := betti(sphere)) != SPHERE_BETTI:
        raise MorseInvariantError(f"cone sphere has Betti vector {b}")
    return ConeSphere(sphere, apex)


def remove_facet(c: SimplicialComplex, facet) -> SimplicialComplex:
    """Delete one maximal face, keeping its boundary."""
    f = tuple(sorted(facet))
    if f not in c or f not in c.facets:
        raise FacetNotFoundError(f"{f} is not a facet")
    return from_faces([g for g in c.faces() if g != f])


# -- wedge thickening -----------------------------------------------------------

@dataclass(frozen=True)
class WedgeThickening:
    complex: SimplicialComplex
    apex: int           # the stellar vertex of the pyramid
    wedge_point: int    # the identified vertex of the two balls
    wedge: SimplicialComplex
    side_walls: tuple[Face, Face]  # pyramid walls exposed after deleting apex


def wedge_thicken(ball1: SimplicialComplex, ball2: SimplicialComplex,
                  tri1, tri2) -> WedgeThickening:
    """Thicken the wedge of two balls to a ball by a subdivided pyramid.

    tri_i = (a_i, b_i, x_i) must be boundary triangles; the x vertices are
    identified, a square pyramid with apex x is attached over the
    quadrilateral (a1, b1, a2, b2) along the two opposite walls t1 and t2,
    and the solid pyramid is subdivided stellarly at a new vertex v in the
    quadrilateral.  Deleting v recovers the wedge together with the two
    exposed pyramid side walls (certified); the wedge alone cannot be the
    exact deletion of any genuine ball, since the wedge point would stay
    non-manifold.
    """
    a1, b1, x1 = (int(v) for v in tri1)
    a2, b2, x2 = (int(v) for v in tri2)
    shared = set(ball1.vertices) & set(ball2.vertices)
    if shared:
        raise LabelClashError(f"balls share labels {sorted(shared)}")
    for ball, tri in ((ball1, (a1, b1, x1)), (ball2, (a2, b2, x2))):
        rim = boundary_complex(ball)
        if tuple(sorted(tri)) not in rim:
            raise NotBoundaryTriangleError(f"{tuple(sorted(tri))} is not a boundary triangle")

    relabel = {v: v for v in ball2.vertices}
    relabel[x2] = x1
    faces = list(ball1.faces())
    for f in ball2.faces():
        faces.append(tuple(sorted(relabel[u] for u in f)))
    wedge = from_faces(faces)

    x = x1
    a2r, b2r = relabel[a2], relabel[b2]
    v = max(wedge.vertices) + 1
    quad_cycle = (a1, b1, a2r, b2r)
    tets = [
        tuple(sorted((v, x, quad_cycle[i], quad_cycle[(i + 1) % 4])))
        for i in range(4)
    ]
    thickened = from_faces(list(wedge.faces()) + tets)
    walls = (tuple(sorted((x, b1, a2r))), tuple(sorted((x, b2r, a1))))
    expected = from_faces(list(wedge.faces()) + list(walls))
    if deletion(thickened, v) != expected:
        raise MorseInvariantError("deleting the stellar vertex leaves more than the wedge and walls")
    return WedgeThickening(thickened, v, x, wedge, walls)


# -- convex fixtures -------------------------------------------------------------

def _frac_point(*xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


def _dot(u, w):
    return sum(a * b for a, b in zip(u, w))


def _plane(points: dict[int, tuple[Fraction, ...]], tri: Face):
    """(normal, offset) of the plane through a triangle's three points; the
    normal is zero when they are collinear."""
    a, b, c = (points[v] for v in tri)
    u = tuple(q - p for p, q in zip(a, b))
    w = tuple(q - p for p, q in zip(a, c))
    n = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
    return n, _dot(n, a)


def _supports(points: dict[int, tuple[Fraction, ...]], tri: Face) -> bool:
    """The plane of ``tri`` is nondegenerate and has every other point
    strictly on one side."""
    n, offset = _plane(points, tri)
    heights = [_dot(n, p) for v, p in points.items() if v not in tri]
    return any(n) and (all(h > offset for h in heights) or all(h < offset for h in heights))


def verify_convex_position(g: GeometricRealization) -> bool:
    """Every boundary triangle supports the vertex set strictly."""
    c = g.complex
    surface = c if c.dimension == 2 else boundary_complex(c)
    points = {v: _frac_point(*g.coords[v]) for v in c.vertices}
    return all(_supports(points, tri) for tri in surface.face_set(2))


def _simplex3() -> GeometricRealization:
    c = from_facets([(0, 1, 2, 3)])
    coords = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    return GeometricRealization(c, coords, 3)


def _octahedron() -> GeometricRealization:
    coords = {
        0: (1, 0, 0), 1: (-1, 0, 0),
        2: (0, 1, 0), 3: (0, -1, 0),
        4: (0, 0, 1), 5: (0, 0, -1),
    }
    tris = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    return GeometricRealization(from_facets(tris), coords, 3)


def stacked_ball(k: int, seed: int | None = None) -> GeometricRealization:
    """Simplex with k stellar stackings on boundary triangles, in exact convex position.

    The rim maps each boundary triangle to its plane (n, offset), oriented
    away from the opposite vertex of its tetrahedron.  A stacking on the
    first rim triangle (or one drawn with ``seed``) puts the new vertex at
    ``bary + eps * n / |n|^2``.  ``eps`` is the largest 1/2^j (j >= 1) below
    ``(off2 - n2.bary) * |n|^2 / (n2.n)`` over the other rim planes with
    ``n2.n > 0``, which is positive since the barycentre ``bary`` lies
    strictly beneath them; so the vertex lies beyond this triangle alone.
    Any k >= 0 builds, but stacking in one corner (unseeded) about doubles
    the largest denominator's bit length every two stackings: 5,876 bits at
    k = 19, 13,153 at k = 22, 52,707 at k = 26 (about 2 s).  Raises
    ValueError for k < 0.
    """
    if k < 0:
        raise ValueError("the number of stackings must not be negative")
    rng = random.Random(seed) if seed is not None else None
    coords = {v: _frac_point(*p) for v, p in _simplex3().coords.items()}
    facets = [(0, 1, 2, 3)]
    rim: dict[Face, tuple] = {}

    def cover(tet: Face, apexes) -> None:  # put the faces of tet opposite the apexes in the rim
        for apex in apexes:
            tri = tuple(u for u in tet if u != apex)
            n, offset = _plane(coords, tri)
            if _dot(n, coords[apex]) > offset:
                n, offset = tuple(-x for x in n), -offset
            rim[tri] = n, offset

    cover(facets[0], facets[0])
    for w in range(4, 4 + k):
        tri = sorted(rim)[rng.randrange(len(rim))] if rng else min(rim)
        n, _ = rim.pop(tri)
        norm2 = _dot(n, n)
        bary = tuple(sum(axis) / 3 for axis in zip(*(coords[v] for v in tri)))
        bounds = [(off2 - _dot(n2, bary)) * norm2 / t for n2, off2 in rim.values() if (t := _dot(n2, n)) > 0]
        bound = min(bounds, default=Fraction(1))
        # 1/2^j < p/q exactly when 2^j > q // p
        eps = Fraction(1, 2 ** max(1, (bound.denominator // bound.numerator).bit_length()))
        coords[w] = tuple(b + eps * ni / norm2 for b, ni in zip(bary, n))
        facets.append(tuple(sorted(tri + (w,))))
        cover(facets[-1], tri)
    return GeometricRealization(from_facets(facets), coords, 3)


def _hull_triangles(points: dict[int, tuple[Fraction, ...]]) -> list[Face]:
    """Facets of a simplicial convex hull by exhaustive support checks."""
    return [tri for tri in itertools.combinations(sorted(points), 3) if _supports(points, tri)]


def _icosahedron() -> GeometricRealization:
    phi = Fraction(809, 500)  # rational stand-in for the golden ratio
    raw = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            raw.append((0, s1, s2 * phi))
            raw.append((s1, s2 * phi, 0))
            raw.append((s1 * phi, 0, s2))
    points = {i: _frac_point(*p) for i, p in enumerate(sorted(raw))}
    tris = _hull_triangles(points)
    if len(tris) != 20:
        raise MorseInvariantError(f"icosahedron hull has {len(tris)} facets")
    return GeometricRealization(from_facets(tris), {v: p for v, p in points.items()}, 3)


def _schlegel_cross4() -> GeometricRealization:
    """Schlegel diagram of the 4-dimensional cross-polytope: a convex
    3-ball made of the 15 facets not used as the projection window."""
    tets = []
    for signs in itertools.product((0, 1), repeat=4):
        if signs == (0, 0, 0, 0):
            continue  # the window facet (+e1, +e2, +e3, +e4)
        tets.append(tuple(i + 4 * signs[i] for i in range(4)))
    coords: dict[int, tuple[Fraction, ...]] = {}
    for i in range(4):
        plus4 = [Fraction(0)] * 4
        plus4[i] = Fraction(1)
        minus4 = [Fraction(3, 10)] * 4
        minus4[i] = Fraction(1, 10)
        coords[i] = tuple(plus4[j] - plus4[3] for j in range(3))
        coords[i + 4] = tuple(minus4[j] - minus4[3] for j in range(3))
    return GeometricRealization(from_facets(tets), coords, 3)


def _delta4_boundary() -> GeometricRealization:
    """Boundary of the 4-simplex in convex position in R^4: the smallest
    closed 3-manifold fixture."""
    c = from_facets(itertools.combinations(range(5), 4))
    coords = {0: (0, 0, 0, 0)}
    for i in range(4):
        p = [0, 0, 0, 0]
        p[i] = 1
        coords[i + 1] = tuple(p)
    return GeometricRealization(c, coords, 4)


def convex_fixture(name: str) -> GeometricRealization:
    """Named fixtures in exact convex position.

    simplex3, octahedron_boundary, icosahedron_boundary, schlegel_cross4,
    delta4_boundary, stacked(K), and stacked(K,SEED) for K >= 0.
    """
    name = name.strip()
    if name == "simplex3":
        return _simplex3()
    if name == "octahedron_boundary":
        return _octahedron()
    if name == "icosahedron_boundary":
        return _icosahedron()
    if name == "schlegel_cross4":
        return _schlegel_cross4()
    if name == "delta4_boundary":
        return _delta4_boundary()
    if name.startswith("stacked(") and name.endswith(")"):
        try:
            k, *seed = map(int, name[len("stacked("):-1].split(","))
        except ValueError:
            raise UnknownFixtureError(f"cannot parse {name!r}") from None
        if k < 0 or len(seed) > 1:
            raise UnknownFixtureError(f"{name!r}: expected stacked(K) or stacked(K,SEED), K >= 0")
        return stacked_ball(k, *seed)
    raise UnknownFixtureError(name)


# -- small fixed complexes --------------------------------------------------------

def checkerboard() -> SimplicialComplex:
    """Four of the octahedron's eight faces, no two sharing an edge.

    Every edge lies in exactly one triangle (all free), yet every vertex
    link is a pair of disjoint edges (no vertex deletion is available).
    """
    return from_facets([(1, 2, 3), (3, 4, 5), (1, 5, 6), (2, 4, 6)])


def dunce_hat() -> SimplicialComplex:
    """A contractible 2-complex without free faces (8 vertices, 17 triangles)."""
    return from_facets([
        (1, 2, 5), (1, 4, 5), (2, 3, 5), (1, 3, 6), (3, 5, 6), (1, 2, 6),
        (2, 3, 7), (2, 6, 7), (1, 3, 7), (1, 3, 8), (1, 7, 8), (2, 3, 8),
        (1, 2, 4), (2, 4, 8), (4, 5, 6), (4, 6, 7), (4, 7, 8),
    ])


def suspension_realization(c: SimplicialComplex) -> tuple[GeometricRealization, int, int]:
    """Suspension with apices on the last axis and the base slightly tilted.

    The base complex sits near the hyperplane of height zero with distinct
    heights in (-1/100, 1/100), apices at heights +1 and -1, in one more
    ambient dimension; the last coordinate vector is then in general
    position.
    """
    sus, north, south = suspension(c)
    n = c.vertex_count
    coords: dict[int, tuple] = {}
    for m, v in enumerate(c.vertices):
        h = Fraction(2 * (m + 1) - (n + 1), 100 * (n + 1))
        coords[v] = (Fraction(m), Fraction(0), Fraction(0), h)
    coords[north] = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    coords[south] = (Fraction(0), Fraction(0), Fraction(0), Fraction(-1))
    return GeometricRealization(sus, coords, 4), north, south
