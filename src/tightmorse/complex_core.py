"""Abstract simplicial complexes and the basic operators on them.

Faces are canonical tuples of strictly increasing non-negative integer
labels.  A complex stores its full downward closure, grouped by dimension,
so every operator has cheap access to the whole face poset.  The empty face
is implicit and never stored.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyInputError,
    LabelClashError,
    MalformedFacetError,
    VertexNotFoundError,
)

Face = tuple[int, ...]


def canonical_face(vertices: Iterable[int]) -> Face:
    """Sorted tuple form of a face; rejects duplicate labels."""
    face = tuple(sorted(int(v) for v in vertices))
    if len(set(face)) != len(face):
        raise MalformedFacetError(f"repeated vertex in face {face}")
    if face and face[0] < 0:
        raise MalformedFacetError(f"negative vertex label in face {face}")
    return face


def subfaces(face: Face) -> Iterator[Face]:
    """All nonempty proper subfaces of a face."""
    for k in range(1, len(face)):
        yield from itertools.combinations(face, k)


class SimplicialComplex:
    """Immutable downward-closed family of faces.

    Construct through :func:`from_facets` or the operators below; the
    constructor trusts its input to be closed.
    """

    def __init__(self, faces_by_dim: Sequence[frozenset[Face]]):
        by_dim = tuple(frozenset(level) for level in faces_by_dim)
        while by_dim and not by_dim[-1]:
            by_dim = by_dim[:-1]
        self._by_dim = by_dim

    # -- basic queries ----------------------------------------------------

    @property
    def dimension(self) -> int:
        """Max face dimension; -1 for the empty complex."""
        return len(self._by_dim) - 1

    @property
    def is_empty(self) -> bool:
        return not self._by_dim

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self._by_dim)

    @property
    def num_faces(self) -> int:
        return sum(self.f_vector)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * f for i, f in enumerate(self.f_vector))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        if self.is_empty:
            return ()
        return tuple(sorted(v for (v,) in self._by_dim[0]))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def faces(self, dim: int | None = None) -> tuple[Face, ...]:
        """Faces of one dimension (or all), in lexicographic order."""
        if dim is None:
            out: list[Face] = []
            for d in range(len(self._by_dim)):
                out.extend(self.faces(d))
            return tuple(out)
        if dim < 0 or dim > self.dimension:
            return ()
        return self._sorted_level(dim)

    def _sorted_level(self, dim: int) -> tuple[Face, ...]:
        cache = self.__dict__.setdefault("_sorted_cache", {})
        if dim not in cache:
            cache[dim] = tuple(sorted(self._by_dim[dim]))
        return cache[dim]

    def face_set(self, dim: int) -> frozenset[Face]:
        if dim < 0 or dim > self.dimension:
            return frozenset()
        return self._by_dim[dim]

    def __contains__(self, face: Iterable[int]) -> bool:
        f = tuple(sorted(face))
        d = len(f) - 1
        return 0 <= d <= self.dimension and f in self._by_dim[d]

    def has_vertex(self, v: int) -> bool:
        return not self.is_empty and (v,) in self._by_dim[0]

    @cached_property
    def facets(self) -> tuple[Face, ...]:
        """Maximal faces, lexicographic within descending dimension."""
        # in a closed family a face is non-maximal iff it lies in a face one dimension up
        non_maximal: set[Face] = set()
        for level in self._by_dim[1:]:
            for face in level:
                non_maximal.update(itertools.combinations(face, len(face) - 1))
        out = []
        for d in range(self.dimension, -1, -1):
            out.extend(f for f in self._sorted_level(d) if f not in non_maximal)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._by_dim == other._by_dim

    def __hash__(self) -> int:
        return hash(self._by_dim)

    def __repr__(self) -> str:
        if self.is_empty:
            return "SimplicialComplex(empty)"
        return f"SimplicialComplex(f={self.f_vector})"


EMPTY_COMPLEX = SimplicialComplex(())


def _close(faces: Iterable[Face]) -> SimplicialComplex:
    """Downward closure of a set of canonical faces."""
    levels: dict[int, set[Face]] = {}
    seen: set[Face] = set()
    stack = list(faces)
    while stack:
        face = stack.pop()
        if face in seen or not face:
            continue
        seen.add(face)
        levels.setdefault(len(face) - 1, set()).add(face)
        for k in range(1, len(face)):
            for sub in itertools.combinations(face, k):
                if sub not in seen:
                    seen.add(sub)
                    levels.setdefault(k - 1, set()).add(sub)
    if not levels:
        return EMPTY_COMPLEX
    top = max(levels)
    return SimplicialComplex(tuple(frozenset(levels.get(d, ())) for d in range(top + 1)))


def from_facets(facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Complex generated by the given facets (downward closure).

    Facets that are faces of other facets are absorbed.  Raises
    EmptyInputError for an empty facet list and MalformedFacetError on
    duplicate vertices within a facet.
    """
    canon = [canonical_face(f) for f in facets]
    if not canon:
        raise EmptyInputError("no facets given")
    return _close(canon)


def from_faces(faces: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Like from_facets but tolerates an empty family (empty complex)."""
    canon = [canonical_face(f) for f in faces]
    return _close(canon)


# -- local operators ------------------------------------------------------

def _require_vertex(c: SimplicialComplex, v: int) -> None:
    if not c.has_vertex(v):
        raise VertexNotFoundError(f"vertex {v} not in complex")


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces s with s + v in c and v not in s.  May be empty."""
    _require_vertex(c, v)
    levels: dict[int, set[Face]] = {}
    for d in range(1, c.dimension + 1):
        for face in c.face_set(d):
            if v in face:
                rest = tuple(u for u in face if u != v)
                levels.setdefault(len(rest) - 1, set()).add(rest)
    if not levels:
        return EMPTY_COMPLEX
    top = max(levels)
    return SimplicialComplex(tuple(frozenset(levels.get(d, ())) for d in range(top + 1)))


def deletion(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """All faces of c that do not contain v.  May be empty."""
    _require_vertex(c, v)
    return SimplicialComplex(
        tuple(frozenset(f for f in c.face_set(d) if v not in f) for d in range(c.dimension + 1))
    )


def star(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Closed star: closure of all faces containing v."""
    _require_vertex(c, v)
    return _close([f for d in range(c.dimension + 1) for f in c.face_set(d) if v in f])


def restrict(c: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Full induced subcomplex on the given vertex set."""
    keep = set(vertices)
    return SimplicialComplex(
        tuple(frozenset(f for f in c.face_set(d) if keep.issuperset(f)) for d in range(c.dimension + 1))
    )


# -- joins, cones, suspensions -------------------------------------------

def join(
    c1: SimplicialComplex,
    c2: SimplicialComplex,
    return_map: bool = False,
) -> SimplicialComplex | tuple[SimplicialComplex, dict[int, int]]:
    """Join of two complexes.

    If the label sets clash, c2 is relabeled by a constant shift; the
    old-to-new map is returned when ``return_map`` is set (identity map
    otherwise).  Joining with an empty complex returns the other complex.
    """
    relabel = {v: v for v in c2.vertices}
    if set(c1.vertices) & set(c2.vertices):
        offset = max(c1.vertices) + 1 - min(c2.vertices)
        relabel = {v: v + offset for v in c2.vertices}

    faces1: list[Face] = [()] + [f for d in range(c1.dimension + 1) for f in c1.face_set(d)]
    faces2: list[Face] = [()]
    for d in range(c2.dimension + 1):
        faces2.extend(tuple(sorted(relabel[u] for u in f)) for f in c2.face_set(d))

    joined = _close([
        tuple(sorted(f1 + f2)) for f1 in faces1 for f2 in faces2 if f1 or f2
    ])
    if return_map:
        return joined, relabel
    return joined


def cone(c: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Cone over c with the given fresh apex label."""
    if c.has_vertex(apex):
        raise LabelClashError(f"apex {apex} already a vertex")
    if c.is_empty:
        return from_faces([(apex,)])
    faces: list[Face] = [(apex,)]
    for d in range(c.dimension + 1):
        for f in c.face_set(d):
            faces.append(f)
            faces.append(tuple(sorted(f + (apex,))))
    return _close(faces)


def suspension(c: SimplicialComplex) -> tuple[SimplicialComplex, int, int]:
    """Join with two fresh apices; returns (complex, north, south)."""
    base = max(c.vertices) if not c.is_empty else -1
    north, south = base + 1, base + 2
    faces: list[Face] = [(north,), (south,)]
    for d in range(c.dimension + 1):
        for f in c.face_set(d):
            faces.append(f)
            faces.append(tuple(sorted(f + (north,))))
            faces.append(tuple(sorted(f + (south,))))
    return _close(faces), north, south


# -- subdivision ----------------------------------------------------------

def barycentric_subdivision(
    c: SimplicialComplex,
    return_vertex_map: bool = False,
) -> SimplicialComplex | tuple[SimplicialComplex, dict[int, Face]]:
    """Barycentric subdivision: vertices are faces, faces are chains.

    New labels are allocated in (dimension, lexicographic) order of the
    original faces; the label-to-face map is returned on request.
    """
    all_faces = c.faces()
    label_of = {face: i for i, face in enumerate(all_faces)}

    chains: list[Face] = []

    def grow(chain: list[int], top: Face) -> None:
        chains.append(tuple(sorted(chain)))
        for k in range(1, len(top)):
            for sub in itertools.combinations(top, k):
                chain.append(label_of[sub])
                grow(chain, sub)
                chain.pop()

    for face in all_faces:
        grow([label_of[face]], face)

    sd = _close(chains)
    if return_vertex_map:
        return sd, {i: face for face, i in label_of.items()}
    return sd


# -- free faces and boundaries --------------------------------------------

def free_faces(c: SimplicialComplex) -> list[tuple[Face, Face]]:
    """All (free face, unique proper coface) pairs.

    A face is free when it has exactly one proper coface; that coface is
    then a facet one dimension higher.
    """
    last_coface: dict[Face, Face] = {}
    counts: dict[Face, int] = {f: 0 for f in c.faces()}
    for face in c.faces():
        for sub in subfaces(face):
            counts[sub] += 1
            last_coface[sub] = face
    return sorted(
        (f, last_coface[f]) for f, n in counts.items() if n == 1
    )


def is_closed_surface(c: SimplicialComplex) -> bool:
    """2-complex in which every edge lies in exactly two triangles."""
    if c.dimension != 2:
        return False
    count = dict.fromkeys(c.face_set(1), 0)
    for t in c.face_set(2):
        for e in itertools.combinations(t, 2):
            count[e] += 1
    return all(n == 2 for n in count.values())


def boundary_complex(c: SimplicialComplex) -> SimplicialComplex:
    """Closure of the codimension-1 faces lying in exactly one facet.

    Intended for pure d-complexes (triangulated manifolds with boundary);
    counts only cofaces of top dimension.
    """
    d = c.dimension
    if d <= 0:
        return EMPTY_COMPLEX
    count: dict[Face, int] = {}
    for top in c.face_set(d):
        for sub in itertools.combinations(top, d):
            count[sub] = count.get(sub, 0) + 1
    rim = [f for f, n in count.items() if n == 1]
    if not rim:
        return EMPTY_COMPLEX
    return _close(rim)
