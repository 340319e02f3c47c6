"""Abstract simplicial complexes and the basic operators on them.

Faces are canonical tuples of strictly increasing non-negative integer
labels.  A complex stores its full downward closure, grouped by dimension,
so every operator has cheap access to the whole face poset.  The empty face
is implicit and never stored.

``from_facets`` and ``from_faces`` close their input with ``_close``: top
down, the faces of each size are the given ones and the subsets of the faces
one size up, each level one frozenset built by ``itertools`` iteration with
no Python loop per face.  The other operators, and ``algorithms`` on face
sets closed by construction, group a downward-closed family by dimension
with ``_by_dimension``.  ``link`` and ``deletion``, which the
non-evasiveness search runs at every node, cut each stored level into one
frozenset instead; a link face is a face with the vertex sliced out.
``free_faces`` maps each face to its one immediate coface in a single pass;
the collapse engine (``morse.FaceSetCollapser``) numbers the faces and
keeps its own coface counts instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property
from itertools import chain, combinations, repeat
from typing import Iterable, Sequence

from .errors import (
    EmptyInputError,
    LabelClashError,
    MalformedFacetError,
    VertexNotFoundError,
)

Face = tuple[int, ...]


def canonical_face(vertices: Iterable[int]) -> Face:
    """Sorted tuple form of a face; rejects duplicate labels."""
    face = tuple(sorted(map(int, vertices)))
    if len(set(face)) != len(face):
        raise MalformedFacetError(f"repeated vertex in face {face}")
    if face and face[0] < 0:
        raise MalformedFacetError(f"negative vertex label in face {face}")
    return face


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
        self.f_vector: tuple[int, ...] = tuple(map(len, by_dim))

    # -- basic queries ----------------------------------------------------

    @property
    def dimension(self) -> int:
        """Max face dimension; -1 for the empty complex."""
        return len(self._by_dim) - 1

    @property
    def is_empty(self) -> bool:
        return not self._by_dim

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
        return tuple(sorted(chain.from_iterable(self._by_dim[0])))

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


class Record:
    """Base of the library's immutable result types.

    A subclass names its fields, in order, in ``__match_args__`` and sets
    them in its own ``__init__`` with ``object.__setattr__``.  Two records
    are equal when they are of one class and their field tuples are equal;
    the hash is the hash of the field tuple, and ``repr`` reads
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    AttributeError.  These are a frozen dataclass's semantics, without the
    generated code that makes creating one cost start-up time.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _by_dimension(faces: Iterable[Face]) -> SimplicialComplex:
    """Complex of a downward-closed family of canonical faces.

    The family is trusted to be closed; the empty face is dropped.
    """
    levels: dict[int, set[Face]] = {}
    for face in faces:
        levels.setdefault(len(face), set()).add(face)
    top = max(levels, default=0)
    return SimplicialComplex(tuple(levels.get(k, ()) for k in range(1, top + 1)))


def _close(faces: Iterable[Face]) -> SimplicialComplex:
    """Downward closure of a set of canonical faces; the empty face is dropped.

    Top down, each level is the given faces of its size and the subfaces of
    the level above, so every face of the closure is generated by the faces
    one dimension up only: the work is linear in the closure even when the
    input lists faces that others contain.
    """
    faces = sorted(faces, key=len)
    end = len(faces)
    levels: list[frozenset[Face]] = []
    above: frozenset[Face] = frozenset()
    for k in range(len(faces[-1]) if faces else 0, 0, -1):
        start = bisect_left(faces, k, 0, end, key=len)
        above = frozenset(chain(faces[start:end], chain.from_iterable(map(combinations, above, repeat(k)))))
        levels.append(above)
        end = start
    return SimplicialComplex(levels[::-1])


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
    levels = []
    for level in c._by_dim[1:]:
        faces = frozenset(f[:(i := f.index(v))] + f[i + 1:] for f in level if v in f)
        if not faces:  # then no larger face of the closed family contains v
            break
        levels.append(faces)
    return SimplicialComplex(levels)


def deletion(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """All faces of c that do not contain v.  May be empty."""
    _require_vertex(c, v)
    return SimplicialComplex([frozenset(f for f in level if v not in f) for level in c._by_dim])


def star(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Closed star: closure of all faces containing v, the cone over its link."""
    return cone(link(c, v), v)


def restrict(c: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Full induced subcomplex on the given vertex set."""
    keep = set(vertices)
    return SimplicialComplex(
        tuple(frozenset(f for f in c.face_set(d) if keep.issuperset(f)) for d in range(c.dimension + 1))
    )


# -- joins, cones, suspensions -------------------------------------------

def join(c1: SimplicialComplex, c2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes.

    If the label sets clash, c2 is relabeled by a constant shift, so that
    its smallest label follows the largest label of c1.  Joining with an
    empty complex returns the other complex.
    """
    relabel = {v: v for v in c2.vertices}
    if set(c1.vertices) & set(c2.vertices):
        offset = max(c1.vertices) + 1 - min(c2.vertices)
        relabel = {v: v + offset for v in c2.vertices}

    faces1: list[Face] = [()] + [f for d in range(c1.dimension + 1) for f in c1.face_set(d)]
    faces2: list[Face] = [()]
    for d in range(c2.dimension + 1):
        faces2.extend(tuple(sorted(relabel[u] for u in f)) for f in c2.face_set(d))

    return _by_dimension(tuple(sorted(f1 + f2)) for f1 in faces1 for f2 in faces2)


def cone(c: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Cone over c with the given fresh apex label."""
    if c.has_vertex(apex):
        raise LabelClashError(f"apex {apex} already a vertex")
    faces = [f for d in range(c.dimension + 1) for f in c.face_set(d)]
    return _by_dimension([(apex,), *faces, *(tuple(sorted(f + (apex,))) for f in faces)])


def suspension(c: SimplicialComplex) -> tuple[SimplicialComplex, int, int]:
    """Join with two fresh apices; returns (complex, north, south)."""
    base = max(c.vertices) if not c.is_empty else -1
    north, south = base + 1, base + 2
    return join(c, _by_dimension([(north,), (south,)])), north, south


# -- subdivision ----------------------------------------------------------

def barycentric_subdivision(c: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision: vertices are faces, faces are chains.

    The vertex labelled i is the barycenter of ``c.faces()[i]``: labels are
    allocated in (dimension, lexicographic) order of the original faces.
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

    return _by_dimension(chains)  # a subset of a chain is a chain


# -- free faces and boundaries --------------------------------------------

def free_faces(c: SimplicialComplex) -> list[tuple[Face, Face]]:
    """All (free face, unique proper coface) pairs.

    A face is free when it has exactly one immediate coface.  That coface is
    then its only proper coface, a facet one dimension higher: a larger
    coface would contain a second immediate one.
    """
    coface: dict[Face, Face | None] = {}  # None once a second coface is seen
    for level in c._by_dim[1:]:
        for face in level:
            for sub in itertools.combinations(face, len(face) - 1):
                coface[sub] = None if sub in coface else face
    return sorted((face, up) for face, up in coface.items() if up is not None)


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
    return _close([f for f, n in count.items() if n == 1])
