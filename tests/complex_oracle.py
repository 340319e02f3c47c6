"""complex_core operators as they were before every complex went through one
closure and one coface map.

Each function closes its output with the all-subsets closure, and
``free_faces`` counts every proper coface of every face.  The hypothesis
tests in ``test_complex_core`` compare the library against these, and
``test_collapse_engine`` compares the collapser's free list with
``free_faces`` after every removal.  ``search_oracle.backtracking`` reads
each node's free pairs from ``free_faces``, not from the collapse engine.
"""

import itertools

from tightmorse.complex_core import EMPTY_COMPLEX, Face, SimplicialComplex, _require_vertex
from tightmorse.errors import LabelClashError


def subfaces(face: Face):
    """All nonempty proper subfaces of a face."""
    for k in range(1, len(face)):
        yield from itertools.combinations(face, k)


def close(faces) -> SimplicialComplex:
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
        for sub in subfaces(face):
            if sub not in seen:
                seen.add(sub)
                levels.setdefault(len(sub) - 1, set()).add(sub)
    if not levels:
        return EMPTY_COMPLEX
    top = max(levels)
    return SimplicialComplex(tuple(frozenset(levels.get(d, ())) for d in range(top + 1)))


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
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
    _require_vertex(c, v)
    return close([f for f in c.faces() if v not in f])


def star(c: SimplicialComplex, v: int) -> SimplicialComplex:
    _require_vertex(c, v)
    return close([f for d in range(c.dimension + 1) for f in c.face_set(d) if v in f])


def cone(c: SimplicialComplex, apex: int) -> SimplicialComplex:
    if c.has_vertex(apex):
        raise LabelClashError(f"apex {apex} already a vertex")
    if c.is_empty:
        return close([(apex,)])
    faces: list[Face] = [(apex,)]
    for d in range(c.dimension + 1):
        for f in c.face_set(d):
            faces.append(f)
            faces.append(tuple(sorted(f + (apex,))))
    return close(faces)


def suspension(c: SimplicialComplex) -> tuple[SimplicialComplex, int, int]:
    base = max(c.vertices) if not c.is_empty else -1
    north, south = base + 1, base + 2
    faces: list[Face] = [(north,), (south,)]
    for d in range(c.dimension + 1):
        for f in c.face_set(d):
            faces.append(f)
            faces.append(tuple(sorted(f + (north,))))
            faces.append(tuple(sorted(f + (south,))))
    return close(faces), north, south


def join(c1: SimplicialComplex, c2: SimplicialComplex) -> SimplicialComplex:
    relabel = {v: v for v in c2.vertices}
    if set(c1.vertices) & set(c2.vertices):
        offset = max(c1.vertices) + 1 - min(c2.vertices)
        relabel = {v: v + offset for v in c2.vertices}
    faces1: list[Face] = [()] + [f for d in range(c1.dimension + 1) for f in c1.face_set(d)]
    faces2: list[Face] = [()]
    for d in range(c2.dimension + 1):
        faces2.extend(tuple(sorted(relabel[u] for u in f)) for f in c2.face_set(d))
    return close([tuple(sorted(f1 + f2)) for f1 in faces1 for f2 in faces2 if f1 or f2])


def free_faces(c: SimplicialComplex) -> list[tuple[Face, Face]]:
    """(face, coface) for every face with exactly one proper coface."""
    last_coface: dict[Face, Face] = {}
    counts: dict[Face, int] = {f: 0 for f in c.faces()}
    for face in c.faces():
        for sub in subfaces(face):
            counts[sub] += 1
            last_coface[sub] = face
    return sorted((f, last_coface[f]) for f, n in counts.items() if n == 1)

