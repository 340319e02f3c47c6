"""The exact searches as the library ran them before their fast paths.

``canonical_form`` sorts the vertices by ``repr`` of nested colour tuples,
and ``nonevasive`` checks the Betti vector at every search node and
relabels every certificate it stores in the memo.  ``refined_canonical_form``
is the library's form before it counted faces per level and skipped rounds
that cannot reorder: it fills the profiles face by face, always refines
twice and reads the key off the sorted ``facets``.  The library's
``canonical_form``, which also answers a simplex from its vertices alone,
must return the same key and relabel.  ``backtracking``
is ``collapsible(c, "backtracking", budget)`` with its dead set keyed by the
library's ``canonical_form`` at every node.  The library must give the same
statuses, reasons, certificates, collapse steps and node counts.

``verify_certificate`` and ``acyclic_cert`` are the certificate walks as
generators on ``_drive``'s stack, which holds every complex of the deletion
chain at once; the library walks the chain as a loop and must give the same
verdicts and certificates.

``copying_nonevasive`` is the library's search as it was before it ran on
one mutable complex with undo: every node copies the whole complex
(``deletion``), scans every face for a ``link`` and counts star sizes over
every face, and the search stores every node it decides in the memo.  The
library must give identical results, certificates and budget behaviour.

``backtracking`` reads each node's free pairs from ``complex_oracle``, not
from the collapse engine that the library's search runs on.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from complex_oracle import free_faces
from tightmorse import algorithms
from tightmorse.algorithms import (
    CollapseSequence,
    CollapsibleResult,
    NonEvasiveResult,
    NonEvasivenessCertificate,
    _acyclic_betti,
    _Budget,
    _BudgetExhausted,
    _drive,
    _is_nonempty_tree,
    _IsoMemo,
)
from tightmorse.complex_core import Face, SimplicialComplex, deletion, from_faces, link
from tightmorse.errors import StuckNoDeletableVertexError
from tightmorse.morse import Pair


def canonical_form(c: SimplicialComplex) -> tuple[frozenset[Face], dict[int, int]]:
    verts = c.vertices
    profile: dict[int, list[int]] = {v: [0] * (c.dimension + 1) for v in verts}
    for dim in range(c.dimension + 1):
        for f in c.face_set(dim):
            for v in f:
                profile[v][dim] += 1
    color: dict[int, object] = {v: tuple(profile[v]) for v in verts}
    adjacency: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in c.face_set(1):
        adjacency[a].append(b)
        adjacency[b].append(a)
    for _ in range(2):
        color = {
            v: (color[v], tuple(sorted(color[u] for u in adjacency[v])))
            for v in verts
        }
    order = sorted(verts, key=lambda v: (repr(color[v]), v))
    relabel = {v: i for i, v in enumerate(order)}
    key = frozenset(tuple(sorted(relabel[u] for u in f)) for f in c.facets)
    return key, relabel


def refined_canonical_form(c: SimplicialComplex) -> tuple[frozenset[Face], dict[int, int]]:
    verts = c.vertices
    profile: dict[int, list[int]] = {v: [0] * (c.dimension + 1) for v in verts}
    for dim in range(c.dimension + 1):
        for f in c.face_set(dim):
            for v in f:
                profile[v][dim] += 1
    color: dict[int, object] = {v: tuple(profile[v]) for v in verts}
    adjacency: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in c.face_set(1):
        adjacency[a].append(b)
        adjacency[b].append(a)
    for _ in range(2):
        signature = {v: (color[v], tuple(sorted(color[u] for u in adjacency[v]))) for v in verts}
        palette = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        color = {v: palette[signature[v]] for v in verts}
    order = sorted(verts, key=lambda v: (color[v], v))
    relabel = {v: i for i, v in enumerate(order)}
    key = frozenset(tuple(sorted(relabel[u] for u in f)) for f in c.facets)
    return key, relabel


def nonevasive(c: SimplicialComplex, budget: int = 10**6) -> NonEvasiveResult:
    if c.is_empty:
        return NonEvasiveResult("no", reason="empty")
    memo: dict[frozenset[Face], object] = {}
    tracker = _Budget(budget)

    def search(cur: SimplicialComplex) -> NonEvasivenessCertificate | None:
        if cur.num_faces == 1:
            return NonEvasivenessCertificate(cur.vertices[0])
        tracker.tick()
        if not _acyclic_betti(cur):
            return None
        key, relabel = canonical_form(cur)
        if key in memo:
            hit = memo[key]
            if hit is None:
                return None
            back = {i: v for v, i in relabel.items()}
            return hit.relabeled(back)  # type: ignore[union-attr]
        result: NonEvasivenessCertificate | None = None
        star_size = {v: 0 for v in cur.vertices}
        for f in cur.faces():
            for v in f:
                star_size[v] += 1
        for v in sorted(cur.vertices, key=lambda u: (star_size[u], u)):
            lk = link(cur, v)
            if lk.is_empty:
                continue
            link_cert = search(lk)
            if link_cert is None:
                continue
            del_cert = search(deletion(cur, v))
            if del_cert is None:
                continue
            result = NonEvasivenessCertificate(v, link_cert, del_cert)
            break
        memo[key] = result.relabeled(relabel) if result else None
        return result

    if not _acyclic_betti(c):
        return NonEvasiveResult("no", reason="betti")
    try:
        cert = search(c)
    except _BudgetExhausted:
        return NonEvasiveResult("budget")
    if cert is None:
        return NonEvasiveResult("no", reason="exhausted")
    return NonEvasiveResult("yes", certificate=cert)


def backtracking(c: SimplicialComplex, budget: int = 10**6) -> CollapsibleResult:
    if c.is_empty:
        return CollapsibleResult("no", reason="empty")
    if c.num_faces == 1:
        return CollapsibleResult("yes", CollapseSequence(c, (), c))
    if not _acyclic_betti(c):
        return CollapsibleResult("no", reason="betti")

    if not free_faces(c):
        return CollapsibleResult("no", reason="no free face")

    tracker = _Budget(budget)
    dead: set[frozenset[Face]] = set()

    def search(faces: frozenset[Face]) -> list[Pair] | None:
        if len(faces) == 1:
            return []
        tracker.tick()
        cur = from_faces(faces)
        key, _ = algorithms.canonical_form(cur)
        if key in dead:
            return None
        for s, t in free_faces(cur):
            rest = search(faces - {s, t})
            if rest is not None:
                return [(s, t)] + rest
        dead.add(key)
        return None

    try:
        steps = search(frozenset(c.faces()))
    except _BudgetExhausted:
        return CollapsibleResult("budget")
    if steps is None:
        return CollapsibleResult("no", reason="exhausted")
    remaining = set(c.faces())
    for s, t in steps:
        remaining -= {s, t}
    return CollapsibleResult("yes", CollapseSequence(c, tuple(steps), from_faces(remaining)))


def verify_certificate(c: SimplicialComplex, cert: NonEvasivenessCertificate) -> bool:
    def replay(c: SimplicialComplex, cert: NonEvasivenessCertificate):
        if cert.is_leaf:
            return c.num_faces == 1 and c.vertices == (cert.vertex,)
        if not c.has_vertex(cert.vertex) or cert.link_cert is None or cert.deletion_cert is None:
            return False
        return (yield replay(link(c, cert.vertex), cert.link_cert)) and (
            yield replay(deletion(c, cert.vertex), cert.deletion_cert)
        )

    return _drive(replay(c, cert))


def acyclic_cert(c: SimplicialComplex) -> NonEvasivenessCertificate:
    """The certificate ``planar_acyclic_nonevasive`` gives a connected
    acyclic complex of dimension at most 2."""

    def search(c: SimplicialComplex):
        if c.num_faces == 1:
            return NonEvasivenessCertificate(c.vertices[0])
        blocking: dict[int, tuple[int, ...]] = {}
        for v in c.vertices:
            lk = link(c, v)
            if _is_nonempty_tree(lk):
                link_cert = yield search(lk)
                del_cert = yield search(deletion(c, v))
                return NonEvasivenessCertificate(v, link_cert, del_cert)
            blocking[v] = lk.f_vector
        raise StuckNoDeletableVertexError(blocking)

    return _drive(search(c))


def copying_nonevasive(c: SimplicialComplex, budget: int = 10**6) -> NonEvasiveResult:
    if budget < 0:
        raise ValueError("the budget must not be negative")
    if c.is_empty:
        return NonEvasiveResult("no", reason="empty")
    memo = _IsoMemo()
    tracker = _Budget(budget)

    def search(cur: SimplicialComplex, acyclic: bool):
        if cur.num_faces == 1:
            return NonEvasivenessCertificate(cur.vertices[0])
        tracker.tick()
        if not acyclic and cur.euler_characteristic != 1:
            return None
        hit, form = memo.lookup(cur.f_vector, lambda: cur)
        if hit is not None:
            cert, stored = hit
            if cert is None:
                return None
            back = {i: v for v, i in form[1].items()}
            return cert.relabeled({u: back[i] for u, i in stored.items()})
        if not acyclic and not _acyclic_betti(cur):
            return None
        result: NonEvasivenessCertificate | None = None
        star_size = Counter(chain.from_iterable(cur.faces()))
        for v in sorted(cur.vertices, key=star_size.__getitem__):
            link_cert = yield search(link(cur, v), False)
            if link_cert is None:
                continue
            del_cert = yield search(deletion(cur, v), True)
            if del_cert is None:
                continue
            result = NonEvasivenessCertificate(v, link_cert, del_cert)
            break
        memo.store(cur.f_vector, result, form, lambda: cur)
        return result

    if not _acyclic_betti(c):
        return NonEvasiveResult("no", reason="betti")
    try:
        cert = _drive(search(c, True))
    except _BudgetExhausted:
        return NonEvasiveResult("budget")
    if cert is None:
        return NonEvasiveResult("no", reason="exhausted")
    return NonEvasiveResult("yes", certificate=cert)
