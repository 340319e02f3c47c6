"""The non-evasiveness search as the library ran it before its fast path.

``canonical_form`` sorts the vertices by ``repr`` of nested colour tuples,
and ``nonevasive`` checks the Betti vector at every search node and
relabels every certificate it stores in the memo.  The library must give
the same statuses, reasons and certificates.
"""

from __future__ import annotations

from tightmorse.algorithms import (
    NonEvasiveResult,
    NonEvasivenessCertificate,
    _acyclic_betti,
    _Budget,
    _BudgetExhausted,
)
from tightmorse.complex_core import Face, SimplicialComplex, deletion, link


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
