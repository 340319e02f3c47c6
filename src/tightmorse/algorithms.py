"""Constructive procedures: planar perfect Morse functions, relative
collapses, the sweep construction of perfect matchings on tight
realizations, and exact decision procedures for collapsibility and
non-evasiveness under explicit budgets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .complex_core import (
    Face,
    SimplicialComplex,
    deletion,
    free_faces,
    from_faces,
    is_closed_surface,
    link,
    restrict,
)
from .errors import (
    DimensionOutOfRangeError,
    EmptyComplexError,
    NotAcyclicError,
    NotASubcomplexError,
    NotTightError,
    LinkNotPlanarCollapsibleError,
    PerfectnessAssertionFailedError,
    StuckBeforeTargetError,
    StuckNoDeletableVertexError,
    StuckNoFreeEdgeError,
)
from .geometry import GeometricRealization, is_prefix_tight, sweep_order
from .homology_z2 import betti, inclusion_induced_injective, is_subcomplex
from .morse import (
    FaceSetCollapser,
    MorseMatching,
    Pair,
    lift_matching_over_cone,
    morse_vector,
    random_pick,
    validate,
)


# -- collapse sequences ------------------------------------------------------

@dataclass(frozen=True)
class CollapseSequence:
    """Ordered elementary collapses from source down to target."""

    source: SimplicialComplex
    steps: tuple[Pair, ...]
    target: SimplicialComplex

    def __len__(self) -> int:
        return len(self.steps)


# -- planar complexes --------------------------------------------------------

def planar_perfect_morse(d: SimplicialComplex) -> MorseMatching:
    """Perfect matching on a planar complex of dimension at most 2.

    While 2-faces remain, collapse an edge that lies in exactly one
    triangle (lexicographically smallest); on the remaining graph, match
    each non-root vertex with its spanning-forest edge.  Critical faces:
    one vertex per component, the non-forest edges, and no triangles.
    Raises StuckNoFreeEdgeError when triangles survive with no free edge,
    the signature of a non-planar input.
    """
    if d.is_empty:
        raise EmptyComplexError("planar routine needs a nonempty complex")
    if d.dimension > 2:
        raise DimensionOutOfRangeError("planar routine limited to dimension <= 2")

    tracker = FaceSetCollapser(d)
    # a free edge lies in a triangle, so this stops once no triangle has one
    pairs = tracker.collapse(lambda free: next((f for f in free if len(f) == 2), None))
    triangles = sum(len(f) == 3 for f in tracker.faces)
    if triangles:
        raise StuckNoFreeEdgeError(f"{triangles} triangles left with no free edge")

    # spanning forest on what is left (a graph)
    vertices = sorted(f[0] for f in tracker.faces if len(f) == 1)
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for f in sorted(tracker.faces):
        if len(f) == 2:
            adjacency[f[0]].append(f[1])
            adjacency[f[1]].append(f[0])
    seen: set[int] = set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in sorted(adjacency[u]):
                if w not in seen:
                    seen.add(w)
                    pairs.append(((w,), tuple(sorted((u, w)))))
                    queue.append(w)
    return MorseMatching(d, frozenset(pairs))


@dataclass(frozen=True)
class NonEvasivenessCertificate:
    """Recursive witness: delete ``vertex``, certify its link and deletion.

    A leaf (link_cert and deletion_cert both None) asserts the complex is
    the single point ``vertex``.
    """

    vertex: int
    link_cert: Optional["NonEvasivenessCertificate"] = None
    deletion_cert: Optional["NonEvasivenessCertificate"] = None

    @property
    def is_leaf(self) -> bool:
        return self.link_cert is None and self.deletion_cert is None

    def relabeled(self, mapping: dict[int, int]) -> "NonEvasivenessCertificate":
        return NonEvasivenessCertificate(
            mapping[self.vertex],
            self.link_cert.relabeled(mapping) if self.link_cert else None,
            self.deletion_cert.relabeled(mapping) if self.deletion_cert else None,
        )

    @property
    def size(self) -> int:
        n = 1
        if self.link_cert:
            n += self.link_cert.size
        if self.deletion_cert:
            n += self.deletion_cert.size
        return n


def verify_certificate(c: SimplicialComplex, cert: NonEvasivenessCertificate) -> bool:
    """Replay a certificate; True iff it proves c non-evasive."""
    if cert.is_leaf:
        return c.num_faces == 1 and c.vertices == (cert.vertex,)
    if not c.has_vertex(cert.vertex) or cert.link_cert is None or cert.deletion_cert is None:
        return False
    return verify_certificate(link(c, cert.vertex), cert.link_cert) and verify_certificate(
        deletion(c, cert.vertex), cert.deletion_cert
    )


def _is_nonempty_tree(g: SimplicialComplex) -> bool:
    """Nonempty, dimension <= 1, connected, acyclic."""
    if g.is_empty or g.dimension > 1:
        return False
    b = betti(g)
    return b[0] == 1 and b[1] == 0


def planar_acyclic_nonevasive(d: SimplicialComplex) -> NonEvasivenessCertificate:
    """Non-evasiveness certificate for a connected acyclic planar complex.

    Repeatedly deletes a vertex whose link is a nonempty tree (a path in
    the generic case), recursing on both the link and the deletion.
    Raises NotAcyclicError if reduced homology is nontrivial, and
    StuckNoDeletableVertexError when every vertex link is disconnected or
    cyclic, which signals a non-planar input.
    """
    if d.is_empty:
        raise EmptyComplexError("empty complex")
    if d.dimension > 2:
        raise DimensionOutOfRangeError("planar routine limited to dimension <= 2")
    b = betti(d)
    if b[0] != 1 or any(b[i] for i in range(1, len(b))):
        raise NotAcyclicError(f"Betti vector {tuple(b)} is not (1, 0, ...)")
    return _acyclic_cert(d)


def _acyclic_cert(c: SimplicialComplex) -> NonEvasivenessCertificate:
    if c.num_faces == 1:
        return NonEvasivenessCertificate(c.vertices[0])
    blocking: dict[int, tuple[int, ...]] = {}
    for v in c.vertices:
        lk = link(c, v)
        if _is_nonempty_tree(lk):
            return NonEvasivenessCertificate(
                v, _acyclic_cert(lk), _acyclic_cert(deletion(c, v))
            )
        blocking[v] = lk.f_vector
    raise StuckNoDeletableVertexError(blocking)


def relative_collapse(c: SimplicialComplex, d: SimplicialComplex) -> CollapseSequence:
    """Greedy collapse of c onto the subcomplex d, never touching d.

    Requires dim c <= 2 and the inclusion to be a homology isomorphism
    (equal Betti vectors plus injectivity in every dimension).  Raises
    StuckBeforeTargetError with the residual complex if the greedy run
    terminates early.
    """
    if c.dimension > 2:
        raise DimensionOutOfRangeError("relative collapse limited to dimension <= 2")
    if not is_subcomplex(d, c):
        raise NotASubcomplexError("target is not a subcomplex")
    b_c, b_d = betti(c), betti(d)
    iso = tuple(b_c) == tuple(b_d) + (0,) * (len(b_c) - len(b_d)) and all(
        inclusion_induced_injective(d, c, i) for i in range(c.dimension + 1)
    )
    if not iso:
        raise NotASubcomplexError(
            f"inclusion is not a homology isomorphism: {tuple(b_d)} vs {tuple(b_c)}"
        )
    forbidden = frozenset(d.faces())
    tracker = FaceSetCollapser(c)
    # highest-dimensional free face outside d, the first (smallest) on ties
    steps = tracker.collapse(
        lambda free: max((f for f in free if f not in forbidden), key=len, default=None)
    )
    if tracker.faces != forbidden:
        raise StuckBeforeTargetError(from_faces(sorted(tracker.faces)))
    return CollapseSequence(c, tuple(steps), d)


# -- the sweep construction ---------------------------------------------------

def _perfect_on_link(lower_link: SimplicialComplex) -> MorseMatching:
    """Perfect matching on a sweep lower link.

    Planar construction, with a fallback for the one legitimate non-planar
    case: the full link of the final vertex of a closed surface or
    3-manifold is a closed surface, handled by removing one triangle as an
    extra critical face and running the planar routine on the rest.
    """
    try:
        return planar_perfect_morse(lower_link)
    except StuckNoFreeEdgeError:
        if not is_closed_surface(lower_link):
            raise
        top = min(lower_link.face_set(2))
        punctured = from_faces([f for f in lower_link.faces() if f != top])
        inner = planar_perfect_morse(punctured)
        return MorseMatching(lower_link, inner.pairs)


def sweep_perfect_morse(
    g: GeometricRealization,
    direction,
    assume_tight: bool = False,
) -> MorseMatching:
    """Perfect discrete Morse matching from a height sweep of a tight
    realization.

    Processes vertices in sweep order (ascending height, ties broken as in
    ``sweep_order``).  A vertex with empty lower link stays critical;
    otherwise the lower link gets a perfect matching which is lifted over
    the cone at the vertex.  The result is validated and compared against
    the Betti vector; a mismatch raises PerfectnessAssertionFailedError
    since the construction guarantees perfectness on genuinely tight input.
    """
    order = sweep_order(g, direction)
    if not assume_tight:
        report = is_prefix_tight(g, direction)
        if not report.tight:
            raise NotTightError(
                f"{len(report.failures)} prefix injectivity failures", report
            )
    c = g.complex
    pairs: set[Pair] = set()
    earlier: set[int] = set()
    for v in order.vertices:
        full_link = link(c, v)
        lower = restrict(full_link, [u for u in full_link.vertices if u in earlier])
        if not lower.is_empty:
            try:
                m_link = _perfect_on_link(lower)
            except StuckNoFreeEdgeError as exc:
                raise LinkNotPlanarCollapsibleError(v, exc) from exc
            lifted = lift_matching_over_cone(v, lower, m_link)
            pairs |= lifted.pairs
        earlier.add(v)

    matching = MorseMatching(c, frozenset(pairs))
    validate(matching)
    mv = morse_vector(matching)
    bv = betti(c)
    if tuple(mv) != tuple(bv):
        raise PerfectnessAssertionFailedError(tuple(mv), tuple(bv))
    return matching


# -- canonical forms for memoization ------------------------------------------

def canonical_form(c: SimplicialComplex) -> tuple[frozenset[Face], dict[int, int]]:
    """Relabel vertices by a degree-refined ordering; returns (facets, map).

    Two refinement rounds rank the distinct (colour, neighbour colours)
    signatures to small integers; vertices are ordered by (colour, label).

    The key is a sound over-approximation of isomorphism: equal keys imply
    isomorphic complexes (both equal the relabeled complex), while
    isomorphic complexes may still get different keys and simply miss the
    memo.
    """
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


# -- non-evasiveness ----------------------------------------------------------

@dataclass(frozen=True)
class NonEvasiveResult:
    status: str  # "yes" | "no" | "budget"
    certificate: Optional[NonEvasivenessCertificate] = None
    reason: Optional[str] = None


class _BudgetExhausted(Exception):
    pass


class _Budget:
    def __init__(self, limit: int):
        self.remaining = limit

    def tick(self) -> None:
        if self.remaining <= 0:
            raise _BudgetExhausted
        self.remaining -= 1


def _acyclic_betti(c: SimplicialComplex) -> bool:
    b = betti(c)
    return b[0] == 1 and all(b[i] == 0 for i in range(1, len(b)))


def nonevasive(c: SimplicialComplex, budget: int = 10**6) -> NonEvasiveResult:
    """Exact recursive non-evasiveness with memoization and a node budget.

    Fast rejection: a non-evasive complex is collapsible hence mod-2
    acyclic, so a nontrivial Betti vector answers "no" immediately.  The
    Betti vector is computed only at the root and on links: a deletion is
    searched only after its link was certified, and an acyclic complex minus
    a vertex with acyclic link is acyclic (Mayer–Vietoris).  Each search
    node costs one budget tick.  The memo is keyed by ``canonical_form`` and
    stores a certificate with its map to canonical labels; a hit relabels
    it once onto the complex at hand.
    """
    if c.is_empty:
        return NonEvasiveResult("no", reason="empty")
    memo: dict[frozenset[Face], Optional[tuple[NonEvasivenessCertificate, dict]]] = {}
    tracker = _Budget(budget)

    def search(cur: SimplicialComplex, acyclic: bool) -> NonEvasivenessCertificate | None:
        if cur.num_faces == 1:
            return NonEvasivenessCertificate(cur.vertices[0])
        tracker.tick()
        if not acyclic and not _acyclic_betti(cur):
            return None
        key, relabel = canonical_form(cur)
        if key in memo:
            hit = memo[key]
            if hit is None:
                return None
            cert, stored = hit
            back = {i: v for v, i in relabel.items()}
            return cert.relabeled({u: back[i] for u, i in stored.items()})
        result: NonEvasivenessCertificate | None = None
        star_size = {v: 0 for v in cur.vertices}
        for f in cur.faces():
            for v in f:
                star_size[v] += 1
        for v in sorted(cur.vertices, key=lambda u: (star_size[u], u)):
            lk = link(cur, v)
            if lk.is_empty:
                continue
            link_cert = search(lk, False)
            if link_cert is None:
                continue
            # Mayer–Vietoris on cur = del(v) ∪ st(v) with intersection lk(v): del(v) is acyclic
            del_cert = search(deletion(cur, v), True)
            if del_cert is None:
                continue
            result = NonEvasivenessCertificate(v, link_cert, del_cert)
            break
        memo[key] = (result, relabel) if result else None
        return result

    if not _acyclic_betti(c):
        return NonEvasiveResult("no", reason="betti")
    try:
        cert = search(c, True)
    except _BudgetExhausted:
        return NonEvasiveResult("budget")
    if cert is None:
        return NonEvasiveResult("no", reason="exhausted")
    return NonEvasiveResult("yes", certificate=cert)


# -- collapsibility -----------------------------------------------------------

@dataclass(frozen=True)
class CollapsibleResult:
    status: str  # "yes" | "no" | "budget"
    sequence: Optional[CollapseSequence] = None
    reason: Optional[str] = None


def collapsible(
    c: SimplicialComplex,
    strategy: str = "greedy",
    budget: int = 10**6,
    seed: int = 0,
    restarts: int = 50,
) -> CollapsibleResult:
    """Search for a full collapse to a single vertex.

    greedy: seeded random free-pair choices with restarts; never proves a
    negative beyond the exact prechecks (wrong Betti vector, or no free
    face at all).  backtracking: exhaustive over free-pair choices with
    memoized dead states; exact within the node budget.
    """
    if c.is_empty:
        return CollapsibleResult("no", reason="empty")
    if c.num_faces == 1:
        return CollapsibleResult("yes", CollapseSequence(c, (), c))
    if not _acyclic_betti(c):
        return CollapsibleResult("no", reason="betti")

    probe = FaceSetCollapser(c)
    if not probe.free_pairs():
        return CollapsibleResult("no", reason="no free face")

    if strategy == "greedy":
        for attempt in range(restarts):
            tracker = FaceSetCollapser(c)
            steps = tracker.collapse(random_pick(random.Random(seed * 1_000_003 + attempt)))
            if len(tracker.faces) == 1:
                return CollapsibleResult("yes", CollapseSequence(c, tuple(steps), from_faces(tracker.faces)))
        return CollapsibleResult("budget", reason=f"{restarts} greedy restarts failed")

    if strategy != "backtracking":
        raise ValueError(f"unknown strategy {strategy!r}")

    tracker = _Budget(budget)
    dead: set[frozenset[Face]] = set()

    def search(faces: frozenset[Face]) -> list[Pair] | None:
        if len(faces) == 1:
            return []
        tracker.tick()
        cur = from_faces(faces)
        key, _ = canonical_form(cur)
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
