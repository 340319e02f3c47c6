"""Constructive procedures: planar perfect Morse functions, relative
collapses, the sweep construction of perfect matchings on tight
realizations, and exact decision procedures for collapsibility and
non-evasiveness under explicit budgets.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from itertools import chain, combinations, repeat
from typing import TYPE_CHECKING, Optional

from .complex_core import (
    Face,
    Record,
    SimplicialComplex,
    _by_dimension,
    deletion,
    free_faces,
    is_closed_surface,
    link,
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
    TightMorseError,
)
from .homology_z2 import betti, inclusion_induced_injective, is_subcomplex
from .morse import (
    FaceSetCollapser,
    MorseMatching,
    Pair,
    is_perfect,
    morse_vector,
    random_pick,
)

if TYPE_CHECKING:
    from .geometry import GeometricRealization


# -- collapse sequences ------------------------------------------------------

class CollapseSequence(Record):
    """Ordered elementary collapses from source down to target."""

    __match_args__ = ("source", "steps", "target")

    def __init__(self, source: SimplicialComplex, steps: tuple[Pair, ...], target: SimplicialComplex):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "target", target)

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
    the signature of a non-planar input.  The sweep runs the same two
    steps on all its lower links at once (``_sweep_pairs``).
    """
    _require_planar_input(d)
    tracker = FaceSetCollapser(d)
    pairs = _collapse_free_edges(tracker, [0, len(tracker.face)])
    left = tracker.remaining()
    triangles = sum(len(f) == 3 for f in left)
    if triangles:
        raise StuckNoFreeEdgeError(f"{triangles} triangles left with no free edge")
    return MorseMatching(d, frozenset(pairs + _spanning_forest(left)))


def _require_planar_input(d: SimplicialComplex) -> None:
    if d.is_empty:
        raise EmptyComplexError("planar routine needs a nonempty complex")
    if d.dimension > 2:
        raise DimensionOutOfRangeError("planar routine limited to dimension <= 2")


def _collapse_free_edges(tracker: FaceSetCollapser, starts: list[int]) -> list[Pair]:
    """The planar collapse on disjoint complexes held by one collapser.

    Complex k has the ids from ``starts[k]`` up to ``starts[k + 1]``.  The
    complexes take turns in order: each collapses its smallest free edge
    until it has none, which stops it for good, since a collapse frees no
    face of another complex.  A free edge lies in a triangle, so a complex
    stops once no triangle of it has one.
    """
    k = 0

    def pick(free: list[int], face: list[Face]) -> int | None:
        nonlocal k
        while k + 1 < len(starts):
            end = starts[k + 1]
            for j in range(bisect_left(free, starts[k]), len(free)):
                i = free[j]
                if i >= end:
                    break
                if len(face[i]) == 2:
                    return i
            k += 1
        return None

    return tracker.collapse(pick)


def _spanning_forest(left: list[Face]) -> list[Pair]:
    """Breadth-first spanning forest of the graph of vertices and edges in
    ``left``, given in lexicographic order: each vertex but the smallest of
    its component is matched with the edge it is reached by."""
    adjacency: dict[int, list[int]] = {f[0]: [] for f in left if len(f) == 1}
    for f in left:
        if len(f) == 2:
            adjacency[f[0]].append(f[1])
            adjacency[f[1]].append(f[0])
    # the edges come in lexicographic order, so each neighbour list ascends
    pairs: list[Pair] = []
    seen: set[int] = set()
    for root in adjacency:  # ascending
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for u in queue:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    pairs.append(((w,), (u, w) if u < w else (w, u)))
                    queue.append(w)
    return pairs


class NonEvasivenessCertificate(Record):
    """Recursive witness: delete ``vertex``, certify its link and deletion.

    A leaf (link_cert and deletion_cert both None) asserts the complex is
    the single point ``vertex``.  ``==``, ``hash`` and ``repr`` walk the
    tree on an explicit stack, so they need no recursion however deep the
    certificate is; ``repr`` gives the text of ``Record.__repr__``.
    """

    __match_args__ = ("vertex", "link_cert", "deletion_cert")

    def __init__(
        self,
        vertex: int,
        link_cert: Optional[NonEvasivenessCertificate] = None,
        deletion_cert: Optional[NonEvasivenessCertificate] = None,
    ):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "link_cert", link_cert)
        object.__setattr__(self, "deletion_cert", deletion_cert)

    @property
    def is_leaf(self) -> bool:
        return self.link_cert is None and self.deletion_cert is None

    def _preorder(self) -> list["NonEvasivenessCertificate"]:
        """The nodes in pre-order: a node, its link's, then its deletion's."""
        nodes, stack = [], [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if node.deletion_cert:
                stack.append(node.deletion_cert)
            if node.link_cert:
                stack.append(node.link_cert)
        return nodes

    def _key(self) -> list[tuple[int, bool, bool]]:
        """The pre-order of (vertex, has link, has deletion): it determines the tree."""
        return [(n.vertex, n.link_cert is not None, n.deletion_cert is not None) for n in self._preorder()]

    def __eq__(self, other):
        if not isinstance(other, NonEvasivenessCertificate):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(tuple(self._key()))

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list = [self]  # nodes, None for a missing child, and text
        while stack:
            item = stack.pop()
            if isinstance(item, NonEvasivenessCertificate):
                parts.append(f"{type(item).__qualname__}(vertex={item.vertex!r}, link_cert=")
                stack += [")", item.deletion_cert, ", deletion_cert=", item.link_cert]
            else:
                parts.append(item if isinstance(item, str) else "None")
        return "".join(parts)

    def relabeled(self, mapping: dict[int, int]) -> "NonEvasivenessCertificate":
        done: list[NonEvasivenessCertificate] = []  # relabeled subtrees, last on top
        for node in reversed(self._preorder()):
            link_cert = done.pop() if node.link_cert else None
            deletion_cert = done.pop() if node.deletion_cert else None
            done.append(NonEvasivenessCertificate(mapping[node.vertex], link_cert, deletion_cert))
        return done[0]

    @property
    def size(self) -> int:
        return len(self._preorder())


def _drive(root):
    """Run a recursion written as generators on an explicit stack: each
    yields a child generator and is sent the child's return value, so depth
    is bounded by memory, not by the interpreter's recursion limit.  Only
    the searches, which come back to a node after its deletion, need it."""
    stack, value = [root], None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


def verify_certificate(c: SimplicialComplex, cert: NonEvasivenessCertificate) -> bool:
    """Replay a certificate; True iff it proves c non-evasive.  The deletions
    are a loop; a link, one dimension lower, is replayed first by a call, so
    the calls nest at most dim c + 2 deep.

    A certificate that proves c non-evasive has one node per face of c, by
    induction: a leaf covers its one vertex, and a node for v covers
    1 + f(lk v) + f(del v) = f(c) faces, since the faces of c that hold v
    are {v} and the joins of v with the faces of lk v.  So a certificate of
    another size is rejected before any link or deletion is built.
    """
    if cert.size != c.num_faces:
        return False
    while not cert.is_leaf:
        if not c.has_vertex(cert.vertex) or cert.link_cert is None or cert.deletion_cert is None:
            return False
        if not verify_certificate(link(c, cert.vertex), cert.link_cert):
            return False
        c, cert = deletion(c, cert.vertex), cert.deletion_cert
    return c.num_faces == 1 and c.vertices == (cert.vertex,)


def _is_nonempty_tree(g: SimplicialComplex) -> bool:
    """Nonempty, dimension <= 1, connected, acyclic."""
    return not g.is_empty and g.dimension <= 1 and _acyclic_betti(g)


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
        raise NotAcyclicError(f"Betti vector {b} is not (1, 0, ...)")
    return _acyclic_cert(d)


def _acyclic_cert(c: SimplicialComplex) -> NonEvasivenessCertificate:
    """The certificate of ``planar_acyclic_nonevasive``: the deletions are a
    loop that pairs each vertex with its tree link's certificate (three
    calls deep at most), and the pairs are folded into nodes at the end."""
    steps: list[tuple[int, NonEvasivenessCertificate]] = []
    while c.num_faces != 1:
        blocking: dict[int, tuple[int, ...]] = {}
        for v in c.vertices:
            lk = link(c, v)
            if _is_nonempty_tree(lk):
                break
            blocking[v] = lk.f_vector
        else:
            raise StuckNoDeletableVertexError(blocking)
        steps.append((v, _acyclic_cert(lk)))
        c = deletion(c, v)
    cert = NonEvasivenessCertificate(c.vertices[0])
    for v, link_cert in reversed(steps):
        cert = NonEvasivenessCertificate(v, link_cert, cert)
    return cert


def relative_collapse(c: SimplicialComplex, d: SimplicialComplex) -> CollapseSequence:
    """Greedy collapse of c onto the subcomplex d, never touching d.

    Requires dim c <= 2 and the inclusion to be a homology isomorphism
    (equal Betti vectors plus injectivity in every dimension).  A collapse
    onto d is a homotopy equivalence, so homology is checked only when the
    greedy run stops short of d: NotASubcomplexError if the inclusion is not
    an isomorphism (as for an empty d), else StuckBeforeTargetError with the
    residual complex.
    """
    if c.dimension > 2:
        raise DimensionOutOfRangeError("relative collapse limited to dimension <= 2")
    if not is_subcomplex(d, c):
        raise NotASubcomplexError("target is not a subcomplex")
    tracker = FaceSetCollapser(c)
    forbidden = {tracker.index[f] for k in range(d.dimension + 1) for f in d.face_set(k)}
    top = c.dimension  # the size of the largest faces that can be free

    def pick(free: list[int], face: list[Face]) -> int | None:
        """Highest-dimensional free face outside d, the first (smallest) on ties."""
        best = None
        for i in free:
            if i not in forbidden:
                size = len(face[i])
                if size == top:
                    return i
                if best is None or size > len(face[best]):
                    best = i
        return best

    steps = tracker.collapse(pick)
    # a collapse never removes a face of d, so it reached d when only d is left
    if len(tracker) != len(forbidden):
        b_c, b_d = betti(c), () if d.is_empty else betti(d)  # c is not empty here
        iso = b_c == b_d + (0,) * (len(b_c) - len(b_d)) and all(
            inclusion_induced_injective(d, c, i) for i in range(c.dimension + 1)
        )
        if not iso:
            raise NotASubcomplexError(
                f"inclusion is not a homology isomorphism: {b_d} vs {b_c}"
            )
        raise StuckBeforeTargetError(_by_dimension(tracker.remaining()))
    return CollapseSequence(c, tuple(steps), d)


# -- the sweep construction ---------------------------------------------------

# Links per collapser: the collapser keeps one sorted list of free faces, so
# each removal costs time in the free faces of all its links.
_LINKS_PER_COLLAPSER = 64


def _sweep_pairs(c: SimplicialComplex, vertices: tuple[int, ...]) -> list[Pair]:
    """The pairs of the sweep along the vertex order ``vertices``, unchecked.

    The lower links come from one pass over the faces: a face lies in the
    lower link of exactly one vertex, its last vertex v in the order, and
    is filed there without v.  A link vertex u of the k-th vertex v is
    relabelled ``k * span + u``, so the links are disjoint, each keeps its
    lexicographic order and takes a contiguous range of face ids, and one
    ``FaceSetCollapser`` holds up to ``_LINKS_PER_COLLAPSER`` of them,
    consecutive in the order.  The planar routine
    (``planar_perfect_morse``) runs on all links of a collapser at once.
    Every link pair lifts to the star faces of its faces, a dict lookup
    each, and v is matched with the edge to the smallest vertex of its
    link, a root of the spanning forest, so critical in the link's
    matching.  A vertex with empty lower link stays critical.

    The links left with triangles are then taken in order, on the same
    collapser.  A closed surface, the whole link of a vertex swept last,
    has no free edge, so nothing of it has collapsed: it loses its
    smallest triangle, which stays critical, and collapses again.  A link
    with a face above dimension 2 raises DimensionOutOfRangeError, and any
    other stuck link, or a punctured one still stuck,
    LinkNotPlanarCollapsibleError, so the first one that fails names its
    vertex.
    """
    span = max(vertices, default=0) + 1
    offset = {v: i * span for i, v in enumerate(vertices)}  # ascends along the sweep
    # per collapser, the relabelled lower link faces by dimension; the star face of each
    batches = [[[] for _ in range(c.dimension)] for _ in range(0, len(vertices), _LINKS_PER_COLLAPSER)]
    star: dict[Face, Face] = {}
    for d in range(1, c.dimension + 1):
        home = {v: batches[i // _LINKS_PER_COLLAPSER][d - 1] for i, v in enumerate(vertices)}
        for face in c.face_set(d):
            last = max(face, key=offset.__getitem__)
            shift = offset[last]
            f = tuple([u + shift for u in face if u != last])
            star[f] = face
            home[last].append(f)
    pairs: list[Pair] = []
    for first, levels in zip(range(0, len(vertices), _LINKS_PER_COLLAPSER), batches):
        tracker = FaceSetCollapser(SimplicialComplex(levels))
        face = tracker.face
        links = vertices[first:first + _LINKS_PER_COLLAPSER]
        starts = [bisect_left(face, ((first + k) * span,)) for k in range(len(links) + 1)]
        link_pairs = _collapse_free_edges(tracker, starts)
        left = tracker.remaining()
        # the triangles left in each stuck link, k-th of this collapser
        stuck = Counter(f[0] // span - first for f in left if len(f) > 2)
        for k in sorted(stuck):
            lower = _by_dimension(face[starts[k]:starts[k + 1]])
            _require_planar_input(lower)
            triangles = stuck[k]
            if is_closed_surface(lower):
                tracker.remove_facet(tracker.index[min(lower.face_set(2))])
                punctured = _collapse_free_edges(tracker, starts[k:k + 2])
                link_pairs += punctured
                triangles -= 1 + len(punctured)  # each pair takes one triangle
                left = tracker.remaining()
            if triangles:
                raise LinkNotPlanarCollapsibleError(
                    links[k], StuckNoFreeEdgeError(f"{triangles} triangles left with no free edge")
                )
        link_pairs += _spanning_forest(left)
        pairs += [(star[s], star[t]) for s, t in link_pairs]
        pairs += [((v,), star[face[i]]) for v, i, end in zip(links, starts, starts[1:]) if i < end]
    return pairs


def sweep_perfect_morse(
    g: GeometricRealization,
    direction,
    assume_tight: bool = False,
) -> MorseMatching:
    """Perfect discrete Morse matching from a height sweep of a tight
    realization.

    Processes vertices in sweep order (ascending height, ties broken as in
    ``sweep_order``), matching each lower link and lifting it over the cone
    at its vertex (``_sweep_pairs``).  A lift is valid iff its link matching
    is, so one check of the result checks every lift: ``is_perfect``, which
    runs the structural checks of ``validate``, then ``morse_differential``,
    whose pass along the V-paths raises MatchingCycleError on a V-cycle.

    The sweep certifies itself.  Every pair lies in the lower star of one
    vertex, so the matching is a gradient that respects the filtration by
    sweep prefixes, and its Morse complex has the persistence of that
    filtration (Mischaikow–Nanda 2013).  A zero mod-2 Morse differential
    therefore proves both that every prefix injects in homology
    (prefix-tightness) and that the matching is perfect, and the matching
    is returned with no further check.

    The tightness scan and the Betti numbers run only to explain a failure,
    with the precedence of checking tightness first.  Unless
    ``assume_tight``, a sweep that raises or is not perfect runs
    ``is_prefix_tight`` and raises NotTightError if a prefix fails to
    inject.  Otherwise the sweep's error is raised, or, for a nonzero
    differential, PerfectnessAssertionFailedError with the Morse and Betti
    vectors.
    """
    from .geometry import is_prefix_tight, sweep_order

    vertices = sweep_order(g, direction).vertices
    c = g.complex
    failure = None
    try:
        matching = MorseMatching(c, frozenset(_sweep_pairs(c, vertices)))
        if is_perfect(matching):
            return matching
    except TightMorseError as exc:
        failure = exc
    if not assume_tight and not (report := is_prefix_tight(g, direction)).tight:
        raise NotTightError(f"{len(report.failures)} prefix injectivity failures", report)
    raise failure or PerfectnessAssertionFailedError(morse_vector(matching), betti(c))


# -- canonical forms for memoization ------------------------------------------

def canonical_form(c: SimplicialComplex) -> tuple[frozenset[Face], dict[int, int]]:
    """Relabel vertices by a degree-refined ordering; returns (facets, map).

    A vertex's first colour is its profile, the number of faces of each
    dimension that contain it.  Two refinement rounds rank the distinct
    (colour, neighbour colours) signatures to small integers; vertices are
    ordered by (colour, label).  The key is the set of maximal faces, those
    outside the codimension-one faces of the level above, relabeled.

    The key is a sound over-approximation of isomorphism: equal keys imply
    isomorphic complexes (both equal the relabeled complex), while
    isomorphic complexes may still get different keys and simply miss the
    memo.
    """
    verts = c.vertices
    by_dim = c._by_dim
    counts = [Counter(chain.from_iterable(level)) for level in by_dim]
    color: dict[int, object] = dict(zip(verts, zip(*(map(n.__getitem__, verts) for n in counts))))
    adjacency: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in c.face_set(1):
        adjacency[a].append(b)
        adjacency[b].append(a)
    classes = len(set(color.values()))
    for _ in range(2):
        # a round keeps the order of the colour classes and only splits them,
        # so once they are singletons or a round splits none, rounds change no order
        if classes == len(verts):
            break
        signature = [(color[v], tuple(sorted(map(color.__getitem__, adjacency[v])))) for v in verts]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        color = dict(zip(verts, map(palette.__getitem__, signature)))
        if len(palette) == classes:
            break
        classes = len(palette)
    # verts is sorted and the sort is stable, so ties go by label
    relabel = {v: i for i, v in enumerate(sorted(verts, key=color.__getitem__))}
    below = set()
    for k, level in enumerate(by_dim[1:], 1):
        below.update(chain.from_iterable(map(combinations, level, repeat(k))))
    key = frozenset(
        tuple(sorted(map(relabel.__getitem__, f))) for level in by_dim for f in level.difference(below)
    )
    return key, relabel


class _IsoMemo:
    """Search results stored up to isomorphism, keyed only when needed.

    Entries are bucketed by f-vector, an isomorphism invariant every complex
    caches.  ``canonical_form`` runs on a looked-up complex only when its
    bucket is nonempty, and on a stored complex only when a later complex
    lands in its bucket; it then keeps its key and relabel.  Equal keys imply
    equal f-vectors, so the hits are those of a memo keyed on every lookup.
    A hit is a complex isomorphic to a stored one, so it shares every
    isomorphism invariant of it: ``nonevasive`` looks a link up before its
    Betti reduction, since every complex it stores is acyclic.
    """

    def __init__(self) -> None:
        # f-vector -> (value and relabel by key, complexes not yet keyed)
        self._buckets: dict[tuple[int, ...], tuple[dict, list]] = {}

    def lookup(self, c: SimplicialComplex):
        """(hit, form): hit is the (value, relabel) stored for a complex with
        c's key, or None; form is c's canonical form, None if not computed."""
        bucket = self._buckets.get(c.f_vector)
        if bucket is None:
            return None, None
        keyed, pending = bucket
        for other, value in pending:
            key, relabel = canonical_form(other)
            keyed[key] = (value, relabel)
        pending.clear()
        form = canonical_form(c)
        return keyed.get(form[0]), form

    def store(self, c: SimplicialComplex, value, form) -> None:
        """Store value for c after a missed lookup that returned form."""
        keyed, pending = self._buckets.setdefault(c.f_vector, ({}, []))
        if form is None:
            pending.append((c, value))
        else:
            keyed[form[0]] = (value, form[1])


# -- non-evasiveness ----------------------------------------------------------

class NonEvasiveResult(Record):
    __match_args__ = ("status", "certificate", "reason")

    def __init__(
        self,
        status: str,  # "yes" | "no" | "budget"
        certificate: Optional[NonEvasivenessCertificate] = None,
        reason: Optional[str] = None,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "reason", reason)


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
    """Is c mod-2 acyclic?  An acyclic complex has Euler characteristic 1,
    so any other answers "no" without a reduction."""
    if c.euler_characteristic != 1:
        return False
    b = betti(c)
    return b[0] == 1 and all(b[i] == 0 for i in range(1, len(b)))


def nonevasive(c: SimplicialComplex, budget: int = 10**6) -> NonEvasiveResult:
    """Exact recursive non-evasiveness with memoization and a node budget.

    Fast rejection: a non-evasive complex is collapsible hence mod-2
    acyclic, so a nontrivial Betti vector answers "no" immediately, and an
    Euler characteristic other than 1 answers before any reduction.  The
    Betti vector is computed only at the root and on links that miss the
    memo: a deletion is searched only after its link was certified, and an
    acyclic complex minus a vertex with acyclic link is acyclic
    (Mayer–Vietoris).  Each search node costs one budget tick.  The memo is
    consulted before the reduction, which is sound because it stores only
    acyclic complexes (those that passed the reduction, and deletions) and
    equal keys imply isomorphism.  It is keyed by ``canonical_form`` and
    stores a certificate with its map to canonical labels; a hit relabels it
    once onto the complex at hand.  Keys are computed only when an f-vector
    repeats (``_IsoMemo``).  Vertices are tried by ascending star size, ties
    by label.
    """
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
        hit, form = memo.lookup(cur)
        if hit is not None:
            cert, stored = hit
            if cert is None:
                return None
            back = {i: v for v, i in form[1].items()}
            return cert.relabeled({u: back[i] for u, i in stored.items()})
        if not acyclic and not _acyclic_betti(cur):
            return None
        result: NonEvasivenessCertificate | None = None
        star_size = Counter(chain.from_iterable(chain.from_iterable(cur._by_dim)))
        # the vertices are sorted and the sort is stable, so ties go by label
        for v in sorted(cur.vertices, key=star_size.__getitem__):
            link_cert = yield search(link(cur, v), False)
            if link_cert is None:
                continue
            # Mayer–Vietoris on cur = del(v) ∪ st(v) with intersection lk(v): del(v) is acyclic
            del_cert = yield search(deletion(cur, v), True)
            if del_cert is None:
                continue
            result = NonEvasivenessCertificate(v, link_cert, del_cert)
            break
        memo.store(cur, result, form)
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


# -- collapsibility -----------------------------------------------------------

class CollapsibleResult(Record):
    __match_args__ = ("status", "sequence", "reason")

    def __init__(
        self,
        status: str,  # "yes" | "no" | "budget"
        sequence: Optional[CollapseSequence] = None,
        reason: Optional[str] = None,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "reason", reason)


def collapsible(
    c: SimplicialComplex,
    strategy: str = "greedy",
    budget: int = 10**6,
    seed: int = 0,
    restarts: int = 50,
) -> CollapsibleResult:
    """Search for a full collapse to a single vertex.

    A collapsible complex is mod-2 acyclic, so an Euler characteristic
    other than 1 answers "no" (reason "betti") before anything else.
    greedy: seeded random free-pair choices with restarts; never proves a
    negative beyond the exact prechecks (wrong Betti vector, or no free
    face at all, read from the first attempt's free list).  A collapse to a
    vertex proves acyclicity, so the Betti vector is computed only after
    the first attempt fails, and it takes precedence over "no free face".
    backtracking: exhaustive over free-pair choices with memoized dead
    states, keyed by ``canonical_form`` only when an f-vector repeats
    (``_IsoMemo``); exact within the node budget.  It runs on ``_drive``'s
    stack, one complex per node: a child is its parent's levels less the
    collapsed pair.
    """
    if strategy not in ("greedy", "backtracking"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "greedy" and restarts < 1:
        raise ValueError("need at least one greedy restart")
    if budget < 0:
        raise ValueError("the budget must not be negative")
    if c.is_empty:
        return CollapsibleResult("no", reason="empty")
    if c.num_faces == 1:
        return CollapsibleResult("yes", CollapseSequence(c, (), c))
    if c.euler_characteristic != 1:
        return CollapsibleResult("no", reason="betti")

    if strategy == "greedy":
        first = FaceSetCollapser(c)
        no_free_face = not first.free
        for attempt in range(restarts):
            tracker = first if attempt == 0 else FaceSetCollapser(c)
            steps = tracker.collapse(random_pick(random.Random(seed * 1_000_003 + attempt)))
            if len(tracker) == 1:
                target = _by_dimension(tracker.remaining())
                return CollapsibleResult("yes", CollapseSequence(c, tuple(steps), target))
            if attempt == 0 and not _acyclic_betti(c):
                return CollapsibleResult("no", reason="betti")
            if no_free_face:
                return CollapsibleResult("no", reason="no free face")
        return CollapsibleResult("budget", reason=f"{restarts} greedy restarts failed")

    if not _acyclic_betti(c):
        return CollapsibleResult("no", reason="betti")
    if not free_faces(c):
        return CollapsibleResult("no", reason="no free face")

    tracker = _Budget(budget)
    dead = _IsoMemo()

    def search(cur: SimplicialComplex):
        """The steps from cur to a vertex, last step first, or None."""
        if cur.num_faces == 1:
            return []
        tracker.tick()
        hit, form = dead.lookup(cur)
        if hit is not None:
            return None
        for s, t in free_faces(cur):
            rest = yield search(SimplicialComplex([level - {s, t} for level in cur._by_dim]))
            if rest is not None:
                rest.append((s, t))
                return rest
        dead.store(cur, None, form)
        return None

    try:
        steps = _drive(search(c))
    except _BudgetExhausted:
        return CollapsibleResult("budget")
    if steps is None:
        return CollapsibleResult("no", reason="exhausted")
    steps.reverse()
    # the target is the one vertex that no step removes
    target = SimplicialComplex([{(v,) for v in c.vertices}.difference(s for s, _ in steps)])
    return CollapsibleResult("yes", CollapseSequence(c, tuple(steps), target))
