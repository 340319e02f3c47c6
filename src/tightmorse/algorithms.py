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
from typing import TYPE_CHECKING, Iterator, Optional

from .complex_core import (
    Face,
    Record,
    SimplicialComplex,
    _by_dimension,
    is_closed_surface,
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
    TightMorseError,
)
from .homology_z2 import betti, inclusion_induced_injective, is_subcomplex

if TYPE_CHECKING:
    from .geometry import GeometricRealization
    from .morse import FaceSetCollapser, MorseMatching, Pair


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
    from .morse import FaceSetCollapser, MorseMatching

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

    def _render(self, head: str, middle: str, tail: str, missing: str) -> str:
        """The tree as text from an explicit stack: per node ``head.format(node)``,
        its link, ``middle``, its deletion, ``tail``; ``missing`` for no child."""
        parts: list[str] = []
        stack: list = [self]  # nodes, None for a missing child, and text
        while stack:
            item = stack.pop()
            if isinstance(item, NonEvasivenessCertificate):
                parts.append(head.format(item))
                stack += [tail, item.deletion_cert, middle, item.link_cert]
            else:
                parts.append(missing if item is None else item)
        return "".join(parts)

    def __repr__(self) -> str:
        head = "{0.__class__.__qualname__}(vertex={0.vertex!r}, link_cert="
        return self._render(head, ", deletion_cert=", ")", "None")

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


def _linked(path) -> Iterator:
    """The items of a linked path of nested pairs (item, rest) ending in None,
    last pushed first; a node's builder keeps the path it had, unchanged."""
    while path is not None:
        item, path = path
        yield item


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


class _MutableComplex:
    """A complex to delete vertices from and put them back, last out first in.

    ``levels[k]`` is the set of faces with k + 1 vertices and ``star[v]``
    the set of faces that contain v; both are kept in step, so deleting a
    vertex, putting it back and building its link each cost its star, not
    the complex.  The deletion walks below run on one instance each;
    ``frozen`` copies the faces left into a ``SimplicialComplex``, one
    C-level copy per level.  ``path`` links the deleted vertices (``_linked``):
    the complex left is ``root`` restricted to the vertices off it.
    """

    def __init__(self, c: SimplicialComplex):
        self.root, self.path = c, None
        self.levels = [set(level) for level in c._by_dim]
        self.star = star = {f[0]: {f} for f in c._by_dim[0]} if c._by_dim else {}
        for level in c._by_dim[1:]:
            for f in level:
                for u in f:
                    star[u].add(f)

    @property
    def f_vector(self) -> tuple[int, ...]:
        # no level of a closed family is empty below a nonempty one
        return tuple(filter(None, map(len, self.levels)))

    @property
    def num_faces(self) -> int:
        return sum(map(len, self.levels))

    def frozen(self) -> SimplicialComplex:
        return SimplicialComplex(self.levels)

    def link(self, v: int) -> SimplicialComplex:
        """The link of v, built from its star."""
        levels: list[set[Face]] = [set() for _ in self.levels[1:]]
        for f in self.star[v]:
            if len(f) > 1:
                i = f.index(v)
                levels[len(f) - 2].add(f[:i] + f[i + 1:])
        return SimplicialComplex(levels)

    def delete(self, v: int) -> set[Face]:
        """Remove the star of v and return it, for ``undelete``."""
        gone = self.star.pop(v)
        levels, star = self.levels, self.star
        for f in gone:
            levels[len(f) - 1].remove(f)
            for u in f:
                if u != v:
                    star[u].remove(f)
        self.path = (v, self.path)
        return gone

    def undelete(self, v: int, gone: set[Face]) -> None:
        """Put back the star that ``delete(v)`` returned; the vertices must
        come back in the reverse order of their deletion."""
        levels, star = self.levels, self.star
        for f in gone:
            levels[len(f) - 1].add(f)
            for u in f:
                if u != v:
                    star[u].add(f)
        star[v] = gone
        self.path = self.path[1]


def verify_certificate(c: SimplicialComplex, cert: NonEvasivenessCertificate) -> bool:
    """Replay a certificate; True iff it proves c non-evasive.  The deletions
    are a loop on one ``_MutableComplex``, so each costs the deleted star; a
    link, one dimension lower, is built from the star and replayed first by
    a call, so the calls nest at most dim c + 2 deep.

    A certificate that proves c non-evasive has one node per face of c, by
    induction: a leaf covers its one vertex, and a node for v covers
    1 + f(lk v) + f(del v) = f(c) faces, since the faces of c that hold v
    are {v} and the joins of v with the faces of lk v.  So a certificate of
    another size is rejected before any link or deletion is built.
    """
    if cert.size != c.num_faces:
        return False
    walk = _MutableComplex(c)
    while not cert.is_leaf:
        if cert.vertex not in walk.star or cert.link_cert is None or cert.deletion_cert is None:
            return False
        if not verify_certificate(walk.link(cert.vertex), cert.link_cert):
            return False
        walk.delete(cert.vertex)
        cert = cert.deletion_cert
    return walk.num_faces == 1 and cert.vertex in walk.star


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
    if not _acyclic_betti(d):
        raise NotAcyclicError(f"Betti vector {betti(d)} is not (1, 0, ...)")
    return _acyclic_cert(d)


def _acyclic_cert(c: SimplicialComplex) -> NonEvasivenessCertificate:
    """The certificate of ``planar_acyclic_nonevasive``: the deletions are a
    loop on one ``_MutableComplex`` that pairs each vertex with its tree
    link's certificate (three calls deep at most), and the pairs are folded
    into nodes at the end."""
    walk, vertices = _MutableComplex(c), list(c.vertices)
    steps: list[tuple[int, NonEvasivenessCertificate]] = []
    while walk.num_faces != 1:
        blocking: dict[int, tuple[int, ...]] = {}
        for v in vertices:
            lk = walk.link(v)
            if _is_nonempty_tree(lk):
                break
            blocking[v] = lk.f_vector
        else:
            raise StuckNoDeletableVertexError(blocking)
        steps.append((v, _acyclic_cert(lk)))
        walk.delete(v)
        vertices.remove(v)
    cert = NonEvasivenessCertificate(vertices[0])
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
    from .morse import FaceSetCollapser

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
    from .morse import FaceSetCollapser

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
    is, so one check of the result checks every lift: ``is_perfect``, whose
    ``morse_differential`` makes the checks of ``validate`` on the way (one
    structural pass, one Kahn sort per layer) and raises what it raises.

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
    from .morse import MorseMatching, is_perfect, morse_vector

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

    Entries are bucketed by f-vector, an isomorphism invariant the searches
    keep up to date, and a node is passed as its f-vector ``f`` and a
    function ``build`` that returns it as a complex.  The complex is built
    and ``canonical_form`` runs on it for a lookup only when its bucket is
    nonempty, and for a store only when a later node lands in its bucket; it
    then keeps its key and relabel.  A store keeps ``build``, which must
    rebuild the node after the search moved on.  Equal keys imply equal
    f-vectors, so the hits are those of a memo keyed on every lookup.
    A hit is a complex isomorphic to a stored one, so it shares every
    isomorphism invariant of it: ``nonevasive`` looks a link up before its
    Betti reduction, since every complex it stores is acyclic.
    """

    def __init__(self) -> None:
        # f-vector -> (value and relabel by key, complexes not yet keyed)
        self._buckets: dict[tuple[int, ...], tuple[dict, list]] = {}

    def lookup(self, f: tuple[int, ...], build):
        """(hit, form): hit is the (value, relabel) stored for a complex with
        the node's key, or None; form is the node's canonical form, None if
        not computed."""
        bucket = self._buckets.get(f)
        if bucket is None:
            return None, None
        keyed, pending = bucket
        for other, value in pending:
            key, relabel = canonical_form(other())
            keyed[key] = (value, relabel)
        pending.clear()
        form = canonical_form(build())
        return keyed.get(form[0]), form

    def store(self, f: tuple[int, ...], value, form, build) -> None:
        """Store value for the node after a missed lookup that returned form."""
        keyed, pending = self._buckets.setdefault(f, ({}, []))
        if form is None:
            pending.append((build, value))
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


def _by_star_size(star: dict[int, set[Face]]):
    """The vertices by ascending star size, ties by label.  The first is
    found alone, so a search node that succeeds on it, as each node of a
    deep deletion chain usually does, holds no list of its vertices.  The
    star sizes must not change between the draws."""
    yield min(zip(map(len, star.values()), star))[1]
    for _, v in sorted(zip(map(len, star.values()), star))[1:]:
        yield v


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

    The search deletes vertices from and puts them back into one
    ``_MutableComplex`` per search root, the input and each link that
    passed its Betti check, so a node costs the stars of the vertices it
    tries, not the complex; a link is built from its vertex's star.  A
    deletion node is looked up as the walk's ``frozen`` copy and stored as
    a builder that restricts the root to the vertices off its deletion
    path, so a store costs O(1) and every node is stored.
    """
    if budget < 0:
        raise ValueError("the budget must not be negative")
    if c.is_empty:
        return NonEvasiveResult("no", reason="empty")
    memo = _IsoMemo()
    tracker = _Budget(budget)

    def hit_cert(hit, form):
        cert, stored = hit
        if cert is None:
            return None
        back = {i: v for v, i in form[1].items()}
        return cert.relabeled({u: back[i] for u, i in stored.items()})

    def search_link(lk: SimplicialComplex):
        if lk.num_faces == 1:
            return NonEvasivenessCertificate(lk.vertices[0])
        tracker.tick()
        if lk.euler_characteristic != 1:
            return None
        build = lambda: lk
        hit, form = memo.lookup(lk.f_vector, build)
        if hit is not None:
            return hit_cert(hit, form)
        if not _acyclic_betti(lk):
            return None
        result = yield from expand(_MutableComplex(lk))
        memo.store(lk.f_vector, result, form, build)
        return result

    def search_deletion(walk: _MutableComplex):
        # acyclic, so neither checked nor reduced: Mayer–Vietoris on
        # del(v) ∪ st(v) with intersection lk(v), both acyclic
        if walk.num_faces == 1:
            return NonEvasivenessCertificate(next(iter(walk.star)))
        tracker.tick()
        f = walk.f_vector
        hit, form = memo.lookup(f, walk.frozen)
        if hit is not None:
            return hit_cert(hit, form)
        result = yield from expand(walk)
        root, path = walk.root, walk.path
        memo.store(f, result, form, lambda: restrict(root, set(root.vertices).difference(_linked(path))))
        return result

    def expand(walk: _MutableComplex):
        for v in _by_star_size(walk.star):
            link_cert = yield search_link(walk.link(v))
            if link_cert is None:
                continue
            gone = walk.delete(v)
            del_cert = yield search_deletion(walk)
            walk.undelete(v, gone)
            if del_cert is not None:
                return NonEvasivenessCertificate(v, link_cert, del_cert)
        return None

    if not _acyclic_betti(c):
        return NonEvasiveResult("no", reason="betti")
    try:
        cert = _drive(search_deletion(_MutableComplex(c)))
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
    stack over one ``FaceSetCollapser``: a child collapses one of the free
    pairs, taken in lexicographic order, and ``restore_pair`` backs it out.
    A node is its f-vector and the linked path of the ids it removed, and is
    built only for the memo: from the collapser when its f-vector repeats,
    and from ``face`` minus that path when a dead one's repeats.
    """
    from .morse import FaceSetCollapser, random_pick

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

    collapser = FaceSetCollapser(c)
    if strategy == "greedy":
        no_free_face = not collapser.free
        for attempt in range(restarts):
            tracker = collapser if attempt == 0 else FaceSetCollapser(c)
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
    if not collapser.free:
        return CollapsibleResult("no", reason="no free face")

    tracker = _Budget(budget)
    dead = _IsoMemo()
    face = collapser.face
    build = lambda: _by_dimension(collapser.remaining())

    def search(f: tuple[int, ...], path):
        """The steps from the collapser's faces (f-vector f, removed ids path)
        to a vertex, last first, or None, which leaves the collapser as it was."""
        if len(collapser) == 1:
            return []
        tracker.tick()
        hit, form = dead.lookup(f, build)
        if hit is not None:
            return None
        for s in collapser.free[:]:  # a child that returns None restores the list
            t = collapser.coface(s)
            collapser.remove_pair(s, t)
            k = len(face[s]) - 1
            # no level of a closed family is empty below a nonempty one
            child = tuple(filter(None, f[:k] + (f[k] - 1, f[k + 1] - 1) + f[k + 2:]))
            rest = yield search(child, (s, (t, path)))
            if rest is not None:
                rest.append((face[s], face[t]))
                return rest
            collapser.restore_pair(s, t)
        rebuild = lambda: _by_dimension(set(face).difference(map(face.__getitem__, _linked(path))))
        dead.store(f, None, form, rebuild)
        return None

    try:
        steps = _drive(search(c.f_vector, None))
    except _BudgetExhausted:
        return CollapsibleResult("budget")
    if steps is None:
        return CollapsibleResult("no", reason="exhausted")
    steps.reverse()
    target = SimplicialComplex([frozenset(collapser.remaining())])  # the one vertex left
    return CollapsibleResult("yes", CollapseSequence(c, tuple(steps), target))
