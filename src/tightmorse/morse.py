"""Discrete Morse functions as acyclic matchings on the Hasse diagram.

A matching pairs faces with cofaces of one dimension higher; unmatched
faces are critical.  Acyclicity is checked layer by layer with Kahn-style
topological sorting, returning an explicit alternating V-cycle on failure.
The same V-path order carries the mod-2 Morse differential
(``morse_differential``), which so rejects a V-cycle as ``validate`` does,
with the same witness.  A zero differential certifies a perfect
matching.  For a gradient that respects a filtration, such as the height
sweep's, whose pairs each lie in the lower star of one vertex, a zero
differential also certifies that every sublevel set injects in homology
(filtered discrete Morse theory, Mischaikow–Nanda 2013).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import chain, combinations, repeat
from typing import Callable

from .complex_core import Face, Record, SimplicialComplex, canonical_face, cone
from .errors import (
    DanglingFaceError,
    EmptyLinkError,
    MatchingCycleError,
    MorseInvariantError,
    NotAMatchingError,
    NotCofaceError,
    NotFreeAtStepError,
)

Pair = tuple[Face, Face]


class MorseMatching(Record):
    """Partial matching on the face poset of a fixed complex."""

    __match_args__ = ("complex", "pairs")

    def __init__(self, complex: SimplicialComplex, pairs: frozenset[Pair]):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "pairs", pairs)

    @property
    def matched_faces(self) -> set[Face]:
        out: set[Face] = set()
        for s, t in self.pairs:
            out.add(s)
            out.add(t)
        return out

    def __repr__(self) -> str:
        return f"MorseMatching({len(self.pairs)} pairs on {self.complex!r})"


def validate(m: MorseMatching) -> None:
    """Check matching structure and acyclicity.

    Raises DanglingFaceError, NotCofaceError, NotAMatchingError, or
    MatchingCycleError (with a witness V-cycle); returns None when valid.
    The structure is checked first (``_check_structure``), then the layers
    in ascending dimension.  The error reported does not depend on the
    order the matching was built in.
    """
    _check_structure(m)
    for layer in _up_layers(m):
        _check_layer_acyclic(layer)


def _check_structure(m: MorseMatching) -> None:
    """Raise the first structural defect of m in sorted pair order.

    Pairs of canonical faces of the complex, each a face and a coface one
    dimension up, no face twice, pass in one unsorted pass.  Only when that
    pass finds something wrong are the pairs sorted and checked one by one,
    so the defect reported does not depend on the order the matching was
    built in.
    """
    c = m.complex
    levels = c._by_dim
    for s, t in m.pairs:
        k = len(s)
        if not (0 < k < len(levels) and len(t) == k + 1 and s in levels[k - 1]
                and t in levels[k] and set(s).issubset(t)):
            break
    else:
        if len(m.matched_faces) == 2 * len(m.pairs):
            return
    seen: set[Face] = set()
    for s, t in sorted(m.pairs):
        for f in (s, t):
            if f not in c:
                raise DanglingFaceError(f"face {f} not in complex")
        if len(t) != len(s) + 1 or not set(s) < set(t):
            raise NotCofaceError(f"{t} is not a coface of {s} one dimension up")
        for f in (s, t):
            if f in seen:
                raise NotAMatchingError(f"face {f} matched twice")
            seen.add(f)


def _up_layers(m: MorseMatching) -> list[dict[Face, Face]]:
    """Layer i maps each up-matched i-face to its partner, i < dim; m must
    pass ``_check_structure``.  V-cycles live inside one layer."""
    up: list[dict[Face, Face]] = [{} for _ in range(m.complex.dimension)]
    for s, t in m.pairs:
        up[len(s) - 1][s] = t
    return up


def _layer_order(layer: dict[Face, Face]) -> tuple[list[Face], dict[Face, list[Face]]]:
    """Kahn sort of the V-path digraph on one layer.

    ``layer`` maps each up-matched face s to its partner t.  The successors
    of s are the faces of t other than s that are up-matched too.  Returns
    the faces of the layer in an order where each comes after every face
    with an edge into it, and the successor map.  The order leaves out the
    faces on or behind a V-cycle, so it is short iff the layer has one.
    """
    succ: dict[Face, list[Face]] = {}
    indeg: dict[Face, int] = {s: 0 for s in layer}
    for s, t in layer.items():
        nexts = [s2 for s2 in combinations(t, len(s)) if s2 != s and s2 in layer]
        succ[s] = nexts
        for s2 in nexts:
            indeg[s2] += 1
    queue = [s for s, d in indeg.items() if d == 0]
    order: list[Face] = []
    while queue:
        s = queue.pop()
        order.append(s)
        for s2 in succ[s]:
            indeg[s2] -= 1
            if indeg[s2] == 0:
                queue.append(s2)
    return order, succ


def _check_layer_acyclic(layer: dict[Face, Face]) -> list[Face]:
    """The V-path order of the layer (``_layer_order``); raises
    MatchingCycleError with a witness V-cycle if the layer has one.  The
    witness depends only on the layer, not on its order."""
    order, succ = _layer_order(layer)
    if len(order) == len(layer):
        return order
    remaining = set(layer).difference(order)
    # every remaining node has an in-edge from remaining; walk until repeat
    start = min(remaining)
    walk = [start]
    positions = {start: 0}
    cur = start
    while True:
        cur = min(s2 for s2 in succ[cur] if s2 in remaining)
        if cur in positions:
            cycle = walk[positions[cur]:]
            witness: list[Face] = []
            for s in cycle:
                witness.extend((s, layer[s]))
            witness.append(cycle[0])
            raise MatchingCycleError(witness)
        positions[cur] = len(walk)
        walk.append(cur)


def morse_differential(m: MorseMatching) -> dict[Face, set[Face]]:
    """The mod-2 Morse boundary of each critical face of positive dimension.

    ``m`` must pass ``validate``'s structural checks; a V-cycle raises
    MatchingCycleError with ``validate``'s witness, since each layer's
    V-path order comes from ``_check_layer_acyclic``, lowest layer first.
    So the checks and the differential take one Kahn sort per layer.

    The Morse boundary of a critical (i+1)-face counts, mod 2, the gradient
    paths from its boundary to each critical i-face: a path steps from an
    up-matched i-face s to the other faces of its partner.  One pass per
    layer: each i-face holds a bitmask over the critical (i+1)-faces whose
    boundary reaches it, seeded by their boundaries, and the up-matched
    i-faces, taken in V-path order, push their masks on along their
    partners.  The masks the critical i-faces end with give the
    differential.

    The Morse complex has the homology of the complex, so a zero
    differential means the matching is perfect; over a field the converse
    holds too.
    """
    c = m.complex
    matched = m.matched_faces
    critical = [list(c.face_set(d).difference(matched)) for d in range(c.dimension + 1)]
    differential: dict[Face, set[Face]] = {}
    for i, layer in enumerate(_up_layers(m)):
        order = _check_layer_acyclic(layer)
        cofaces = critical[i + 1]
        boundaries: list[set[Face]] = [set() for _ in cofaces]
        differential.update(zip(cofaces, boundaries))
        if not cofaces or not critical[i]:  # no path has two critical ends
            continue
        mask: dict[Face, int] = {}
        for b, f in enumerate(cofaces):
            bit = 1 << b
            for s in combinations(f, i + 1):
                mask[s] = mask.get(s, 0) ^ bit
        for s in order:
            bits = mask.get(s)
            if bits:
                for s2 in combinations(layer[s], i + 1):
                    if s2 != s:
                        mask[s2] = mask.get(s2, 0) ^ bits
        for f in critical[i]:
            bits = mask.get(f, 0)
            while bits:
                b = bits.bit_length() - 1
                boundaries[b].add(f)
                bits ^= 1 << b
    return differential


def critical_faces(m: MorseMatching) -> list[Face]:
    matched = m.matched_faces
    return [f for f in m.complex.faces() if f not in matched]


def morse_vector(m: MorseMatching) -> tuple[int, ...]:
    """The number of critical faces per dimension 0..dim of the complex."""
    counts = [0] * (m.complex.dimension + 1)
    for f in critical_faces(m):
        counts[len(f) - 1] += 1
    return tuple(counts)


def is_perfect(m: MorseMatching) -> bool:
    """Does the critical count equal the (non-reduced) Z2 Betti vector?

    Over a field that holds exactly when the Morse differential is zero.
    Raises as ``validate`` does on an invalid matching.
    """
    _check_structure(m)
    return not any(morse_differential(m).values())


# -- collapse bookkeeping ---------------------------------------------------

class FaceSetCollapser:
    """Mutable face set supporting elementary collapses and facet removals.

    Faces are numbered in lexicographic order: ``face`` maps an id to its
    face and ``index`` a face to its id.  Per id the collapser keeps the ids
    of the codimension-one faces, the count of remaining immediate cofaces
    (-1 once the face is removed) and the sum of their ids.  A face is free
    when its count is 1, and that sum then names its unique coface, a facet.
    ``free`` lists the free ids in ascending order, so in lexicographic face
    order; a removal updates the counts and sums of the removed face's
    codimension-one faces and keeps ``free`` sorted by bisection.

    ``remove_pair``, ``remove_facet`` and ``facets_of_max_dim`` work on ids;
    ``free_pairs`` and ``remaining`` give faces.  ``collapse(pick)`` passes
    ``free`` and ``face`` to the policy ``pick``, which must return one of
    the free ids (or None to stop) and must not modify either list.
    """

    def __init__(self, c: SimplicialComplex):
        levels = [c.face_set(d) for d in range(c.dimension + 1)]
        face = sorted(chain.from_iterable(levels))
        n = len(face)
        index = dict(zip(face, range(n)))
        get = index.__getitem__
        subs_of: list[tuple[int, ...]] = [()] * n
        for d in range(1, len(levels)):
            # the ids of the d-subsets of every face, d + 1 at a time
            flat = map(get, chain.from_iterable(map(combinations, levels[d], repeat(d))))
            for i, subs in zip(map(get, levels[d]), zip(*[flat] * (d + 1))):
                subs_of[i] = subs
        count = [0] * n
        total = [0] * n
        for i, subs in enumerate(subs_of):
            for j in subs:
                count[j] += 1
                total[j] += i
        self.face: list[Face] = face
        self.index: dict[Face, int] = index
        self._subs, self._count, self._total = subs_of, count, total
        self.free: list[int] = [i for i in range(n) if count[i] == 1]
        self._left = n

    def coface(self, i: int) -> int | None:
        """The id of the unique coface of a free face, None if i is not free."""
        return self._total[i] if self._count[i] == 1 else None

    def free_pairs(self) -> list[Pair]:
        face, total = self.face, self._total
        return [(face[i], face[total[i]]) for i in self.free]

    def remaining(self) -> list[Face]:
        """The faces not yet removed, in lexicographic order."""
        return [f for f, n in zip(self.face, self._count) if n >= 0]

    def facets_of_max_dim(self) -> list[int]:
        left = [i for i, n in enumerate(self._count) if n >= 0]
        top = max(len(self.face[i]) for i in left)
        return [i for i in left if len(self.face[i]) == top]

    def collapse(self, pick: Callable[[list[int], list[Face]], int | None]) -> list[Pair]:
        """Remove pick's free face and its coface until pick returns None;
        returns the removed pairs of faces in order."""
        face, total = self.face, self._total
        steps: list[Pair] = []
        while (s := pick(self.free, face)) is not None:
            t = total[s]
            self.remove_pair(s, t)
            steps.append((face[s], face[t]))
        return steps

    def _remove(self, i: int) -> None:
        """Remove the maximal face i and update its codimension-one faces."""
        count, total, free = self._count, self._total, self.free
        count[i] = -1
        self._left -= 1
        for j in self._subs[i]:
            n = count[j] - 1
            count[j] = n
            total[j] -= i
            if n == 1:
                insort(free, j)
            elif n == 0:
                del free[bisect_left(free, j)]

    def remove_pair(self, s: int, t: int) -> None:
        """Collapse the free face s with its unique coface t."""
        self._remove(t)
        self._remove(s)

    def remove_facet(self, f: int) -> None:
        if self._count[f]:
            raise MorseInvariantError(f"{self.face[f]} is not maximal")
        self._remove(f)

    def __len__(self) -> int:
        return self._left


def from_collapse_sequence(c: SimplicialComplex, seq) -> MorseMatching:
    """Matching whose pairs are the collapse pairs of a replayed sequence.

    ``seq`` is an iterable of (free face, coface) pairs, or an object with a
    ``steps`` attribute holding one.  Raises NotFreeAtStepError if a pair is
    not free when its turn comes.
    """
    steps = getattr(seq, "steps", seq)
    tracker = FaceSetCollapser(c)
    pairs: list[Pair] = []
    for k, (s, t) in enumerate(steps):
        s, t = canonical_face(s), canonical_face(t)
        i = tracker.index.get(s)
        j = None if i is None else tracker.coface(i)
        if j is None or tracker.face[j] != t:
            raise NotFreeAtStepError(k, (s, t))
        tracker.remove_pair(i, j)
        pairs.append((s, t))
    return MorseMatching(c, frozenset(pairs))


def lift_matching_over_cone(v: int, link_complex: SimplicialComplex, m_link: MorseMatching) -> MorseMatching:
    """Lift a matching on a link to the closed star (the cone over it).

    Each pair (s, t) lifts to (v*s, v*t); the apex v is matched with v*w
    for the smallest-label critical vertex w.  Critical faces of the lift
    are v*u for the remaining critical faces u.  The lift is valid iff
    ``m_link`` is, which is checked here: it adds only (v, v*w), its one
    vertex-edge pair, and w is critical in ``m_link``.  Raises
    EmptyLinkError if the link is empty (the caller marks v critical
    instead).
    """
    if link_complex.is_empty:
        raise EmptyLinkError(f"link of {v} is empty")
    validate(m_link)
    matched = m_link.matched_faces
    # a valid matching leaves a vertex critical: a V-path among vertices ends
    w = min(u for (u,) in link_complex.face_set(0) if (u,) not in matched)
    pairs = {(tuple(sorted(s + (v,))), tuple(sorted(t + (v,)))) for s, t in m_link.pairs}
    pairs.add(((v,), tuple(sorted((v, w)))))
    return MorseMatching(cone(link_complex, v), frozenset(pairs))


def random_pick(rng: random.Random) -> Callable[[list[int], list[Face]], int | None]:
    """Collapse policy: a uniformly random free face, None when none is left."""
    return lambda free, face: free[rng.randrange(len(free))] if free else None


def random_discrete_morse(c: SimplicialComplex, seed: int = 0) -> MorseMatching:
    """Random free-face collapse; removes a random top face when stuck.

    Deterministic for a fixed seed.  The unmatched faces are exactly the
    top faces removed while stuck (the last vertex included).
    """
    rng = random.Random(seed)
    pick = random_pick(rng)
    tracker = FaceSetCollapser(c)
    pairs: list[Pair] = []
    while len(tracker):
        # a collapse never removes the last face, so a facet is left here
        pairs += tracker.collapse(pick)
        tops = tracker.facets_of_max_dim()
        tracker.remove_facet(tops[rng.randrange(len(tops))])
    return MorseMatching(c, frozenset(pairs))
