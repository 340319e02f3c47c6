"""Reference collapse engine: re-sorts every free face at every step.

This is the straightforward form of the library's collapses, kept as the
oracle that ``tightmorse.morse.FaceSetCollapser.collapse`` and its callers
are compared against.  Each function repeats one library entry point with
its own loop over ``SortingCollapser.free_pairs()``.
"""

from __future__ import annotations

import random
from typing import Iterable

from tightmorse import betti, inclusion_induced_injective
from tightmorse.algorithms import CollapseSequence, CollapsibleResult
from tightmorse.complex_core import Face, SimplicialComplex, from_faces
from tightmorse.errors import (
    DimensionOutOfRangeError,
    EmptyComplexError,
    MorseInvariantError,
    NotASubcomplexError,
    StuckBeforeTargetError,
    StuckNoFreeEdgeError,
)
from tightmorse.homology_z2 import is_subcomplex
from tightmorse.morse import MorseMatching, Pair


class SortingCollapser:
    """Face set with immediate-coface tracking and an unordered free set."""

    def __init__(self, c: SimplicialComplex):
        self.faces: set[Face] = set(c.faces())
        self.icof: dict[Face, set[Face]] = {f: set() for f in self.faces}
        for f in self.faces:
            if len(f) > 1:
                for k in range(len(f)):
                    self.icof[f[:k] + f[k + 1:]].add(f)
        self._free: set[Face] = {f for f in self.faces if self._is_free(f)}

    def _is_free(self, f: Face) -> bool:
        if f not in self.faces:
            return False
        cof = self.icof[f]
        if len(cof) != 1:
            return False
        (t,) = cof
        return not self.icof[t]

    def unique_coface(self, f: Face) -> Face:
        (t,) = self.icof[f]
        return t

    def free_pairs(self) -> list[Pair]:
        return sorted((f, self.unique_coface(f)) for f in self._free)

    def facets_of_max_dim(self) -> list[Face]:
        top = max(len(f) for f in self.faces)
        return sorted(f for f in self.faces if len(f) == top)

    def _recheck(self, dirty: Iterable[Face]) -> None:
        for f in dirty:
            if self._is_free(f):
                self._free.add(f)
            else:
                self._free.discard(f)

    def _detach(self, f: Face) -> set[Face]:
        self.faces.discard(f)
        self._free.discard(f)
        dirty: set[Face] = set()
        if len(f) > 1:
            for k in range(len(f)):
                sub = f[:k] + f[k + 1:]
                self.icof[sub].discard(f)
                dirty.add(sub)
                if len(sub) > 1:
                    for j in range(len(sub)):
                        dirty.add(sub[:j] + sub[j + 1:])
        return dirty

    def remove_pair(self, s: Face, t: Face) -> None:
        dirty = self._detach(t)
        dirty |= self._detach(s)
        self._recheck(d for d in dirty if d in self.faces)

    def remove_facet(self, f: Face) -> None:
        if self.icof[f]:
            raise MorseInvariantError(f"{f} is not maximal")
        dirty = self._detach(f)
        self._recheck(d for d in dirty if d in self.faces)


def random_discrete_morse(c: SimplicialComplex, seed: int = 0) -> MorseMatching:
    rng = random.Random(seed)
    tracker = SortingCollapser(c)
    pairs: list[Pair] = []
    while tracker.faces:
        free = tracker.free_pairs()
        if free:
            s, t = free[rng.randrange(len(free))]
            tracker.remove_pair(s, t)
            pairs.append((s, t))
        else:
            tops = tracker.facets_of_max_dim()
            tracker.remove_facet(tops[rng.randrange(len(tops))])
    return MorseMatching(c, frozenset(pairs))


def collapsible_greedy(c: SimplicialComplex, seed: int = 0, restarts: int = 50) -> CollapsibleResult:
    if c.is_empty:
        return CollapsibleResult("no", reason="empty")
    if c.num_faces == 1:
        return CollapsibleResult("yes", CollapseSequence(c, (), c))
    b = betti(c)
    if b[0] != 1 or any(b[i] for i in range(1, len(b))):
        return CollapsibleResult("no", reason="betti")
    if not SortingCollapser(c).free_pairs():
        return CollapsibleResult("no", reason="no free face")
    for attempt in range(restarts):
        rng = random.Random(seed * 1_000_003 + attempt)
        tracker = SortingCollapser(c)
        steps: list[Pair] = []
        while True:
            free = tracker.free_pairs()
            if not free:
                break
            s, t = free[rng.randrange(len(free))]
            tracker.remove_pair(s, t)
            steps.append((s, t))
        if len(tracker.faces) == 1:
            target = from_faces(sorted(tracker.faces))
            return CollapsibleResult("yes", CollapseSequence(c, tuple(steps), target))
    return CollapsibleResult("budget", reason=f"{restarts} greedy restarts failed")


def planar_perfect_morse(d: SimplicialComplex) -> MorseMatching:
    if d.is_empty:
        raise EmptyComplexError("planar routine needs a nonempty complex")
    if d.dimension > 2:
        raise DimensionOutOfRangeError("planar routine limited to dimension <= 2")
    tracker = SortingCollapser(d)
    pairs: list[Pair] = []
    while any(len(f) == 3 for f in tracker.faces):
        free_edges = [(s, t) for s, t in tracker.free_pairs() if len(s) == 2]
        if not free_edges:
            raise StuckNoFreeEdgeError(
                f"{sum(len(f) == 3 for f in tracker.faces)} triangles left with no free edge"
            )
        s, t = free_edges[0]
        tracker.remove_pair(s, t)
        pairs.append((s, t))

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


def relative_collapse(c: SimplicialComplex, d: SimplicialComplex) -> CollapseSequence:
    if c.dimension > 2:
        raise DimensionOutOfRangeError("relative collapse limited to dimension <= 2")
    if not is_subcomplex(d, c):
        raise NotASubcomplexError("target is not a subcomplex")
    b_c, b_d = (() if x.is_empty else betti(x) for x in (c, d))
    iso = tuple(b_c) == tuple(b_d) + (0,) * (len(b_c) - len(b_d)) and all(
        inclusion_induced_injective(d, c, i) for i in range(c.dimension + 1)
    )
    if not iso:
        raise NotASubcomplexError(
            f"inclusion is not a homology isomorphism: {tuple(b_d)} vs {tuple(b_c)}"
        )
    forbidden = frozenset(d.faces())
    tracker = SortingCollapser(c)
    steps: list[Pair] = []
    while True:
        candidates = [(s, t) for s, t in tracker.free_pairs() if s not in forbidden]
        if not candidates:
            break
        s, t = min(candidates, key=lambda p: (-len(p[0]), p))
        tracker.remove_pair(s, t)
        steps.append((s, t))
    if tracker.faces != set(d.faces()):
        raise StuckBeforeTargetError(from_faces(sorted(tracker.faces)))
    return CollapseSequence(c, tuple(steps), d)
