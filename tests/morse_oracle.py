"""Reference matching validator: every pair checked in sorted order.

This is the straightforward form of ``tightmorse.morse.validate``, kept as the
oracle that the library's validator is compared against.  It sorts the pairs
before any check, so the first defect in sorted order is reported, and it
checks each layer for a V-cycle with its own Kahn sort and witness walk.
"""

from __future__ import annotations

from tightmorse.complex_core import Face
from tightmorse.errors import DanglingFaceError, MatchingCycleError, NotAMatchingError, NotCofaceError
from tightmorse.morse import MorseMatching


def validate(m: MorseMatching) -> None:
    c = m.complex
    pairs = sorted(m.pairs)
    seen: set[Face] = set()
    for s, t in pairs:
        for f in (s, t):
            if f not in c.face_set(len(f) - 1):
                raise DanglingFaceError(f"face {f} not in complex")
        if len(t) != len(s) + 1 or not set(s) < set(t):
            raise NotCofaceError(f"{t} is not a coface of {s} one dimension up")
        for f in (s, t):
            if f in seen:
                raise NotAMatchingError(f"face {f} matched twice")
            seen.add(f)
    by_dim: dict[int, dict[Face, Face]] = {}
    for s, t in pairs:
        by_dim.setdefault(len(s) - 1, {})[s] = t
    for _, layer in sorted(by_dim.items()):
        check_layer_acyclic(layer)


def check_layer_acyclic(layer: dict[Face, Face]) -> None:
    """Raise MatchingCycleError if the layer's V-path digraph has a cycle.

    Kahn's sort leaves out exactly the faces on or behind a cycle.  The
    witness walks from the smallest of them to its smallest successor among
    them, until a face repeats.
    """
    succ = {s: [t[:k] + t[k + 1:] for k in range(len(t))] for s, t in layer.items()}
    succ = {s: [s2 for s2 in nexts if s2 != s and s2 in layer] for s, nexts in succ.items()}
    indeg = {s: 0 for s in layer}
    for nexts in succ.values():
        for s2 in nexts:
            indeg[s2] += 1
    queue = [s for s, d in indeg.items() if d == 0]
    done: set[Face] = set()
    while queue:
        s = queue.pop()
        done.add(s)
        for s2 in succ[s]:
            indeg[s2] -= 1
            if indeg[s2] == 0:
                queue.append(s2)
    remaining = set(layer) - done
    if not remaining:
        return
    walk = [min(remaining)]
    while True:
        cur = min(s2 for s2 in succ[walk[-1]] if s2 in remaining)
        if cur in walk:
            cycle = walk[walk.index(cur):]
            witness: list[Face] = []
            for s in cycle:
                witness.extend((s, layer[s]))
            witness.append(cycle[0])
            raise MatchingCycleError(witness)
        walk.append(cur)
