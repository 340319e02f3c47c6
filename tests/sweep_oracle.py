"""Reference sweep construction: one full link and one restriction per vertex.

This is the straightforward form of ``tightmorse.algorithms.sweep_perfect_morse``,
kept as the oracle that the library's sweep is compared against.  For each
vertex in sweep order it builds the vertex's whole link with ``link`` and cuts
it down with ``restrict`` to the vertices already swept.  Each lower link is
matched by the reference planar routine of ``collapse_oracle``, with its own
closed-surface puncture, and lifted by ``lift_matching_over_cone``, which
checks it; the whole matching is checked once more at the end.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import collapse_oracle
from tightmorse.complex_core import SimplicialComplex, from_faces, link, restrict
from tightmorse.errors import (
    LinkNotPlanarCollapsibleError,
    NotTightError,
    PerfectnessAssertionFailedError,
    StuckNoFreeEdgeError,
)
from tightmorse.geometry import GeometricRealization, is_prefix_tight, sweep_order
from tightmorse.homology_z2 import betti
from tightmorse.morse import MorseMatching, Pair, lift_matching_over_cone, morse_vector, validate


def is_closed_surface(c: SimplicialComplex) -> bool:
    """Dimension 2, and every edge in exactly two triangles."""
    if c.dimension != 2:
        return False
    count = Counter(e for t in c.faces(2) for e in combinations(t, 2))
    return all(count[e] == 2 for e in c.faces(1))


def perfect_on_link(lower: SimplicialComplex) -> MorseMatching:
    """The reference planar matching; a stuck closed surface (the whole
    link of a vertex swept last) loses its smallest triangle first, which
    stays critical."""
    try:
        return collapse_oracle.planar_perfect_morse(lower)
    except StuckNoFreeEdgeError:
        if not is_closed_surface(lower):
            raise
    top = min(lower.faces(2))
    punctured = from_faces([f for f in lower.faces() if f != top])
    return MorseMatching(lower, collapse_oracle.planar_perfect_morse(punctured).pairs)


def sweep_perfect_morse(
    g: GeometricRealization,
    direction,
    assume_tight: bool = False,
) -> MorseMatching:
    """The library's sweep, with each lower link restricted from the full link."""
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
                m_link = perfect_on_link(lower)
            except StuckNoFreeEdgeError as exc:
                raise LinkNotPlanarCollapsibleError(v, exc) from exc
            lifted = lift_matching_over_cone(v, lower, m_link)
            pairs |= lifted.pairs
        earlier.add(v)

    matching = MorseMatching(c, frozenset(pairs))
    validate(matching)
    mv = morse_vector(matching)
    bv = betti(c)
    if mv != bv:
        raise PerfectnessAssertionFailedError(mv, bv)
    return matching
