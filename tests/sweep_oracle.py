"""Reference sweep construction: one full link and one restriction per vertex.

This is the straightforward form of ``tightmorse.algorithms.sweep_perfect_morse``,
kept as the oracle that the library's sweep is compared against.  For each
vertex in sweep order it builds the vertex's whole link with ``link`` and cuts
it down with ``restrict`` to the vertices already swept.
"""

from __future__ import annotations

from tightmorse.algorithms import _perfect_on_link
from tightmorse.complex_core import link, restrict
from tightmorse.errors import (
    LinkNotPlanarCollapsibleError,
    NotTightError,
    PerfectnessAssertionFailedError,
    StuckNoFreeEdgeError,
)
from tightmorse.geometry import GeometricRealization, is_prefix_tight, sweep_order
from tightmorse.homology_z2 import betti
from tightmorse.morse import MorseMatching, Pair, lift_matching_over_cone, morse_vector, validate


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
    if mv != bv:
        raise PerfectnessAssertionFailedError(mv, bv)
    return matching
