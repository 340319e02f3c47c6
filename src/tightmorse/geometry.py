"""Geometric realizations, sweep orders, and tightness verification.

Coordinates supplied as integers or fractions keep every computation
exact; the only float produced is ``TightnessFailure.threshold``, a label
for the failing level (infinite where the level lies beyond float range).
Directions need not be generic: ``sweep_order`` breaks height ties by
simulation of simplicity, so every nonzero direction orders distinct
points strictly.  The halfspace restriction is modeled combinatorially by
the full induced subcomplex on the vertices beyond the threshold, which is
a deformation retract of the geometric restriction for linear embeddings
in general position.  Consequently the upper sets of one sweep form a
filtration of the complex, and tightness along a direction is decided by
one mod-2 persistence reduction of it (``homology_z2.persistence_pairs``).
Whether the coordinates are such an embedding is checked only on request,
by ``verify_embedding``, exactly on rationals (in the ``embedding`` module).

Two injectivity conventions appear:

* ``is_pi_tight`` checks the upper halfspaces (direction of the given
  vector), matching the definitional convention.
* The sweep algorithm consumes injectivity of the *below*-threshold
  prefixes, which is the upper check for the negated direction; callers
  needing that hypothesis use ``is_prefix_tight``.  For embeddings tight in
  almost all directions the two agree on generic vectors.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

from .complex_core import Record, SimplicialComplex
from .errors import DegenerateDirectionError, DirectionLengthError, InvalidEmbeddingError
from .homology_z2 import persistence_pairs

Number = int | float | Fraction
Vector = tuple[Number, ...]


class GeometricRealization(Record):
    """A complex plus vertex coordinates in R^k.

    Unhashable, since ``coords`` is a dict.
    """

    __match_args__ = ("complex", "coords", "ambient_dim")

    def __init__(self, complex: SimplicialComplex, coords: dict[int, Vector], ambient_dim: int):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        for v in complex.vertices:
            if v not in coords:
                raise InvalidEmbeddingError(f"vertex {v} has no coordinates")
            if len(coords[v]) != ambient_dim:
                raise InvalidEmbeddingError(
                    f"vertex {v} has {len(coords[v])} coordinates, expected {ambient_dim}"
                )

    def height(self, v: int, direction: Vector) -> Number:
        return sum(map(mul, self.coords[v], direction))


class SweepOrder(Record):
    """Vertices in sweep order along a direction, with their heights.

    Heights ascend weakly; vertices of equal height appear in their
    symbolic tie-break order (see ``sweep_order``).
    """

    __match_args__ = ("direction", "vertices", "heights")

    def __init__(self, direction: Vector, vertices: tuple[int, ...], heights: tuple[Number, ...]):
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "heights", heights)


def sweep_order(g: GeometricRealization, direction: Vector) -> SweepOrder:
    """Sort vertices by height, breaking ties by simulation of simplicity.

    Vertices are sorted by (height, coordinate tuple, label).  This is the
    exact vertex order along direction + ε·e_1 + ε²·e_2 + ... + ε^k·e_k for
    every small enough ε > 0 (Edelsbrunner–Mücke 1990), and it is strict
    for distinct points.  Raises DirectionLengthError for a direction of
    the wrong length, and DegenerateDirectionError for the zero vector and
    for coincident points.
    """
    if len(direction) != g.ambient_dim:
        raise DirectionLengthError(
            f"direction has {len(direction)} coordinates, expected {g.ambient_dim}"
        )
    if all(d == 0 for d in direction):
        raise DegenerateDirectionError([])
    keyed = sorted((g.height(v, direction), g.coords[v], v) for v in g.complex.vertices)
    coincident = [(a[2], b[2]) for a, b in zip(keyed, keyed[1:]) if a[1] == b[1]]
    if coincident:
        raise DegenerateDirectionError(coincident)
    return SweepOrder(tuple(direction), tuple(v for _, _, v in keyed), tuple(h for h, _, _ in keyed))


# -- tightness -------------------------------------------------------------

class TightnessFailure(Record):
    """One failing level and dimension of a tightness scan.

    ``threshold`` is the midpoint of the two heights the level separates;
    it equals their common height where the sweep order broke a tie, and
    it is infinite, with the midpoint's sign, beyond float range.
    """

    __match_args__ = ("threshold", "dim", "betti_sub", "image_rank")

    def __init__(self, threshold: float, dim: int, betti_sub: int, image_rank: int):
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "betti_sub", betti_sub)
        object.__setattr__(self, "image_rank", image_rank)


class TightnessReport(Record):
    __match_args__ = ("tight", "direction", "checks", "failures")

    def __init__(self, tight: bool, direction: Vector, checks: int, failures: tuple[TightnessFailure, ...]):
        object.__setattr__(self, "tight", tight)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "failures", failures)

    def __bool__(self) -> bool:
        return self.tight


def _injectivity_scan(g: GeometricRealization, order: SweepOrder) -> TightnessReport:
    """Check every upper set of the given sweep order against the complex.

    A face enters the upper sets at its lowest sweep position, so the upper
    sets A_j (positions >= j) form one filtration, reduced once.  A bar of
    dimension i born at b and dying at d (None: never) is a class of
    H_i(A_j) for d < j <= b, and it maps to zero in H_i(C) unless it never
    dies; a threshold fails iff a finite bar of positive length is alive.

    The filtration orders the faces by birth position descending, then by
    dimension, then lexicographically.  ``c.faces()`` already ascends by
    (dimension, lex), so one stable sort of it keyed on the birth position
    alone gives that order: a reverse sort keeps equal keys in their order.
    """
    c = g.complex
    dim, n = c.dimension, len(order.vertices)
    position = {v: k for k, v in enumerate(order.vertices)}.__getitem__
    all_faces = c.faces()
    birth = [min(map(position, f)) for f in all_faces]
    filtration = sorted(range(len(all_faces)), key=birth.__getitem__, reverse=True)
    faces = list(map(all_faces.__getitem__, filtration))
    born = list(map(birth.__getitem__, filtration))

    # per threshold and dimension: classes of H_i(A_j), and those surviving in C
    alive = [[0] * (dim + 1) for _ in range(n)]
    kept = [[0] * (dim + 1) for _ in range(n)]
    for k, destroyer in persistence_pairs(faces):
        i = len(faces[k]) - 1
        first = 1 if destroyer is None else born[destroyer] + 1
        for j in range(first, born[k] + 1):
            alive[j][i] += 1
            if destroyer is None:
                kept[j][i] += 1

    # one check per threshold j and dimension of the upper set A_j
    # highest dimension of a face born at each position: within a position
    # the faces ascend by dimension, so the last one's size is kept
    top = [0] * n
    for b, size in dict(zip(born, map(len, faces))).items():
        top[b] = size - 1
    checks = reach = 0
    for j in range(n - 1, 0, -1):
        reach = max(reach, top[j])
        checks += reach + 1

    failures = [
        TightnessFailure(_level(order.heights[j - 1], order.heights[j]), i, alive[j][i], kept[j][i])
        for j in range(1, n)
        for i in range(dim + 1)
        if alive[j][i] != kept[j][i]
    ]
    return TightnessReport(not failures, order.direction, checks, tuple(failures))


def _level(low: Number, high: Number) -> float:
    """The midpoint of two heights as a float, infinite beyond float range."""
    try:
        return float((low + high) / 2)
    except OverflowError:
        return math.inf if low + high > 0 else -math.inf


def is_pi_tight(g: GeometricRealization, direction: Vector) -> TightnessReport:
    """Injectivity of H_*(upper halfspace part) -> H_*(complex), all levels.

    Checks the n-1 thresholds between consecutive vertex heights.  Only the
    +direction halfspaces are checked; tightness of the opposite sign is a
    separate call with the negated vector.
    """
    order = sweep_order(g, direction)
    return _injectivity_scan(g, order)


def is_prefix_tight(g: GeometricRealization, direction: Vector) -> TightnessReport:
    """Injectivity of every ascending sweep prefix into the full complex.

    The prefixes (below-threshold induced subcomplexes) are exactly the
    upper sets of the negated direction; this is the hypothesis the sweep
    construction consumes.  The check reverses the sweep order of
    ``direction`` instead of sorting along its negation: under height ties
    the reversed order is the order along -(direction + ε), whose upper
    sets are exactly the prefixes the sweep consumes, while sorting along
    -direction would break the ties the other way round.
    """
    order = sweep_order(g, direction)
    reversed_order = SweepOrder(
        tuple(-d for d in direction),
        tuple(reversed(order.vertices)),
        tuple(-h for h in reversed(order.heights)),
    )
    return _injectivity_scan(g, reversed_order)


class SampledTightnessReport(Record):
    __match_args__ = ("samples", "passed", "failures")

    def __init__(self, samples: int, passed: int, failures: tuple[tuple[int, Vector, TightnessReport], ...]):
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "failures", failures)

    @property
    def fraction(self) -> float:
        return self.passed / self.samples if self.samples else 1.0


def check_tightness_sampled(
    g: GeometricRealization, samples: int, seed: int = 0
) -> SampledTightnessReport:
    """Fraction of randomly sampled directions that are pi-tight.

    Each direction is a Gaussian vector scaled by 2**16 and rounded to
    integers (redrawn while zero), so directions are close to uniform on the
    sphere, every sample is decided exactly, and the seed fixes them all.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if g.ambient_dim < 1:
        raise DegenerateDirectionError([])
    rng = random.Random(seed)
    failures = []
    for idx in range(samples):
        direction = (0,) * g.ambient_dim
        while not any(direction):
            direction = tuple(round(rng.gauss(0.0, 1.0) * 2**16) for _ in range(g.ambient_dim))
        rep = is_pi_tight(g, direction)
        if not rep.tight:
            failures.append((idx, direction, rep))
    return SampledTightnessReport(samples, samples - len(failures), tuple(failures))


# -- optional exact embedding verification ----------------------------------

def verify_embedding(g: GeometricRealization) -> None:
    """Exact check that the coordinates give a linear embedding.

    Raises InvalidEmbeddingError naming the first affinely dependent facet
    or overlapping facet pair.  The check is ``embedding.verify_embedding``;
    it lives in its own module so that only a process that verifies an
    embedding compiles it.
    """
    from . import embedding

    embedding.verify_embedding(g)
