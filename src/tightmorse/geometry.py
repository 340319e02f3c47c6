"""Geometric realizations, sweep orders, and tightness verification.

Coordinates supplied as integers or fractions keep every computation
exact; the only float produced is ``TightnessFailure.threshold``, a label
for the failing level.  Directions need not be generic: ``sweep_order``
breaks height ties by simulation of simplicity, so every nonzero direction
orders distinct points strictly.  The halfspace restriction is modeled
combinatorially by the full induced subcomplex on the vertices beyond the
threshold, which is a deformation retract of the geometric restriction for
linear embeddings in general position.  Consequently the upper sets of one
sweep form a filtration of the complex, and tightness along a direction is
decided by one mod-2 persistence reduction of it
(``homology_z2.persistence_pairs``).  Whether the coordinates are such an
embedding is checked only on request, by ``verify_embedding``, exactly on
rationals.

Two injectivity conventions appear:

* ``is_pi_tight`` checks the upper halfspaces (direction of the given
  vector), matching the definitional convention.
* The sweep algorithm consumes injectivity of the *below*-threshold
  prefixes, which is the upper check for the negated direction; callers
  needing that hypothesis use ``is_prefix_tight``.  For embeddings tight in
  almost all directions the two agree on generic vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .complex_core import SimplicialComplex, link, restrict
from .errors import (
    DegenerateDirectionError,
    InvalidEmbeddingError,
    NotTightError,
    ThresholdHitsVertexError,
)
from .homology_z2 import betti, persistence_pairs

Number = int | float | Fraction
Vector = tuple[Number, ...]


@dataclass(frozen=True)
class GeometricRealization:
    """A complex plus vertex coordinates in R^k."""

    complex: SimplicialComplex
    coords: dict[int, Vector]
    ambient_dim: int

    def __post_init__(self):
        for v in self.complex.vertices:
            if v not in self.coords:
                raise InvalidEmbeddingError(f"vertex {v} has no coordinates")
            if len(self.coords[v]) != self.ambient_dim:
                raise InvalidEmbeddingError(
                    f"vertex {v} has {len(self.coords[v])} coordinates, expected {self.ambient_dim}"
                )

    def height(self, v: int, direction: Vector) -> Number:
        return sum(p * d for p, d in zip(self.coords[v], direction))

    def restricted(self, vertices: Iterable[int]) -> "GeometricRealization":
        keep = set(vertices)
        sub = restrict(self.complex, keep)
        return GeometricRealization(sub, {v: self.coords[v] for v in keep}, self.ambient_dim)


@dataclass(frozen=True)
class SweepOrder:
    """Vertices in sweep order along a direction, with their heights.

    Heights ascend weakly; vertices of equal height appear in their
    symbolic tie-break order (see ``sweep_order``).
    """

    direction: Vector
    vertices: tuple[int, ...]
    heights: tuple[Number, ...]


def sweep_order(g: GeometricRealization, direction: Vector) -> SweepOrder:
    """Sort vertices by height, breaking ties by simulation of simplicity.

    Vertices are sorted by (height, coordinate tuple, label).  This is the
    exact vertex order along direction + ε·e_1 + ε²·e_2 + ... + ε^k·e_k for
    every small enough ε > 0 (Edelsbrunner–Mücke 1990), and it is strict
    for distinct points.  Raises DegenerateDirectionError for the zero
    vector and for coincident points.
    """
    if all(d == 0 for d in direction):
        raise DegenerateDirectionError([])
    keyed = sorted((g.height(v, direction), g.coords[v], v) for v in g.complex.vertices)
    coincident = [(a[2], b[2]) for a, b in zip(keyed, keyed[1:]) if a[1] == b[1]]
    if coincident:
        raise DegenerateDirectionError(coincident)
    return SweepOrder(tuple(direction), tuple(v for _, _, v in keyed), tuple(h for h, _, _ in keyed))


def upper_subcomplex(g: GeometricRealization, direction: Vector, threshold: Number) -> SimplicialComplex:
    """Induced subcomplex on vertices strictly above the threshold height."""
    above = []
    for v in g.complex.vertices:
        h = g.height(v, direction)
        if h == threshold:
            raise ThresholdHitsVertexError(f"threshold {threshold} hits vertex {v}")
        if h > threshold:
            above.append(v)
    return restrict(g.complex, above)


# -- tightness -------------------------------------------------------------

@dataclass(frozen=True)
class TightnessFailure:
    """One failing level and dimension of a tightness scan.

    ``threshold`` is the midpoint of the two heights the level separates;
    it equals their common height where the sweep order broke a tie.
    """

    threshold: float
    dim: int
    betti_sub: int
    image_rank: int


@dataclass(frozen=True)
class TightnessReport:
    tight: bool
    direction: Vector
    checks: int
    failures: tuple[TightnessFailure, ...]

    def __bool__(self) -> bool:
        return self.tight


def _injectivity_scan(g: GeometricRealization, order: SweepOrder) -> TightnessReport:
    """Check every upper set of the given sweep order against the complex.

    A face enters the upper sets at its lowest sweep position, so the upper
    sets A_j (positions >= j) form one filtration, reduced once.  A bar of
    dimension i born at b and dying at d (None: never) is a class of
    H_i(A_j) for d < j <= b, and it maps to zero in H_i(C) unless it never
    dies; a threshold fails iff a finite bar of positive length is alive.
    """
    c = g.complex
    n = len(order.vertices)
    position = {v: k for k, v in enumerate(order.vertices)}
    keyed = sorted((-min(position[v] for v in f), len(f), f) for f in c.faces())
    faces = [f for _, _, f in keyed]
    born = [-key for key, _, _ in keyed]

    # per threshold and dimension: classes of H_i(A_j), and those surviving in C
    alive = [[0] * (c.dimension + 1) for _ in range(n)]
    kept = [[0] * (c.dimension + 1) for _ in range(n)]
    for k, destroyer in persistence_pairs(faces):
        i = len(faces[k]) - 1
        first = 1 if destroyer is None else born[destroyer] + 1
        for j in range(first, born[k] + 1):
            alive[j][i] += 1
            if destroyer is None:
                kept[j][i] += 1

    # one check per threshold j and dimension of the upper set A_j
    top = [0] * n  # highest dimension of a face born at each position
    for b, f in zip(born, faces):
        top[b] = max(top[b], len(f) - 1)
    checks = reach = 0
    for j in range(n - 1, 0, -1):
        reach = max(reach, top[j])
        checks += reach + 1

    failures = [
        TightnessFailure(
            float((order.heights[j - 1] + order.heights[j]) / 2), i, alive[j][i], kept[j][i]
        )
        for j in range(1, n)
        for i in range(c.dimension + 1)
        if alive[j][i] != kept[j][i]
    ]
    return TightnessReport(not failures, order.direction, checks, tuple(failures))


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


@dataclass(frozen=True)
class SampledTightnessReport:
    samples: int
    passed: int
    failures: tuple[tuple[int, Vector, TightnessReport], ...]

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


# -- the Betti recursion at the top vertex ----------------------------------

@dataclass(frozen=True)
class RecursionViolation:
    dim: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class RecursionReport:
    ok: bool
    top_vertex: int | None
    violations: tuple[RecursionViolation, ...]


def verify_lemma_betti_recursion(g: GeometricRealization, direction: Vector) -> RecursionReport:
    """Check the link/deletion Betti identity at the top vertex.

    For the top vertex v with nonempty link L the identity reads, in
    non-reduced mod-2 Betti numbers with delta the Kronecker symbol,

        beta_i(L) + beta_{i+1}(C - v) - delta_{i0} = beta_{i+1}(C).

    Precondition (checked, NotTightError otherwise): every sweep prefix of
    the realization includes injectively, which is what makes the identity
    a theorem.  An isolated top vertex is handled with the reduced-homology
    form of the same identity: beta_0 drops by one and the higher terms
    match without the Kronecker correction.
    """
    report = is_prefix_tight(g, direction)
    if not report.tight:
        raise NotTightError("prefix injectivity fails; the identity is only claimed for tight embeddings", report)
    order = sweep_order(g, direction)
    c = g.complex
    if len(order.vertices) < 2:
        return RecursionReport(True, order.vertices[-1] if order.vertices else None, ())
    v = order.vertices[-1]
    rest = restrict(c, order.vertices[:-1])
    lk = link(c, v)
    b_c = betti(c)
    b_rest = betti(rest)
    violations: list[RecursionViolation] = []
    top = c.dimension
    if lk.is_empty:
        if b_c[0] != b_rest[0] + 1:
            violations.append(RecursionViolation(-1, b_rest[0] + 1, b_c[0]))
        for i in range(top + 1):
            lhs = b_rest[i + 1]
            rhs = b_c[i + 1]
            if lhs != rhs:
                violations.append(RecursionViolation(i, lhs, rhs))
    else:
        b_link = betti(lk)
        for i in range(top + 1):
            lhs = b_link[i] + b_rest[i + 1] - (1 if i == 0 else 0)
            rhs = b_c[i + 1]
            if lhs != rhs:
                violations.append(RecursionViolation(i, lhs, rhs))
    return RecursionReport(not violations, v, tuple(violations))


# -- optional exact embedding verification ----------------------------------

def _exact_coords(g: GeometricRealization) -> dict[int, tuple[Fraction, ...]]:
    out = {}
    for v, p in g.coords.items():
        out[v] = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in p)
    return out


def _affinely_independent(points: Sequence[tuple[Fraction, ...]]) -> bool:
    if len(points) <= 1:
        return True
    base = points[0]
    rows = [tuple(x - b for x, b in zip(p, base)) for p in points[1:]]
    # exact rank by fraction-free elimination
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0])
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = Fraction(rows[r][col], rows[rank][col])
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(points) - 1


def _pivot(tableau: list[list[Fraction]], basis: list[int], r: int, j: int) -> None:
    """Make column j basic in row r; the cost row is the last row."""
    row = tableau[r]
    p = row[j]
    row[:] = [x / p for x in row]
    for other in tableau:
        f = other[j]
        if f and other is not row:
            other[:] = [a - f * b if b else a for a, b in zip(other, row)]
    basis[r] = j


def _climb(tableau: list[list[Fraction]], basis: list[int], columns: int) -> None:
    """Pivot until no column below ``columns`` has a positive reduced cost.

    Bland's rule picks the smallest improving column and, among the rows
    with the least ratio, the one whose basic variable is smallest, so
    degenerate pivots cannot cycle.  The feasible sets solved here are
    bounded, so some row always limits the entering column.
    """
    *rows, cost = tableau
    while True:
        j = next((j for j in range(columns) if cost[j] > 0), None)
        if j is None:
            return
        r = min(
            (r for r, row in enumerate(rows) if row[j] > 0),
            key=lambda r: (rows[r][-1] / rows[r][j], basis[r]),
        )
        _pivot(tableau, basis, r, j)


def _simplex_max(
    rows: list[list[Fraction]], rhs: list[Fraction], objective: list[Fraction]
) -> Fraction | None:
    """Maximum of objective . x over the bounded set {x >= 0 : rows . x = rhs}.

    Two-phase dense tableau simplex over exact fractions; rhs must be
    nonnegative.  Phase 1 starts from one artificial variable per row and
    drives their sum to zero, which also handles rank-deficient rows: an
    artificial that stays basic at zero after phase 1 sits in a row that is
    zero on every structural column, and no later pivot changes that row.
    Returns None when the set is empty.
    """
    m, n = len(rows), len(objective)
    zero, one = Fraction(0), Fraction(1)
    tableau = [
        list(row) + [one if i == r else zero for i in range(m)] + [b]
        for r, (row, b) in enumerate(zip(rows, rhs))
    ]
    # phase 1 maximizes minus the sum of the artificials
    cost = [sum(column) for column in zip(*tableau)]
    tableau.append(cost[:n] + [zero] * m + cost[-1:])
    basis = list(range(n, n + m))
    _climb(tableau, basis, n + m)
    if tableau[-1][-1] != 0:
        return None
    for r in range(m):
        if basis[r] >= n:
            j = next((j for j in range(n) if tableau[r][j]), None)
            if j is not None:
                _pivot(tableau, basis, r, j)
    # phase 2: reduced costs of the objective; artificials never enter again
    weights = list(objective) + [zero] * (m + 1)
    tableau[-1] = [
        weights[j] - sum(weights[basis[r]] * tableau[r][j] for r in range(m))
        for j in range(n + m + 1)
    ]
    _climb(tableau, basis, n)
    return -tableau[-1][-1]


def _max_outside_mass(
    pa: list[tuple[Fraction, ...]],
    pb: list[tuple[Fraction, ...]],
    shared_in_a: list[int],
) -> Fraction | None:
    """Max total barycentric mass of conv(pa) ∩ conv(pb) outside the shared face.

    The contact polytope {A·l = B·m, sum l = sum m = 1, l, m >= 0} holds the
    common points of the two hulls, and the objective is the weight l puts
    on the vertices of pa outside the shared face.  Returns None when the
    hulls do not intersect.
    """
    k = len(pa[0])
    s, t = len(pa), len(pb)
    zero, one = Fraction(0), Fraction(1)
    # equality rows: coordinates, then the two affine constraints
    rows = [[pa[i][c] for i in range(s)] + [-pb[j][c] for j in range(t)] for c in range(k)]
    rows.append([one] * s + [zero] * t)
    rows.append([zero] * s + [one] * t)
    rhs = [zero] * k + [one, one]
    objective = [zero if (i >= s or i in shared_in_a) else one for i in range(s + t)]
    return _simplex_max(rows, rhs, objective)


def verify_embedding(g: GeometricRealization) -> None:
    """Exact check that the coordinates give a linear embedding.

    Only the facets (maximal faces) are examined, which suffices:

    * every face lies in a facet, and a subset of an affinely independent
      set is affinely independent;
    * let faces s' of facet s and t' of facet t be given, where
      conv s ∩ conv t = conv(s ∩ t).  Then conv s' ∩ conv t' lies in
      conv(s' ∩ t) and in conv(t' ∩ s), since barycentric coordinates in
      an affinely independent s or t are unique.  Both hulls lie in the
      simplex conv(s ∩ t), so their intersection is conv(s' ∩ t').

    Each facet must be affinely independent.  For every pair of facets one
    two-phase exact simplex solve (``_simplex_max``, Bland's rule,
    artificial variables for rank-deficient contact systems) finds the
    largest barycentric mass a common point puts outside the shared face,
    and the pair is rejected if it is positive.  A shared vertex is always
    a common point, so the shared face itself is never missed.  Intended as
    an opt-in diagnostic, not a standing invariant.
    """
    coords = _exact_coords(g)
    facets = g.complex.facets
    points = {f: [coords[v] for v in f] for f in facets}
    for f in facets:
        if not _affinely_independent(points[f]):
            raise InvalidEmbeddingError(f"facet {f} is affinely dependent")
    for a, fa in enumerate(facets):
        for fb in facets[a + 1:]:
            shared = [i for i, v in enumerate(fa) if v in fb]
            worst = _max_outside_mass(points[fa], points[fb], shared)
            if worst is not None and worst > 0:
                raise InvalidEmbeddingError(f"facets {fa} and {fb} overlap outside their shared face")
