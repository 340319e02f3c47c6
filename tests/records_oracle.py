"""Frozen-dataclass twins of the library's record types.

The library's result types are plain classes on ``complex_core.Record``,
which gives them a frozen dataclass's ``__eq__``, ``__hash__``, ``__repr__``,
``__setattr__`` and ``__delattr__`` without generating code.  Each twin
here is the ``@dataclass(frozen=True)`` the library class used to be, with
the same name, fields, defaults, validation and extra methods, kept as the
oracle that ``tests/test_records.py`` compares the library classes against.

The certificate's twin is a plain frozen dataclass: its generated,
recursive ``__eq__`` and ``__repr__`` are what the library's hand-written,
stack-based ones reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from tightmorse.errors import (
    FormatError,
    InvalidEmbeddingError,
    PathSelfIntersectsError,
)


# -- algorithms -------------------------------------------------------------------

@dataclass(frozen=True)
class CollapseSequence:
    source: object
    steps: tuple
    target: object

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class NonEvasivenessCertificate:
    vertex: int
    link_cert: Optional[NonEvasivenessCertificate] = None
    deletion_cert: Optional[NonEvasivenessCertificate] = None


@dataclass(frozen=True)
class NonEvasiveResult:
    status: str
    certificate: Optional[NonEvasivenessCertificate] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class CollapsibleResult:
    status: str
    sequence: Optional[CollapseSequence] = None
    reason: Optional[str] = None


# -- geometry -----------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricRealization:
    complex: object
    coords: dict
    ambient_dim: int

    def __post_init__(self):
        for v in self.complex.vertices:
            if v not in self.coords:
                raise InvalidEmbeddingError(f"vertex {v} has no coordinates")
            if len(self.coords[v]) != self.ambient_dim:
                raise InvalidEmbeddingError(
                    f"vertex {v} has {len(self.coords[v])} coordinates, expected {self.ambient_dim}"
                )


@dataclass(frozen=True)
class SweepOrder:
    direction: tuple
    vertices: tuple
    heights: tuple


@dataclass(frozen=True)
class TightnessFailure:
    threshold: float
    dim: int
    betti_sub: int
    image_rank: int


@dataclass(frozen=True)
class TightnessReport:
    tight: bool
    direction: tuple
    checks: int
    failures: tuple

    def __bool__(self) -> bool:
        return self.tight


@dataclass(frozen=True)
class SampledTightnessReport:
    samples: int
    passed: int
    failures: tuple


# -- morse ----------------------------------------------------------------------------

@dataclass(frozen=True)
class MorseMatching:
    complex: object
    pairs: frozenset

    def __repr__(self) -> str:
        return f"MorseMatching({len(self.pairs)} pairs on {self.complex!r})"


# -- constructions ----------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePath:
    cubes: tuple

    def __post_init__(self):
        seen = set()
        for cube in self.cubes:
            if cube in seen:
                raise PathSelfIntersectsError(f"cube {cube} repeated")
            seen.add(cube)
        for a, b in zip(self.cubes, self.cubes[1:]):
            if sum(abs(p - q) for p, q in zip(a, b)) != 1:
                raise FormatError(f"cubes {a} and {b} are not face-adjacent")

    def __len__(self) -> int:
        return len(self.cubes)


@dataclass(frozen=True)
class FurchBall:
    realization: object
    spanning_edge: tuple
    box: tuple
    path: object


@dataclass(frozen=True)
class ConeSphere:
    complex: object
    apex: int


@dataclass(frozen=True)
class WedgeThickening:
    complex: object
    apex: int
    wedge_point: int
    wedge: object
    side_walls: tuple
