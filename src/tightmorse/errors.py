"""Exception types shared across the package.

Every error raised by the library derives from TightMorseError, so callers
can catch domain failures without swallowing programming errors.
"""


class TightMorseError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- complexes

class EmptyInputError(TightMorseError):
    """No facets were supplied."""


class MalformedFacetError(TightMorseError):
    """A facet contains a repeated vertex label."""


class VertexNotFoundError(TightMorseError):
    """The requested vertex is not a vertex of the complex."""


class LabelClashError(TightMorseError):
    """A vertex label that must be fresh is already in use."""


# ----------------------------------------------------------------- homology

class DimensionOutOfRangeError(TightMorseError):
    """Boundary matrix requested outside 1..dim."""


class EmptyComplexError(TightMorseError):
    """Betti numbers of the empty complex are not defined here."""


class NotASubcomplexError(TightMorseError):
    """Inclusion-induced map requested for a non-subcomplex."""


# -------------------------------------------------------------------- morse

class DanglingFaceError(TightMorseError):
    """A matching pair references a face missing from the complex."""


class NotCofaceError(TightMorseError):
    """A matching pair is not a (face, coface) pair of consecutive dimension."""


class NotAMatchingError(TightMorseError):
    """Some face appears in more than one pair."""


class MatchingCycleError(TightMorseError):
    """The modified Hasse diagram contains a directed cycle.

    ``witness`` is a closed alternating V-path
    ``[s0, S0, s1, S1, ..., s0]`` (faces, alternating up/down steps).
    """

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__(f"acyclicity violated, witness V-cycle of length {len(self.witness) - 1}")


class NotFreeAtStepError(TightMorseError):
    """A collapse sequence pair is not free when its turn comes."""

    def __init__(self, step, pair):
        self.step = step
        self.pair = pair
        super().__init__(f"pair {pair} is not free at step {step}")


class EmptyLinkError(TightMorseError):
    """Cone lift requested over an empty link; mark the apex critical instead."""


class MorseInvariantError(TightMorseError):
    """Internal invariant of a Morse construction failed."""


# ----------------------------------------------------------------- geometry

class DegenerateDirectionError(TightMorseError):
    """The direction is zero (``ties`` empty) or two vertices coincide.

    Height ties between distinct points are not an error: the sweep order
    breaks them symbolically.  ``ties`` lists the coincident vertex pairs.
    """

    def __init__(self, ties):
        self.ties = list(ties)
        super().__init__(f"coincident vertex pairs: {self.ties}" if self.ties else "zero direction")


class ThresholdHitsVertexError(TightMorseError):
    """A halfspace threshold coincides with a vertex height."""


class NotTightError(TightMorseError):
    """The realization failed the tightness precondition."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class InvalidEmbeddingError(TightMorseError):
    """The coordinates do not define a linear embedding."""


# --------------------------------------------------------------- algorithms

class StuckNoFreeEdgeError(TightMorseError):
    """2-faces remain but no edge lies in exactly one triangle (input not planar)."""


class NotAcyclicError(TightMorseError):
    """The complex has nontrivial reduced homology."""


class StuckNoDeletableVertexError(TightMorseError):
    """No vertex has a nonempty tree link; reports the blocking links."""

    def __init__(self, links):
        self.links = dict(links)
        super().__init__("no vertex with a nonempty tree link; blocking links: "
                         + ", ".join(f"{v}: {dims}" for v, dims in sorted(self.links.items())))


class StuckBeforeTargetError(TightMorseError):
    """Relative collapse got stuck before reaching the target subcomplex."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"collapse stuck with {residual.num_faces} faces left, target not reached")


class LinkNotPlanarCollapsibleError(TightMorseError):
    """A lower link in the sweep rejected the planar Morse construction."""

    def __init__(self, vertex, cause):
        self.vertex = vertex
        self.__cause__ = cause
        super().__init__(f"lower link of vertex {vertex} is not planar-collapsible: {cause}")


class PerfectnessAssertionFailedError(TightMorseError):
    """The sweep produced a non-perfect matching on an accepted input."""

    def __init__(self, morse_vector, betti_vector):
        self.morse_vector = morse_vector
        self.betti_vector = betti_vector
        super().__init__(f"sweep output {morse_vector} does not match Betti vector {betti_vector}")


# ------------------------------------------------------------ constructions

class PathTouchesWallError(TightMorseError):
    """A drilling path cube touches a side wall of the box."""


class PathNotTopToBottomError(TightMorseError):
    """A drilling path does not run from the top face to the bottom face."""


class PathSelfIntersectsError(TightMorseError):
    """A drilling path repeats a cube."""


class NotABallError(TightMorseError):
    """The input complex is not a certified 3-ball."""


class FacetNotFoundError(TightMorseError):
    """The face to remove is not a facet of the complex."""


class NotBoundaryTriangleError(TightMorseError):
    """The designated triangle is not on the boundary of the ball."""


class UnknownFixtureError(TightMorseError):
    """No convex fixture with that name."""


# --------------------------------------------------------------------- I/O

class FormatError(TightMorseError):
    """A file does not conform to its declared text format."""
