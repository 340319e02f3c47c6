"""tightmorse: discrete Morse theory, exact mod-2 homology, and tightness
verification for geometrically realized simplicial complexes."""

__version__ = "0.1.0"

from .complex_core import (
    SimplicialComplex,
    barycentric_subdivision,
    boundary_complex,
    cone,
    deletion,
    free_faces,
    from_facets,
    join,
    link,
    restrict,
    star,
    suspension,
)
from .homology_z2 import BettiVector, betti, boundary_matrix, inclusion_induced_injective
from .morse import (
    MorseMatching,
    MorseVector,
    critical_faces,
    from_collapse_sequence,
    is_perfect,
    lift_matching_over_cone,
    morse_vector,
    random_discrete_morse,
    validate,
)
from .geometry import (
    GeometricRealization,
    check_tightness_sampled,
    is_pi_tight,
    is_prefix_tight,
    sweep_order,
    upper_subcomplex,
    verify_lemma_betti_recursion,
)
from .algorithms import (
    CollapseSequence,
    NonEvasivenessCertificate,
    collapsible,
    nonevasive,
    planar_acyclic_nonevasive,
    planar_perfect_morse,
    relative_collapse,
    sweep_perfect_morse,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
