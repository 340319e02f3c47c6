"""tightmorse: discrete Morse theory, exact mod-2 homology, and tightness
verification for geometrically realized simplicial complexes.

The package-level names below are resolved lazily (PEP 562): importing
``tightmorse`` loads no submodule, and ``tightmorse.betti`` imports
``homology_z2`` on first use.  Each access looks the name up in its module
again instead of caching it here, so a later rebinding of the module
attribute (a tracing wrapper, a test double) is always what callers see.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the names it exports at package level
_EXPORTS = {
    "complex_core": (
        "SimplicialComplex",
        "barycentric_subdivision",
        "boundary_complex",
        "cone",
        "deletion",
        "free_faces",
        "from_facets",
        "join",
        "link",
        "restrict",
        "star",
        "suspension",
    ),
    "homology_z2": ("betti", "inclusion_induced_injective"),
    "morse": (
        "MorseMatching",
        "critical_faces",
        "from_collapse_sequence",
        "is_perfect",
        "lift_matching_over_cone",
        "morse_vector",
        "random_discrete_morse",
        "validate",
    ),
    "geometry": (
        "GeometricRealization",
        "check_tightness_sampled",
        "is_pi_tight",
        "is_prefix_tight",
        "sweep_order",
    ),
    "algorithms": (
        "CollapseSequence",
        "NonEvasivenessCertificate",
        "collapsible",
        "nonevasive",
        "planar_acyclic_nonevasive",
        "planar_perfect_morse",
        "relative_collapse",
        "sweep_perfect_morse",
        "verify_certificate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules above and errors were bound here when every name was
# imported eagerly, so they stay package-level names
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
