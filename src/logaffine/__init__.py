"""Combinatorial models of log affine surfaces.

The package validates rational fans, its tropical domains, welds them
into surfaces with normal-crossing divisors, computes logarithmic
cohomology dimensions, validates convex polytopes carried by the
welded surfaces (compactness, lattice smoothness, principal-value
volumes), and assembles the invariant records used to compare the
resulting classification data.

``import logaffine`` loads no module of the package: each exported
name imports the module that defines it the first time it is read.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "classification": (
        "CutReport",
        "InvariantRecord",
        "LogBundle",
        "ObstructionStatus",
        "StratumEntry",
        "cut_report",
        "make_bundle",
        "make_invariant_record",
        "obstruction_vanishes",
        "records_equivalent",
    ),
    "errors": (
        "ContinuationError",
        "DegenerateVertexError",
        "DelzantError",
        "DimensionMismatchError",
        "FaceInUseError",
        "GeometryError",
        "GloballyObstructedError",
        "InvalidFanError",
        "NonCompactError",
        "NonIntegerEntryError",
        "NonOrientableError",
        "NotMatchedError",
        "PolytopeError",
        "SingularFaceError",
        "SpecFileError",
        "TransversalityError",
        "UnsupportedDimensionError",
        "WeldingError",
    ),
    "fans": ("Fan", "FanReport", "is_complete", "make_fan", "star", "validate_fan"),
    "fileio": (
        "PolytopeFile",
        "WeldingFile",
        "load_workspace_file",
        "parse_bundle_file",
        "parse_fan_file",
        "parse_polytope_file",
        "parse_welding_file",
        "serialize_bundle",
        "serialize_fan",
        "serialize_polytope",
        "serialize_record",
        "serialize_welding",
        "sniff_kind",
    ),
    "polytopes": (
        "DelzantResult",
        "LogPolytope",
        "PolytopeSpec",
        "build_polytope",
        "delzant_check",
        "make_polytope_spec",
        "polytope_moduli",
        "polytope_topology",
        "regularized_volume",
    ),
    "rational": ("AffineFunctional", "vector"),
    "render": ("render_fan", "render_polytope", "render_welding"),
    "topology": (
        "CellComplex",
        "betti_numbers",
        "cell_complex",
        "classify_closed_surface",
        "divisor_topology",
        "euler_characteristic",
        "log_cohomology_dims",
    ),
    "welding": (
        "MatchedPair",
        "WeldedSpace",
        "WeldingSpec",
        "build_welded_space",
        "coerced_pairs",
        "is_locally_obstructed",
        "is_matched_pair",
        "make_welding_spec",
        "weld_pair",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that exports ``name``, keep the value as a
    package attribute so that this runs once per name, and return it."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _OWNER.keys())
