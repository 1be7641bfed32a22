"""Exception hierarchy for the logaffine package."""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all geometric/combinatorial input errors."""


class DimensionMismatchError(GeometryError):
    """Vectors or objects of incompatible dimensions were combined."""


class NonIntegerEntryError(GeometryError):
    """A lattice operation received a non-integer entry."""


class InvalidFanError(GeometryError):
    """A fan failed validation; carries the violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class UnsupportedDimensionError(GeometryError):
    """The requested operation is not implemented in this dimension."""


class WeldingError(GeometryError):
    """Base class for welding failures."""


class NotMatchedError(WeldingError):
    """A pair of faces is not a matched pair."""


class FaceInUseError(WeldingError):
    """A face already participates in another weld.

    Attributes:
        face: the face asked for a second time.
        holder: the welded pair that already holds it.
    """

    def __init__(self, message: str, face, holder):
        super().__init__(message)
        self.face = face
        self.holder = holder


class GloballyObstructedError(WeldingError):
    """Transitive welding closure hit an obstructed coerced pair.

    Attributes:
        original: the pair whose closure failed.
        offending: the (possibly coerced) pair that is obstructed.
        witnesses: existing welds witnessing the obstruction.
    """

    def __init__(self, message: str, original, offending, witnesses):
        super().__init__(message)
        self.original = original
        self.offending = offending
        self.witnesses = tuple(witnesses)


class PolytopeError(GeometryError):
    """Base class for polytope validation failures."""


class ContinuationError(PolytopeError):
    """Constraint data is inconsistent across a welded edge."""


class TransversalityError(PolytopeError):
    """A face runs into a crossing point of the divisor."""


class DegenerateVertexError(PolytopeError):
    """More than two faces pass through one point."""


class SingularFaceError(PolytopeError):
    """The operation requires a polytope without singular faces."""


class NonOrientableError(PolytopeError):
    """The operation requires an orientable space."""


class NonCompactError(PolytopeError):
    """The operation requires a compact polytope."""


class DelzantError(PolytopeError):
    """The smoothness (lattice saturation) criterion failed."""


class SpecFileError(Exception):
    """A workspace file failed to parse; carries path and line number."""

    def __init__(self, path, line: int | None, message: str):
        location = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{location}: {message}")
        self.path = path
        self.line = line
        self.reason = message
