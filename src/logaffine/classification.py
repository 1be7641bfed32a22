"""Classification data: torus bundles, obstruction status, moduli
dimensions, cut reports and invariant records.

A compact welded surface together with a log affine polytope and a
principal torus bundle determines a manifold up to the choices recorded
here.  This module computes the discrete side of that dictionary: when
the bundle lifting obstruction vanishes, how large the space of
compatible structures is, what the cut construction produces stratum by
stratum, and when two sets of invariants describe the same geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DelzantError,
    DimensionMismatchError,
    GeometryError,
    ObstructionUnknownError,
    UnsupportedDimensionError,
)
from .polytopes import LogPolytope, delzant_check, polytope_moduli
from .rational import Vector, cross2, dot, is_zero, primitive, rank, rot90, vec_scale
from .topology import betti_numbers, log_cohomology_dims
from .welding import WeldedSpace

__all__ = [
    "LogBundle",
    "make_bundle",
    "ObstructionStatus",
    "obstruction_vanishes",
    "moduli_dimension",
    "effective_moduli_dimension",
    "StratumEntry",
    "CutReport",
    "cut_report",
    "PolytopeShape",
    "InvariantRecord",
    "make_invariant_record",
    "records_equivalent",
]


# ------------------------------------------------------------------ bundles


@dataclass(frozen=True)
class LogBundle:
    """A principal torus bundle given by its rank and Chern vectors.

    ``chern`` holds one rational vector per circle factor; entries are
    coordinates in the degree-2 cohomology of the base.
    """

    rank: int
    chern: tuple[tuple[Fraction, ...], ...]


def make_bundle(rank: int, chern) -> LogBundle:
    if rank < 1:
        raise GeometryError(f"bundle rank must be positive, got {rank}")
    vectors = tuple(tuple(Fraction(c) for c in vec) for vec in chern)
    if len(vectors) != rank:
        raise GeometryError(
            f"expected {rank} Chern vectors, got {len(vectors)}"
        )
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise GeometryError(f"Chern vectors of mixed lengths {sorted(lengths)}")
    return LogBundle(rank=rank, chern=vectors)


def _base_degree2_rank(space: WeldedSpace) -> int:
    b = betti_numbers(space)
    return b[2] if len(b) > 2 else 0


def _check_bundle_base(space: WeldedSpace, bundle: LogBundle) -> None:
    expected = _base_degree2_rank(space)
    for index, vec in enumerate(bundle.chern, start=1):
        if len(vec) != expected:
            raise DimensionMismatchError(
                f"Chern vector {index} has length {len(vec)}, but the base "
                f"has degree-2 cohomology of rank {expected}"
            )


# -------------------------------------------------------------- obstruction


@dataclass(frozen=True)
class ObstructionStatus:
    """Whether the lifting obstruction of a bundle vanishes.

    ``vanishes`` is True when vanishing is established and None when the
    computation is out of scope; it is never a definite False.
    """

    vanishes: bool | None
    reason: str

    def __bool__(self) -> bool:
        return self.vanishes is True


def obstruction_vanishes(space: WeldedSpace, bundle: LogBundle) -> ObstructionStatus:
    """Decide vanishing of the bundle lifting obstruction when possible.

    The obstruction lives in degree-3 logarithmic cohomology, which is
    computed (and always zero) on surfaces; a bundle with zero Chern
    vectors has zero obstruction in any dimension.  Other cases report
    an indeterminate outcome rather than attempting the pairing.
    """
    if space.dim <= 2:
        dims = log_cohomology_dims(space)
        degree3 = dims[3] if len(dims) > 3 else 0
        if degree3 == 0:
            return ObstructionStatus(True, "target group vanishes")
    if all(is_zero(v) for v in bundle.chern):
        return ObstructionStatus(True, "trivial bundle")
    return ObstructionStatus(
        None,
        f"obstruction pairing is not computed in dimension {space.dim}",
    )


# ------------------------------------------------------------------- moduli


def moduli_dimension(subject: WeldedSpace | LogPolytope) -> int:
    """Dimension of the space of compatible structures on the subject.

    For a welded space this is the degree-2 logarithmic cohomology
    dimension; for a polytope it is the matching count of independent
    deformations supported on the polytope.
    """
    if isinstance(subject, LogPolytope):
        return polytope_moduli(subject)
    if isinstance(subject, WeldedSpace):
        return log_cohomology_dims(subject)[2]
    raise GeometryError(
        f"expected a welded space or a polytope, got {type(subject).__name__}"
    )


def effective_moduli_dimension(space: WeldedSpace, bundle: LogBundle) -> int:
    """Moduli dimension after dividing out translation symmetries.

    Translating the torus fibers moves a structure by the span of the
    Chern vectors inside degree-2 cohomology, so the quotient drops the
    rational rank of the Chern family.
    """
    if not isinstance(space, WeldedSpace):
        raise GeometryError(
            f"expected a welded space, got {type(space).__name__}"
        )
    _check_bundle_base(space, bundle)
    return moduli_dimension(space) - rank(bundle.chern)


# -------------------------------------------------------------- cut reports


@dataclass(frozen=True)
class StratumEntry:
    """One stratum of the cut manifold over a polytope piece.

    ``dim`` is the dimension of the piece inside the polytope and
    ``fiber_rank`` the rank of the torus fiber over its points.
    """

    label: str
    kind: str
    dim: int
    fiber_rank: int


@dataclass(frozen=True)
class CutReport:
    """Stratification summary of the manifold cut along nonsingular faces."""

    strata: tuple[StratumEntry, ...]
    euler: int
    fixed_points: int
    divisor_image: tuple[str, ...]
    moduli_dim: int
    smooth_closed: bool


def cut_report(p: LogPolytope, bundle: LogBundle) -> CutReport:
    """Stratify the manifold obtained by cutting along nonsingular faces.

    Requires the lattice criterion to hold and the bundle obstruction
    to vanish.  Over a point of the polytope the fiber is a torus whose
    rank drops by one for every nonsingular face through the point; the
    Euler characteristic of the cut is carried entirely by the rank-zero
    point strata.
    """
    if bundle.rank != p.dim:
        raise DimensionMismatchError(
            f"bundle rank {bundle.rank} does not match the torus rank {p.dim}"
        )
    _check_bundle_base(p.space, bundle)
    status = obstruction_vanishes(p.space, bundle)
    if status.vanishes is not True:
        raise ObstructionUnknownError(status.reason)
    lattice = delzant_check(p)
    if not lattice:
        vertex_id, rows = lattice.witnesses[0]
        raise DelzantError(
            f"lattice criterion fails at {vertex_id} with rows {rows}"
        )

    n = bundle.rank
    entries = [StratumEntry("interior", "top", p.dim, n)]
    for face in p.nonsingular_faces:
        entries.append(StratumEntry(face.label, face.kind, p.dim - 1, n - 1))
    for vertex in p.vertices:
        met = set(vertex.faces)
        if len(met) >= 2:
            entries.append(
                StratumEntry(vertex.vertex_id, "vertex", 0, n - len(met))
            )

    fixed = sum(1 for e in entries if e.dim == 0 and e.fiber_rank == 0)
    divisor = tuple(f.label for f in p.singular_faces) + tuple(
        t.label for t in p.trace_components
    )
    moduli = polytope_moduli(p) if p.dim == 2 else 0
    return CutReport(
        strata=tuple(entries),
        euler=fixed,
        fixed_points=fixed,
        divisor_image=divisor,
        moduli_dim=moduli,
        smooth_closed=p.compact and not p.singular_faces,
    )


# -------------------------------------------------------- invariant records


@dataclass(frozen=True)
class PolytopeShape:
    """The discrete content of a polytope: welding combinatorics plus
    ray vectors, constraint covectors and constants.

    ``domains`` holds ``(id, ray labels, ray vectors, cones)`` per
    domain; cones are sorted index tuples.  Two shapes describe the same
    polytope when they agree up to one lattice automorphism applied to
    every ray vector (and dually to every covector) at once.
    """

    dim: int
    domains: tuple[
        tuple[int, tuple[str, ...], tuple[Vector, ...], tuple[tuple[int, ...], ...]],
        ...,
    ]
    pairs: tuple[tuple[str | None, tuple[tuple[int, str], tuple[int, str]]], ...]
    constraints: tuple[tuple[tuple[int, str], Vector, Fraction], ...]
    groups: tuple[tuple[str, tuple[tuple[int, str], ...]], ...]
    orientation: int

    def skeleton(self):
        """Everything a lattice automorphism leaves untouched."""
        return (
            self.dim,
            tuple((i, labels, cones) for i, labels, _, cones in self.domains),
            self.pairs,
            tuple((ref, constant) for ref, _, constant in self.constraints),
            self.groups,
            self.orientation,
        )

    def ray_vectors(self) -> tuple[Vector, ...]:
        return tuple(
            vec for _, _, vectors, _ in self.domains for vec in vectors
        )

    def covectors(self) -> tuple[Vector, ...]:
        return tuple(linear for _, linear, _ in self.constraints)


@dataclass(frozen=True)
class InvariantRecord:
    """The discrete invariants of a compact structure: the polytope
    shape, the ordered tuple of Chern vectors and the moduli dimension.
    """

    polytope: PolytopeShape
    chern: LogBundle
    moduli_dim: int


def _polytope_shape(p: LogPolytope) -> PolytopeShape:
    welding = p.spec.welding
    domains = []
    for domain_id, dom in welding.domain_items:
        fan = dom.fan
        cones = tuple(sorted(tuple(sorted(c)) for c in fan.cones))
        domains.append((domain_id, fan.labels, fan.vectors, cones))
    pairs = tuple(
        (pair.label, tuple(sorted(pair.faces()))) for pair in welding.pairs
    )
    constraints = tuple(
        sorted((ref, f.linear, f.constant) for ref, f in p.spec.constraints)
    )
    groups = tuple(
        sorted((name, tuple(sorted(members))) for name, members in p.spec.groups)
    )
    return PolytopeShape(
        dim=p.dim,
        domains=tuple(domains),
        pairs=pairs,
        constraints=constraints,
        groups=groups,
        orientation=p.spec.orientation,
    )


def make_invariant_record(p: LogPolytope, bundle: LogBundle) -> InvariantRecord:
    """Assemble the invariant record of a compact polytope and bundle."""
    if bundle.rank != p.dim:
        raise DimensionMismatchError(
            f"bundle rank {bundle.rank} does not match the torus rank {p.dim}"
        )
    _check_bundle_base(p.space, bundle)
    return InvariantRecord(
        polytope=_polytope_shape(p),
        chern=bundle,
        moduli_dim=polytope_moduli(p) if p.dim == 2 else 0,
    )


def _lattice_columns(record: InvariantRecord, det: int) -> list[Vector]:
    """The vectors one lattice automorphism T moves together: the ray
    vectors, the Chern columns and the covectors.

    In the plane T^{-T} = J T J^{-1} / det T for the quarter turn J, so
    a covector turned by J moves by T up to the sign det T, which is
    folded in here; on a line T = T^{-T} and nothing is turned.
    """
    shape, chern = record.polytope, record.chern.chern
    columns = list(shape.ray_vectors())
    if record.chern.rank == shape.dim:
        columns += zip(*chern)
    if shape.dim == 2:
        return columns + [vec_scale(det, rot90(c)) for c in shape.covectors()]
    return columns + list(shape.covectors())


def _along_one_line(columns: list[Vector]) -> tuple[Fraction, ...] | None:
    """The coefficients of every column along the primitive vector of
    the first nonzero one, or None when the columns span the plane."""
    line = next((primitive(c) for c in columns if not is_zero(c)), None)
    if line is None:
        return (Fraction(0),) * len(columns)
    coefficients = tuple(dot(c, line) / dot(line, line) for c in columns)
    if any(vec_scale(t, line) != c for t, c in zip(coefficients, columns)):
        return None
    return coefficients


def _moved_by_unimodular(source: list[Vector], target: list[Vector], det: int) -> bool:
    """Whether an integer T with det T = det sends every source column
    to its target, given source columns that span the plane: the first
    independent pair u, v forces T = [a b] [u v]^{-1}."""
    i = next(k for k, c in enumerate(source) if not is_zero(c))
    j = next(k for k, c in enumerate(source) if cross2(source[i], c))
    (u, v), (a, b) = (source[i], source[j]), (target[i], target[j])
    d = cross2(u, v)
    if cross2(a, b) != det * d:
        return False
    e0 = tuple((v[1] * x - u[1] * y) / d for x, y in zip(a, b))
    e1 = tuple((u[0] * y - v[0] * x) / d for x, y in zip(a, b))
    if any(t.denominator != 1 for t in e0 + e1):
        return False
    return all(
        tuple(w[0] * x + w[1] * y for x, y in zip(e0, e1)) == t
        for w, t in zip(source, target)
    )


def records_equivalent(first: InvariantRecord, second: InvariantRecord) -> bool:
    """Whether two invariant records describe the same structure.

    True when the combinatorial skeletons coincide, the moduli
    dimensions agree, and one lattice automorphism carries every ray
    vector, constraint covector and Chern vector of the second record
    onto the first; Chern vectors are compared entry by entry in their
    given order, not merely by span.

    Exact in dimension at most 2, split on the rank of the second
    record's data: data spanning the plane forces T, and data on one
    line leaves the second basis vector free, so that either sign of
    det T is reachable.  Higher dimensions raise
    ``UnsupportedDimensionError``.
    """
    if first.moduli_dim != second.moduli_dim:
        return False
    if first.chern.rank != second.chern.rank:
        return False
    if {len(v) for v in first.chern.chern} != {len(v) for v in second.chern.chern}:
        return False
    if first.polytope.skeleton() != second.polytope.skeleton():
        return False
    n = first.polytope.dim
    if n > 2:
        raise UnsupportedDimensionError(
            f"record equivalence is decided in dimension at most 2, not {n}"
        )
    if first.chern.rank != n and first.chern != second.chern:
        return False
    source = _lattice_columns(second, 1)
    coefficients = _along_one_line(source)
    for det in (1, -1) if n == 2 else (1,):
        target = _lattice_columns(first, det)
        if coefficients is None:
            if _moved_by_unimodular(source, target, det):
                return True
        elif _along_one_line(target) == coefficients:
            return True
    return False
