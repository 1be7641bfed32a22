"""Classification data: torus bundles, obstruction status, cut reports
and invariant records.

A compact welded surface together with a log affine polytope and a
principal torus bundle determines a manifold up to the choices recorded
here.  This module computes the discrete side of that dictionary: when
the bundle lifting obstruction vanishes, how large the space of
compatible structures is, what the cut construction produces stratum by
stratum, and when two sets of invariants describe the same geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DelzantError,
    DimensionMismatchError,
    GeometryError,
    NonCompactError,
    UnsupportedDimensionError,
)
from .polytopes import LogPolytope, delzant_check, polytope_moduli
from .rational import Vector, is_zero
from .topology import betti_numbers
from .welding import WeldedSpace


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


def _check_bundle(p: LogPolytope, bundle: LogBundle) -> None:
    """The bundle has one circle factor per polytope dimension and one
    Chern entry per degree-2 class of the base."""
    if bundle.rank != p.dim:
        raise DimensionMismatchError(
            f"bundle rank {bundle.rank} does not match the torus rank {p.dim}"
        )
    b = betti_numbers(p.space)
    expected = b[2] if len(b) > 2 else 0
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

    The obstruction lives in degree-3 logarithmic cohomology, absent or
    a literal 0 in ``log_cohomology_dims`` up to dimension 2; a bundle
    with zero Chern vectors has zero obstruction in any dimension.  Other
    cases report an indeterminate outcome rather than the pairing.
    """
    if space.dim <= 2:
        return ObstructionStatus(True, "target group vanishes")
    if all(is_zero(v) for v in bundle.chern):
        return ObstructionStatus(True, "trivial bundle")
    return ObstructionStatus(
        None,
        f"obstruction pairing is not computed in dimension {space.dim}",
    )


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

    Requires the lattice criterion to hold.  Over a point of the
    polytope the fiber is a torus whose rank drops by one for every
    nonsingular face through the point; the Euler characteristic of the
    cut is carried entirely by the rank-zero point strata.
    """
    _check_bundle(p, bundle)
    if not p.compact:
        raise NonCompactError("the polytope is not compact")
    # the bundle obstruction (``obstruction_vanishes``) vanishes here:
    # ``build_polytope`` refuses dimensions above 2, where the degree 3
    # of ``log_cohomology_dims`` that holds it is absent or a literal 0
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
    for domain_id, fan in welding.domain_items:
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
    _check_bundle(p, bundle)
    if not p.compact:
        raise NonCompactError("the polytope is not compact")
    return InvariantRecord(
        polytope=_polytope_shape(p),
        chern=bundle,
        moduli_dim=polytope_moduli(p) if p.dim == 2 else 0,
    )


def _lattice_columns(record: InvariantRecord, det: int, scale: int) -> list[tuple[int, ...]]:
    """The vectors one lattice automorphism T moves together, times
    ``scale``, a multiple of their denominators, as ints: the ray
    vectors, the Chern columns and the covectors.

    In the plane T^{-T} = J T J^{-1} / det T for the quarter turn J, so
    a covector turned by J moves by T up to the sign det T, which is
    folded in here; on a line T = T^{-T} and nothing is turned.
    """
    shape, chern = record.polytope, record.chern.chern
    columns = list(shape.ray_vectors())
    if record.chern.rank == shape.dim:
        columns += zip(*chern)
    columns += shape.covectors()
    ints = [tuple(x.numerator * (scale // x.denominator) for x in c) for c in columns]
    if shape.dim == 2:
        k = len(columns) - len(shape.constraints)
        ints[k:] = [(-det * y, det * x) for x, y in ints[k:]]
    return ints


def _along_one_line(columns: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The integer coefficients of every int column along the primitive
    vector of the first nonzero one, or None when they span the plane."""
    line = next((c for c in columns if any(c)), None)
    if line is None:
        return (0,) * len(columns)
    g = math.gcd(*line)
    line = tuple(x // g for x in line)
    k = next(i for i, x in enumerate(line) if x)
    coefficients = tuple(c[k] // line[k] for c in columns)
    if any(tuple(t * x for x in line) != c for t, c in zip(coefficients, columns)):
        return None
    return coefficients


def _moved_by_unimodular(source: list, target: list, det: int) -> bool:
    """Whether an integer T with det T = det sends every int source column
    to its target, given source columns that span the plane: the first
    independent pair u, v forces T = [a b] [u v]^{-1}."""
    i = next(k for k, c in enumerate(source) if any(c))
    u = source[i]
    j = next(k for k, c in enumerate(source) if u[0] * c[1] - u[1] * c[0])
    v, a, b = source[j], target[i], target[j]
    d = u[0] * v[1] - u[1] * v[0]
    if a[0] * b[1] - a[1] * b[0] != det * d:
        return False
    # T e0 = (v1 a - u1 b) / d and T e1 = (u0 b - v0 a) / d, floored: a
    # floored T that carries u and v onto a and b is T, so T is integral
    t00, t10 = ((v[1] * x - u[1] * y) // d for x, y in zip(a, b))
    t01, t11 = ((u[0] * y - v[0] * x) // d for x, y in zip(a, b))
    return all(
        (t00 * w0 + t01 * w1, t10 * w0 + t11 * w1) == t
        for (w0, w1), t in zip(source, target)
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
    # T carries c onto t exactly when it carries s c onto s t: s clears
    # every denominator of both records
    vectors = [v for r in (first, second) for v in r.polytope.ray_vectors() + r.chern.chern]
    vectors += first.polytope.covectors() + second.polytope.covectors()
    scale = math.lcm(*[x.denominator for v in vectors for x in v])
    source = _lattice_columns(second, 1, scale)
    coefficients = _along_one_line(source)
    for det in (1, -1) if n == 2 else (1,):
        target = _lattice_columns(first, det, scale)
        if coefficients is None:
            if _moved_by_unimodular(source, target, det):
                return True
        elif _along_one_line(target) == coefficients:
            return True
    return False
