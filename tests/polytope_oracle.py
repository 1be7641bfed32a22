"""Checks of a built polytope by routes independent of the build.

``check_face_lemmas`` pairs each nonsingular face's covector with the
edge residues the face lemmas constrain.  ``is_compact_2d`` decides
compactness of a polytope in a single domain by covering the circle of
directions, not by the recession test of the build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from logaffine.errors import GeometryError, UnsupportedDimensionError
from logaffine.polytopes import _circle_samples, _support_contains
from logaffine.rational import dot


@dataclass(frozen=True)
class FaceLemmaCheck:
    """One evaluation of a covector against an edge residue."""

    face: str
    member: tuple[int, str]
    edge_label: str
    relation: str  # "zero" | "negative"
    value: Fraction
    ok: bool


@dataclass(frozen=True)
class FaceLemmaReport:
    """All residue pairings of nonsingular faces, with violations."""

    ok: bool
    checks: tuple[FaceLemmaCheck, ...]
    violations: tuple[FaceLemmaCheck, ...]


def check_face_lemmas(p) -> FaceLemmaReport:
    """Pair every nonsingular face with the edge residues it must
    annihilate (edges it lands on) or be negative on (edges meeting the
    polytope but not the face; checked for elementary polytopes only).

    Covectors are read from the spec, so a doctored spec yields
    violations rather than errors.
    """
    checks: list[FaceLemmaCheck] = []
    landed_edges = {
        (s.ref, p.vertex(vid).edge_label)
        for s in p.segments
        for vid in (s.lower_vertex, s.upper_vertex)
        if vid is not None and p.vertex(vid).kind == "landing"
    }
    traced = [(t.edge_label, t.residue, t.sides) for t in p.traces]
    for face in p.nonsingular_faces:
        for ref in face.members:
            a = p.spec.constraint(ref).linear
            for edge_label, residue, _ in traced:
                if (ref, edge_label) in landed_edges:
                    value = dot(a, residue)
                    checks.append(
                        FaceLemmaCheck(
                            face.label, ref, edge_label, "zero", value, value == 0
                        )
                    )
    if p.elementary:
        only = p.feasible[0]
        for face in p.nonsingular_faces:
            for ref in face.members:
                if ref[0] != only:
                    continue
                a = p.spec.constraint(ref).linear
                for edge_label, residue, sides in traced:
                    if only not in sides or (ref, edge_label) in landed_edges:
                        continue
                    value = dot(a, residue)
                    checks.append(
                        FaceLemmaCheck(
                            face.label, ref, edge_label, "negative", value, value < 0
                        )
                    )
    violations = tuple(c for c in checks if not c.ok)
    return FaceLemmaReport(not violations, tuple(checks), violations)


def is_compact_2d(p) -> bool:
    """Direction-coverage criterion for an elementary polytope in a
    single tropical domain: the fan's cones and the open half-planes
    ``a.x > 0`` of the constraint covectors must cover every direction,
    and those half-planes must miss every ray of a cone.

    A direction ``s`` on which every covector is at most zero makes
    ``-s`` a recession direction of the region, and is uncovered unless
    the fan holds ``s``; so a strip between two opposite covectors on
    the empty fan is not compact.
    """
    if p.dim != 2:
        raise UnsupportedDimensionError("the coverage criterion is 2-dimensional")
    if len(p.space.spec.domain_items) != 1 or not p.elementary:
        raise GeometryError(
            "the coverage criterion needs an elementary polytope in a "
            "single domain"
        )
    (domain_id, domain), = p.space.spec.domain_items
    fan = domain.fan
    covectors = [g.linear for g in p.spec.domain_constraints(domain_id).values()]
    for cone in fan.cones:
        for i in cone:
            if any(dot(a, fan.vectors[i]) > 0 for a in covectors):
                return False
    for s in _circle_samples(fan, covectors):
        if all(dot(a, s) <= 0 for a in covectors):
            if not _support_contains(fan, s):
                return False
    return True
