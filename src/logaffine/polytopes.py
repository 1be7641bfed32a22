"""Log affine polytopes: regions of a welded space cut out by
affine-linear constraints, their face structure, compactness and
lattice (Delzant) checks, and regularized volume.

A polytope is described per domain by constraints ``a(u) + c >= 0``
with primitive integer covector ``a``.  Faces continue across welded
edges; continuation groups are declared in the input and validated
against the forced geometry.

Every question about a domain's region is answered by clipping one
line by its half-planes (``_clip``): feasibility, face segments, edge
traces and clipped areas.  A region with at least one constraint is
nonempty exactly when some constraint line meets it, and has interior
exactly when some constraint line meets it in more than a point while
no constraint of the opposite sign vanishes along that line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, zip_longest
from typing import Iterable, Mapping

from .errors import (
    ContinuationError,
    DegenerateVertexError,
    GeometryError,
    NonCompactError,
    NonIntegerEntryError,
    NonOrientableError,
    SingularFaceError,
    TransversalityError,
    UnsupportedDimensionError,
)
from .fans import Fan, _direction_cmp
from .rational import (
    AffineFunctional,
    Vector,
    cone_contains,
    cross2,
    dot,
    is_saturated_lattice_basis,
    primitive,
    rot90,
    vec_add,
    vec_neg,
    vec_scale,
)
from .welding import UnionFind, WeldedSpace, WeldingSpec, two_colour

ConstraintRef = tuple[int, str]


@dataclass(frozen=True)
class PolytopeSpec:
    """Constraints per domain over a welding, with continuation groups.

    ``constraints`` maps ``(domain id, name)`` to the affine functional
    whose non-negativity locus bounds the region in that domain.
    ``groups`` name the declared continuations of a single face across
    welded edges.  ``orientation`` (+1/-1) fixes the sign of volumes.
    """

    welding: WeldingSpec
    constraints: tuple[tuple[ConstraintRef, AffineFunctional], ...]
    groups: tuple[tuple[str, tuple[ConstraintRef, ...]], ...]
    orientation: int = 1

    def constraint(self, ref: ConstraintRef) -> AffineFunctional:
        for r, f in self.constraints:
            if r == ref:
                return f
        raise KeyError(f"no constraint {ref[0]}.{ref[1]}")

    def domain_constraints(self, domain_id: int) -> dict[str, AffineFunctional]:
        return {r[1]: f for r, f in self.constraints if r[0] == domain_id}


def _validate_covector(ref: ConstraintRef, functional: AffineFunctional) -> None:
    entries = []
    for x in functional.linear:
        frac = Fraction(x)
        if frac.denominator != 1:
            raise NonIntegerEntryError(
                f"constraint {ref[0]}.{ref[1]} has non-integer covector entry {x}"
            )
        entries.append(frac.numerator)
    if not any(entries):
        raise GeometryError(f"constraint {ref[0]}.{ref[1]} has a zero covector")
    if math.gcd(*(abs(e) for e in entries)) != 1:
        raise GeometryError(
            f"constraint {ref[0]}.{ref[1]} has a non-primitive covector "
            f"{tuple(entries)}"
        )


def make_polytope_spec(
    welding: WeldingSpec,
    constraints,
    groups=(),
    orientation: int = 1,
) -> PolytopeSpec:
    """Validate references and assemble a polytope specification."""
    if orientation not in (1, -1):
        raise GeometryError(f"orientation must be +1 or -1, got {orientation}")
    seen: set[ConstraintRef] = set()
    items: list[tuple[ConstraintRef, AffineFunctional]] = []
    for ref, functional in constraints:
        ref = (ref[0], ref[1])
        if ref in seen:
            raise GeometryError(f"duplicate constraint {ref[0]}.{ref[1]}")
        seen.add(ref)
        if ref[0] not in welding.domain_ids:
            raise GeometryError(
                f"constraint {ref[0]}.{ref[1]} references unknown domain {ref[0]}"
            )
        if len(functional.linear) != welding.dim:
            raise GeometryError(
                f"constraint {ref[0]}.{ref[1]} has covector of length "
                f"{len(functional.linear)}, expected {welding.dim}"
            )
        _validate_covector(ref, functional)
        items.append((ref, functional))
    grouped: set[ConstraintRef] = set()
    group_items: list[tuple[str, tuple[ConstraintRef, ...]]] = []
    names: set[str] = set()
    for name, members in groups:
        if name in names:
            raise GeometryError(f"duplicate group {name!r}")
        names.add(name)
        member_refs = tuple((m[0], m[1]) for m in members)
        for ref in member_refs:
            if ref not in seen:
                raise GeometryError(
                    f"group {name!r} references unknown constraint {ref[0]}.{ref[1]}"
                )
            if ref in grouped:
                raise GeometryError(
                    f"constraint {ref[0]}.{ref[1]} appears in more than one group"
                )
            grouped.add(ref)
        group_items.append((name, member_refs))
    return PolytopeSpec(
        welding=welding,
        constraints=tuple(items),
        groups=tuple(group_items),
        orientation=orientation,
    )


# ------------------------------------------------------------ structure


@dataclass(frozen=True)
class EdgeTrace:
    """The polytope's closure on one codimension-1 stratum.

    The stratum coordinate of a point ``u`` near the edge with residue
    ``v`` is ``rot90(v) . u``.  ``lower``/``upper`` bound the trace in
    that coordinate (``None`` = unbounded; in dimension 1 the trace is
    a single point and both are ``None``).  ``kind`` is ``"singular"``
    when the polytope touches the edge from one side only (the trace
    is then part of the polytope boundary) and ``"divisor"`` when the
    polytope crosses the edge (the trace is an interior divisor arc).
    ``lower_vertex``/``upper_vertex`` are the landing vertices at the
    finite ends.
    """

    edge_label: str
    residue: Vector
    kind: str  # "singular" | "divisor"
    sides: tuple[int, ...]
    lower: Fraction | None
    upper: Fraction | None
    lower_vertex: str | None
    upper_vertex: str | None


@dataclass(frozen=True)
class FaceSegment:
    """One domain's piece of a nonsingular face.

    The segment is ``{base + s * direction : lower <= s <= upper}``
    intersected with the domain region.  An end with a finite bound
    sits at an interior vertex; an unbounded end either lands on an
    edge stratum (a landing vertex) or escapes to an open end of the
    domain, in which case the vertex is ``None``.
    """

    ref: ConstraintRef
    face_label: str
    base: Vector
    direction: Vector
    lower: Fraction | None
    upper: Fraction | None
    lower_vertex: str | None
    upper_vertex: str | None


@dataclass(frozen=True)
class PolytopeVertex:
    """A corner of the induced stratification of the polytope.

    ``kind`` is ``"interior"`` (two faces crossing inside a domain),
    ``"landing"`` (a face meeting an edge stratum; ``edge_label`` and
    ``position`` locate it) or ``"corner"`` (a codimension-2 cluster
    contained in the polytope; ``cluster_id`` names it).  ``faces``
    lists the labels of the nonsingular faces through the vertex.
    """

    vertex_id: str
    kind: str  # "interior" | "landing" | "corner"
    domain_id: int | None
    point: Vector | None
    edge_label: str | None
    position: Fraction | None
    cluster_id: str | None
    faces: tuple[str, ...]


@dataclass(frozen=True)
class PolytopeFace:
    """A classified face of the polytope.

    ``kind`` is ``"singular"`` (contained in the divisor; ``edges``
    lists its edge strata and ``members`` is empty), ``"log"`` (a
    constraint face meeting the divisor; ``edges`` lists the strata it
    lands on) or ``"interior"`` (a constraint face missing the divisor
    entirely).  ``members`` are the constraint references whose zero
    loci assemble the face.  ``closed`` marks faces without endpoints.
    """

    label: str
    kind: str  # "singular" | "log" | "interior"
    members: tuple[ConstraintRef, ...]
    edges: tuple[str, ...]
    closed: bool


@dataclass(frozen=True)
class TraceComponent:
    """A connected union of interior divisor arcs of the polytope."""

    label: str
    edges: tuple[str, ...]
    residue: Vector
    closed: bool


@dataclass(frozen=True)
class LogPolytope:
    """A built log affine polytope with its induced stratification."""

    spec: PolytopeSpec
    space: WeldedSpace
    dim: int
    feasible: tuple[int, ...]
    traces: tuple[EdgeTrace, ...]
    segments: tuple[FaceSegment, ...]
    faces: tuple[PolytopeFace, ...]
    vertices: tuple[PolytopeVertex, ...]
    trace_components: tuple[TraceComponent, ...]
    crossings_inside: tuple[str, ...]
    boundary_corner_meetings: int
    compact: bool
    orientable: bool
    elementary: bool

    @property
    def singular_faces(self) -> tuple[PolytopeFace, ...]:
        return tuple(f for f in self.faces if f.kind == "singular")

    @property
    def log_faces(self) -> tuple[PolytopeFace, ...]:
        return tuple(f for f in self.faces if f.kind == "log")

    @property
    def interior_faces(self) -> tuple[PolytopeFace, ...]:
        return tuple(f for f in self.faces if f.kind == "interior")

    @property
    def nonsingular_faces(self) -> tuple[PolytopeFace, ...]:
        return tuple(f for f in self.faces if f.kind != "singular")

    def face(self, label: str) -> PolytopeFace:
        for f in self.faces:
            if f.label == label:
                return f
        raise KeyError(f"no face {label!r}")

    def vertex(self, vertex_id: str) -> PolytopeVertex:
        for v in self.vertices:
            if v.vertex_id == vertex_id:
                return v
        raise KeyError(f"no vertex {vertex_id!r}")

    def trace(self, edge_label: str) -> EdgeTrace | None:
        for t in self.traces:
            if t.edge_label == edge_label:
                return t
        return None


@dataclass(frozen=True)
class DelzantResult:
    """Outcome of the lattice condition, with the first failing corner."""

    ok: bool
    witnesses: tuple[tuple[str, tuple[Vector, ...]], ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PolytopeTopology:
    """Surface invariants of a compact 2-dimensional polytope."""

    euler: int
    orientable: bool
    genus: int | None
    cross_caps: int | None
    boundary_circles: int
    singular_faces: int
    log_faces: int
    interior_faces: int


@dataclass(frozen=True)
class FaceLemmaCheck:
    """One evaluation of a covector against an edge residue."""

    face: str
    member: ConstraintRef
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


# ------------------------------------------------------ the line clip


@dataclass
class _RawInterval:
    """A line clipped by half-planes: the bounds on its parameter
    (``None`` = unbounded), every constraint attaining each bound, and
    the constraints vanishing along the whole line."""

    lower: Fraction | None
    upper: Fraction | None
    lower_active: list
    upper_active: list
    along: list


def _line_of(fn: AffineFunctional) -> tuple[Vector, Vector]:
    """A point of ``{fn = 0}`` and its direction (zero in dimension 1)."""
    a = fn.linear
    base = vec_scale(-Fraction(fn.constant) / dot(a, a), a)
    return base, rot90(a) if len(a) == 2 else (Fraction(0),)


def _clip(
    base: Vector, direction: Vector, named_fns: Iterable[tuple[object, AffineFunctional]]
) -> _RawInterval | None:
    """Clip the line ``base + s * direction`` by each ``g >= 0`` in turn.

    Returns ``None`` once a constraint parallel to the line is negative
    on it.  Ties at a bound keep every name, in the given order.  The
    line meets the region in more than a point when the bounds leave
    an interval of positive length; the region then has interior iff
    no constraint of the opposite sign is among ``along``.
    """
    lower = upper = None
    lower_active: list = []
    upper_active: list = []
    along: list = []
    for name, g in named_fns:
        coef = dot(g.linear, direction)
        val = dot(g.linear, base) + g.constant
        if coef == 0:
            if val < 0:
                return None
            if val == 0:
                along.append(name)
            continue
        bound = -val / coef
        if coef > 0:
            if lower is None or bound > lower:
                lower, lower_active = bound, [name]
            elif bound == lower:
                lower_active.append(name)
        else:
            if upper is None or bound < upper:
                upper, upper_active = bound, [name]
            elif bound == upper:
                upper_active.append(name)
    return _RawInterval(lower, upper, lower_active, upper_active, along)


def _bounded(raw: _RawInterval) -> bool:
    return raw.lower is not None and raw.upper is not None


# ------------------------------------------------- exact circle sweeps


_AXES: tuple[Vector, ...] = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
)


def _circle_samples(fan: Fan, covectors: list[Vector]) -> list[Vector]:
    """Directions hitting every critical ray (the fan's rays, the
    constraint lines and the four axes, each both ways) and every open
    arc between consecutive criticals."""
    criticals = list(fan.vectors) + [rot90(a) for a in covectors]
    seen: dict[tuple[int, ...], Vector] = {}
    for d in criticals + [vec_neg(d) for d in criticals] + list(_AXES):
        if any(x != 0 for x in d):
            key = primitive(d)
            seen.setdefault(key, tuple(Fraction(x) for x in key))
    dirs = sorted(seen.values(), key=functools.cmp_to_key(_direction_cmp))
    samples = list(dirs)
    for i, d in enumerate(dirs):
        nxt = dirs[(i + 1) % len(dirs)]
        samples.append(vec_add(d, nxt))
    return [s for s in samples if any(x != 0 for x in s)]


def _support_contains(fan: Fan, x: Vector) -> bool:
    for cone in fan.cones:
        gens = [fan.vectors[i] for i in sorted(cone)]
        if len(gens) == 1:
            if cross2(gens[0], x) == 0 and dot(gens[0], x) > 0:
                return True
        elif len(gens) == 2:
            if cone_contains(gens, x):
                return True
    return False


def _support_contains_1d(fan: Fan, x: Vector) -> bool:
    return any(v[0] * x[0] > 0 for v in fan.vectors)


def _domain_compact(
    fan: Fan, covectors: list[Vector], dim: int
) -> bool:
    """Every recession direction of the region must point away from a
    stratum of the fan (the stratum in direction ``d`` sits at ``-d``)."""
    if dim == 1:
        for x in ((Fraction(1),), (Fraction(-1),)):
            if all(dot(a, x) >= 0 for a in covectors):
                if not _support_contains_1d(fan, vec_neg(x)):
                    return False
        return True
    for x in _circle_samples(fan, covectors):
        if all(dot(a, x) >= 0 for a in covectors):
            if not _support_contains(fan, vec_neg(x)):
                return False
    return True


# ----------------------------------------------------- face intervals


def _face_interval(
    ref: ConstraintRef,
    line: tuple[Vector, Vector],
    others: Mapping[str, AffineFunctional],
) -> _RawInterval | None:
    """Parameter interval of the face line (from ``_line_of``) inside
    the domain region, with one constraint at each finite bound.
    Returns ``None`` when the face misses the region."""
    raw = _clip(*line, sorted(others.items()))
    if raw is None:
        return None
    if raw.along:
        raise GeometryError(
            f"constraints {ref[0]}.{ref[1]} and {ref[0]}.{raw.along[0]} "
            "cut along the same line"
        )
    if _bounded(raw):
        if raw.lower > raw.upper:
            return None
        if raw.lower == raw.upper:
            raise DegenerateVertexError(
                f"face {ref[0]}.{ref[1]} degenerates to a single point where "
                f"{', '.join(sorted(set(raw.lower_active + raw.upper_active)))} also vanish"
            )
    for active in (raw.lower_active, raw.upper_active):
        if len(active) > 1:
            raise DegenerateVertexError(
                f"constraints {ref[0]}.{ref[1]}, "
                + ", ".join(f"{ref[0]}.{n}" for n in active)
                + " pass through one point"
            )
    return raw


def _escape(
    domain_id: int,
    fan: Fan,
    direction: Vector,
    edge_of_face: Mapping[tuple[int, str], str],
) -> str | None:
    """Edge label a face line lands on when escaping in ``direction``.

    The escape reaches the stratum whose ray points opposite to the
    direction; escaping into a 2-cone means the face runs into a
    corner, which is rejected.  ``None`` means an open escape (outside
    the fan support).
    """
    target = vec_neg(direction)
    for idx, r in enumerate(fan.vectors):
        if cross2(r, target) == 0 and dot(r, target) > 0:
            return edge_of_face[(domain_id, fan.labels[idx])]
    for cone in fan.two_cones():
        gens = [fan.vectors[i] for i in sorted(cone)]
        if cone_contains(gens, target):
            labels = "{" + ", ".join(fan.labels[i] for i in sorted(cone)) + "}"
            raise TransversalityError(
                f"a face of domain {domain_id} runs into the corner {labels}"
            )
    return None


# ------------------------------------------------------------- traces


def _side_trace(
    residue: Vector, fns: Mapping[str, AffineFunctional]
) -> _RawInterval | None:
    """Interval of the region's closure on the edge with the given
    residue, in the coordinate ``rot90(residue) . u``: the region
    recedes towards the edge (along ``-residue``) unless a constraint
    falls that way, and there only the constraints parallel to the
    residue still bind."""
    if any(dot(g.linear, residue) > 0 for g in fns.values()):
        return None
    rv = rot90(residue)
    raw = _clip(
        (Fraction(0), Fraction(0)),
        vec_scale(1 / dot(rv, rv), rv),
        [(n, g) for n, g in sorted(fns.items()) if dot(g.linear, residue) == 0],
    )
    if _bounded(raw):
        if raw.lower == raw.upper:
            raise DegenerateVertexError(
                "the polytope touches an edge stratum in a single point"
            )
        if raw.lower > raw.upper:
            return None
    return raw


# -------------------------------------------------------- corner tests


def _quadrant_reaches_corner(
    v: Vector, w: Vector, covectors: list[Vector]
) -> bool:
    """Whether the region recedes into the corner through the open
    quadrant spanned by ``v`` and ``w`` (ordered counterclockwise)."""
    candidates = [vec_add(v, w)]
    for a in covectors:
        candidates.append(rot90(a))
        candidates.append(vec_neg(rot90(a)))
    for c in candidates:
        if cross2(v, c) > 0 and cross2(c, w) > 0:
            if all(dot(a, c) <= 0 for a in covectors):
                return True
    return False


# ---------------------------------------------------------- the build


def _check_same_welding(space: WeldedSpace, spec: PolytopeSpec) -> None:
    if spec.welding.dim != space.dim or (
        spec.welding.domain_items != space.spec.domain_items
    ):
        raise GeometryError("the polytope spec refers to a different welding")
    built = {p.key() for p in space.pairs}
    for p in spec.welding.pairs:
        if p.key() not in built:
            raise GeometryError("the polytope spec refers to a different welding")


def build_polytope(space: WeldedSpace, spec: PolytopeSpec) -> LogPolytope:
    """Cut the welded space by the spec's constraints and classify the
    result's faces, vertices and divisor arcs."""
    _check_same_welding(space, spec)
    for ref, fn in spec.constraints:
        _validate_covector(ref, fn)
    if space.dim > 2:
        raise UnsupportedDimensionError(
            f"polytopes are supported in dimensions 1 and 2, not {space.dim}"
        )
    if space.dim == 1:
        return _build_1d(space, spec)
    return _build_2d(space, spec)


def _feasible_domains(space: WeldedSpace, spec: PolytopeSpec) -> list[int]:
    feasible = []
    for d in sorted(space.domain_ids):
        fns = spec.domain_constraints(d)
        met = interior = not fns  # no constraints: the whole domain
        for fn in fns.values():
            raw = _clip(*_line_of(fn), fns.items())
            if raw is None or (_bounded(raw) and raw.lower > raw.upper):
                continue
            met = True
            if (not _bounded(raw) or raw.lower < raw.upper) and all(
                dot(fns[n].linear, fn.linear) > 0 for n in raw.along
            ):
                interior = True
                break
        if met:
            if not interior:
                raise GeometryError(f"the region in domain {d} has an empty interior")
            feasible.append(d)
    if not feasible:
        raise GeometryError("the polytope is empty in every domain")
    return feasible


def _face_labels(spec: PolytopeSpec) -> dict[ConstraintRef, str]:
    labels = {ref: f"{ref[0]}.{ref[1]}" for ref, _ in spec.constraints}
    for name, members in spec.groups:
        for ref in members:
            labels[ref] = name
    return labels


def _crossing_signs(
    space: WeldedSpace, feasible: Iterable[int], traces: Iterable[EdgeTrace]
) -> dict[int, int] | None:
    """Two-colour the feasible domains along the edges the polytope
    actually crosses (its divisor traces)."""
    return two_colour(
        feasible,
        (space.edge(t.edge_label).domain_ids for t in traces if t.kind == "divisor"),
    )


def _build_2d(space: WeldedSpace, spec: PolytopeSpec) -> LogPolytope:
    feasible = _feasible_domains(space, spec)
    feasible_set = set(feasible)
    per_domain = {d: spec.domain_constraints(d) for d in sorted(space.domain_ids)}
    face_label = _face_labels(spec)
    edge_of_face = {f: e.label for e in space.edges for f in e.faces}
    edge_index = {e.label: i for i, e in enumerate(space.edges)}

    # face segments: parameter interval, then escapes at unbounded ends
    lines: dict[ConstraintRef, tuple[Vector, Vector]] = {}
    intervals: dict[ConstraintRef, _RawInterval] = {}
    landings: dict[ConstraintRef, dict[str, tuple[str, Fraction]]] = {}
    for ref, fn in spec.constraints:
        if ref[0] not in feasible_set:
            continue
        others = {n: g for n, g in per_domain[ref[0]].items() if n != ref[1]}
        base, t = lines[ref] = _line_of(fn)
        raw = _face_interval(ref, (base, t), others)
        if raw is None:
            continue
        intervals[ref] = raw
        fan = space.domain(ref[0]).fan
        ends: dict[str, tuple[str, Fraction]] = {}
        for end, bound, direction in (("lower", raw.lower, vec_neg(t)), ("upper", raw.upper, t)):
            if bound is not None:
                continue
            edge_label = _escape(ref[0], fan, direction, edge_of_face)
            if edge_label is not None:
                residue = space.edge(edge_label).residue
                ends[end] = (edge_label, dot(rot90(residue), base))
        landings[ref] = ends

    # edge traces, with the continuation pairs they force
    raw_traces: dict[str, tuple[str, tuple[int, ...], _RawInterval]] = {}
    required_pairs: list[tuple[ConstraintRef, ConstraintRef, str]] = []
    binding_refs: set[ConstraintRef] = set()
    for e in space.edges:
        sides = [
            (face[0], _side_trace(e.residue, per_domain[face[0]]))
            for face in e.faces
        ]
        present = [(d, t) for d, t in sides if t is not None]
        if not present:
            continue
        for d, t in present:
            for names in (t.lower_active, t.upper_active):
                binding_refs.update((d, name) for name in names[:1])
        if len(present) == 1:
            (d, t), kind = present[0], "singular"
        else:
            (d1, t1), (d2, t2) = present
            if (t1.lower, t1.upper) != (t2.lower, t2.upper):
                raise ContinuationError(
                    f"the traces across edge {e.label} disagree: "
                    f"[{t1.lower}, {t1.upper}] from domain {d1} vs "
                    f"[{t2.lower}, {t2.upper}] from domain {d2}"
                )
            d, t, kind = d1, t1, "divisor"
            if t1.lower is not None:
                required_pairs.append(
                    ((d1, t1.lower_active[0]), (d2, t2.lower_active[0]), e.label)
                )
            if t1.upper is not None:
                required_pairs.append(
                    ((d1, t1.upper_active[0]), (d2, t2.upper_active[0]), e.label)
                )
        raw_traces[e.label] = (kind, tuple(di for di, _ in present), t)

    # continuation: forced pairs must be declared, declared groups must
    # be forced together
    group_of = {ref: name for name, members in spec.groups for ref in members}
    union = UnionFind([ref for ref, _ in spec.constraints])
    for r1, r2, edge_label in required_pairs:
        g1, g2 = group_of.get(r1), group_of.get(r2)
        if g1 is None or g1 != g2:
            raise ContinuationError(
                f"constraints {r1[0]}.{r1[1]} and {r2[0]}.{r2[1]} continue "
                f"across edge {edge_label} but are not declared as one face"
            )
        union.union(r1, r2)
    for name, members in spec.groups:
        if len({union.find(ref) for ref in members}) > 1:
            raise ContinuationError(
                f"group {name!r} declares constraints that do not continue "
                "into each other across any edge"
            )

    # faces from constraints
    face_members: dict[str, list[ConstraintRef]] = {}
    for ref, _ in spec.constraints:
        face_members.setdefault(face_label[ref], []).append(ref)
    nonsingular: list[PolytopeFace] = []
    for label, members in face_members.items():
        with_segment = [ref for ref in members if ref in intervals]
        if not with_segment:
            if any(ref in binding_refs for ref in members):
                raise GeometryError(
                    f"face {label!r} lies inside the divisor but is declared "
                    "as a nonsingular face"
                )
            continue
        landed = sorted(
            {edge for ref in with_segment for edge, _ in landings[ref].values()},
            key=lambda lab: edge_index[lab],
        )
        nonsingular.append(
            PolytopeFace(
                label=label,
                kind="log" if landed else "interior",
                members=tuple(sorted(members)),
                edges=tuple(landed),
                closed=False,  # refined below once vertices exist
            )
        )
    nonsingular.sort(key=lambda f: (f.members[0][0], f.members[0][1]))

    # vertices
    interior_keys: dict[tuple[int, Vector], set[str]] = {}
    for ref, raw in intervals.items():
        base, t = lines[ref]
        for bound, active in ((raw.lower, raw.lower_active), (raw.upper, raw.upper_active)):
            if bound is None:
                continue
            point = vec_add(base, vec_scale(bound, t))
            key = (ref[0], point)
            interior_keys.setdefault(key, set()).update(
                {face_label[ref], face_label[(ref[0], active[0])]}
            )
    landing_keys: dict[tuple[str, Fraction], set[str]] = {}
    for ref, ends in landings.items():
        for edge_label, position in ends.values():
            landing_keys.setdefault((edge_label, position), set()).add(face_label[ref])
    for edge_label, (kind, _, t) in raw_traces.items():
        for bound in (t.lower, t.upper):
            if bound is None:
                continue
            if (edge_label, bound) not in landing_keys:
                raise GeometryError(
                    f"no face lands at the endpoint {bound} of the trace on "
                    f"edge {edge_label}"
                )

    # corner clusters contained in the polytope
    cluster_germs: dict[str, list[tuple[str, str, Vector]]] = {}
    for edge_label, (kind, _, t) in raw_traces.items():
        e = space.edge(edge_label)
        if t.lower is None and e.tail is not None:
            cluster_germs.setdefault(e.tail, []).append(
                (edge_label, kind, e.residue)
            )
        if t.upper is None and e.head is not None:
            cluster_germs.setdefault(e.head, []).append(
                (edge_label, kind, e.residue)
            )
    corners_inside: list[str] = []
    for cluster in space.clusters:
        if cluster.cluster_id in cluster_germs:
            corners_inside.append(cluster.cluster_id)
            continue
        reached = False
        for domain_id, corner_labels in cluster.quadrants:
            if domain_id not in feasible_set:
                continue
            fan = space.domain(domain_id).fan
            l1, l2 = sorted(corner_labels)
            v = fan.vectors[fan.index_of_label(l1)]
            w = fan.vectors[fan.index_of_label(l2)]
            if cross2(v, w) < 0:
                v, w = w, v
            covectors = [g.linear for g in per_domain[domain_id].values()]
            if _quadrant_reaches_corner(v, w, covectors):
                reached = True
                break
        if reached:
            corners_inside.append(cluster.cluster_id)

    def _cluster_sort_key(cid: str):
        return (len(cid), cid)

    corners_inside.sort(key=_cluster_sort_key)

    # assign vertex ids
    vertex_ids: dict = {}
    vertices: list[PolytopeVertex] = []

    def _new_vertex(**kw) -> str:
        vid = f"v{len(vertices) + 1}"
        vertices.append(PolytopeVertex(vertex_id=vid, **kw))
        return vid

    for key in sorted(interior_keys):
        domain_id, point = key
        vertex_ids[("interior", key)] = _new_vertex(
            kind="interior",
            domain_id=domain_id,
            point=point,
            edge_label=None,
            position=None,
            cluster_id=None,
            faces=tuple(sorted(interior_keys[key])),
        )
    for key in sorted(landing_keys, key=lambda k: (edge_index[k[0]], k[1])):
        edge_label, position = key
        vertex_ids[("landing", key)] = _new_vertex(
            kind="landing",
            domain_id=None,
            point=None,
            edge_label=edge_label,
            position=position,
            cluster_id=None,
            faces=tuple(sorted(landing_keys[key])),
        )
    for cid in corners_inside:
        vertex_ids[("corner", cid)] = _new_vertex(
            kind="corner",
            domain_id=None,
            point=None,
            edge_label=None,
            position=None,
            cluster_id=cid,
            faces=(),
        )

    # final segments and traces, wired to vertices
    segments: list[FaceSegment] = []
    for ref in sorted(intervals):
        raw = intervals[ref]
        base, t = lines[ref]
        ends: dict[str, str | None] = {}
        for end, bound in (("lower", raw.lower), ("upper", raw.upper)):
            if bound is not None:
                point = vec_add(base, vec_scale(bound, t))
                ends[end] = vertex_ids[("interior", (ref[0], point))]
            elif end in landings[ref]:
                ends[end] = vertex_ids[("landing", landings[ref][end])]
            else:
                ends[end] = None
        segments.append(
            FaceSegment(
                ref=ref,
                face_label=face_label[ref],
                base=base,
                direction=t,
                lower=raw.lower,
                upper=raw.upper,
                lower_vertex=ends["lower"],
                upper_vertex=ends["upper"],
            )
        )
    traces: list[EdgeTrace] = []
    for e in space.edges:
        if e.label not in raw_traces:
            continue
        kind, sides, t = raw_traces[e.label]
        traces.append(
            EdgeTrace(
                edge_label=e.label,
                residue=e.residue,
                kind=kind,
                sides=sides,
                lower=t.lower,
                upper=t.upper,
                lower_vertex=(
                    vertex_ids[("landing", (e.label, t.lower))]
                    if t.lower is not None
                    else None
                ),
                upper_vertex=(
                    vertex_ids[("landing", (e.label, t.upper))]
                    if t.upper is not None
                    else None
                ),
            )
        )

    # close up nonsingular faces: a face is a circle exactly when every
    # segment end is a landing vertex shared with one other segment
    vertex_kind = {v.vertex_id: v.kind for v in vertices}
    closed_faces: list[PolytopeFace] = []
    for f in nonsingular:
        end_vertices: list[str | None] = []
        for s in segments:
            if s.face_label == f.label:
                end_vertices.extend([s.lower_vertex, s.upper_vertex])
        counts: dict[str, int] = {}
        closed = bool(end_vertices)
        for vid in end_vertices:
            if vid is None or vertex_kind[vid] != "landing":
                closed = False
                break
            counts[vid] = counts.get(vid, 0) + 1
        closed = closed and all(c == 2 for c in counts.values())
        closed_faces.append(
            PolytopeFace(f.label, f.kind, f.members, f.edges, closed)
        )

    # join singular traces and divisor arcs across corners
    by_kind: dict[str, list[str]] = {"singular": [], "divisor": []}
    for t in traces:
        by_kind[t.kind].append(t.edge_label)
    components: dict[str, tuple[tuple[str, ...], Vector, bool]] = {}
    singular_faces: list[PolytopeFace] = []
    trace_components: list[TraceComponent] = []
    meetings = 0
    closed_ids = {c.cluster_id for c in space.clusters if c.closed}
    for kind, labels in by_kind.items():
        uf = UnionFind(labels)
        joins: dict[str, int] = {lab: 0 for lab in labels}
        for cid in corners_inside:
            germs = [g for g in cluster_germs.get(cid, []) if g[1] == kind]
            by_residue: dict[Vector, list[str]] = {}
            for edge_label, _, residue in germs:
                by_residue.setdefault(residue, []).append(edge_label)
            for residue, labs in sorted(by_residue.items()):
                if len(labs) == 2:
                    uf.union(labs[0], labs[1])
                    joins[labs[0]] += 1
                    joins[labs[1]] += 1
        grouped: dict[str, list[str]] = {}
        for lab in sorted(labels, key=lambda lab: edge_index[lab]):
            grouped.setdefault(uf.find(lab), []).append(lab)
        ordered = sorted(grouped.values(), key=lambda labs: edge_index[labs[0]])
        for k, labs in enumerate(ordered):
            residue = space.edge(labs[0]).residue
            closed = sum(joins[lab] for lab in labs) // 2 == len(labs)
            if kind == "singular":
                singular_faces.append(
                    PolytopeFace(
                        label=f"s{k + 1}",
                        kind="singular",
                        members=(),
                        edges=tuple(labs),
                        closed=closed,
                    )
                )
            else:
                trace_components.append(
                    TraceComponent(
                        label=f"t{k + 1}",
                        edges=tuple(labs),
                        residue=residue,
                        closed=closed,
                    )
                )
    for cid in corners_inside:
        if cid in closed_ids:
            continue
        residues = {g[2] for g in cluster_germs.get(cid, [])}
        if len(residues) >= 2:
            meetings += 1
    crossings_inside = tuple(c for c in corners_inside if c in closed_ids)

    compact = all(
        _domain_compact(
            space.domain(d).fan,
            [g.linear for g in per_domain[d].values()],
            2,
        )
        for d in feasible
    )
    orientable = _crossing_signs(space, feasible, traces) is not None

    return LogPolytope(
        spec=spec,
        space=space,
        dim=2,
        feasible=tuple(feasible),
        traces=tuple(traces),
        segments=tuple(segments),
        faces=tuple(closed_faces) + tuple(singular_faces),
        vertices=tuple(vertices),
        trace_components=tuple(trace_components),
        crossings_inside=crossings_inside,
        boundary_corner_meetings=meetings,
        compact=compact,
        orientable=orientable,
        elementary=len(feasible) == 1,
    )


def _build_1d(space: WeldedSpace, spec: PolytopeSpec) -> LogPolytope:
    for name, members in spec.groups:
        if len(members) > 1:
            raise ContinuationError(
                f"group {name!r}: faces cannot continue across edges in dimension 1"
            )
    feasible = _feasible_domains(space, spec)
    feasible_set = set(feasible)
    per_domain = {d: spec.domain_constraints(d) for d in sorted(space.domain_ids)}
    face_label = _face_labels(spec)

    traces: list[EdgeTrace] = []
    for e in space.edges:
        present = []
        for face in e.faces:
            fns = per_domain[face[0]]
            if all(dot(g.linear, e.residue) < 0 for g in fns.values()):
                present.append(face[0])
        if not present:
            continue
        traces.append(
            EdgeTrace(
                edge_label=e.label,
                residue=e.residue,
                kind="singular" if len(present) == 1 else "divisor",
                sides=tuple(present),
                lower=None,
                upper=None,
                lower_vertex=None,
                upper_vertex=None,
            )
        )

    vertices: list[PolytopeVertex] = []
    faces: list[PolytopeFace] = []
    for ref, fn in spec.constraints:
        if ref[0] not in feasible_set:
            continue
        point, direction = _line_of(fn)
        others = [(n, g) for n, g in sorted(per_domain[ref[0]].items()) if n != ref[1]]
        raw = _clip(point, direction, others)
        if raw is None:
            continue
        if raw.along:
            raise GeometryError(
                f"constraints {ref[0]}.{ref[1]} and {ref[0]}.{raw.along[0]} "
                "cut at the same point"
            )
        label = face_label[ref]
        faces.append(PolytopeFace(label, "interior", (ref,), (), False))
        vertices.append(
            PolytopeVertex(
                vertex_id=f"v{len(vertices) + 1}",
                kind="interior",
                domain_id=ref[0],
                point=point,
                edge_label=None,
                position=None,
                cluster_id=None,
                faces=(label,),
            )
        )
    singular = [t for t in traces if t.kind == "singular"]
    for k, t in enumerate(singular):
        faces.append(PolytopeFace(f"s{k + 1}", "singular", (), (t.edge_label,), True))
    trace_components = tuple(
        TraceComponent(f"t{k + 1}", (t.edge_label,), t.residue, True)
        for k, t in enumerate(t for t in traces if t.kind == "divisor")
    )

    compact = all(
        _domain_compact(
            space.domain(d).fan,
            [g.linear for g in per_domain[d].values()],
            1,
        )
        for d in feasible
    )
    orientable = _crossing_signs(space, feasible, traces) is not None
    return LogPolytope(
        spec=spec,
        space=space,
        dim=1,
        feasible=tuple(feasible),
        traces=tuple(traces),
        segments=(),
        faces=tuple(faces),
        vertices=tuple(vertices),
        trace_components=trace_components,
        crossings_inside=(),
        boundary_corner_meetings=0,
        compact=compact,
        orientable=orientable,
        elementary=len(feasible) == 1,
    )


# -------------------------------------------------------- face lemmas


def check_face_lemmas(p: LogPolytope) -> FaceLemmaReport:
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


# -------------------------------------------------- compactness tests


def is_compact_2d(p: LogPolytope) -> bool:
    """Exact direction-coverage criterion for an elementary polytope in
    a single tropical domain: the fan's cones and the closed
    half-spaces of the constraints must cover every direction, and the
    open half-spaces must miss every cone."""
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
        if all(dot(a, s) < 0 for a in covectors):
            if not _support_contains(fan, s):
                return False
    return True


# ----------------------------------------------------- the lattice test


def delzant_check(p: LogPolytope) -> DelzantResult:
    """Saturated-basis test on the covectors of the nonsingular faces
    through each stratum of the polytope, stopping at the first failure."""
    covector_of_face: dict[str, Vector] = {}
    for face in p.nonsingular_faces:
        ref = face.members[0]
        fn = p.spec.constraint(ref)
        _validate_covector(ref, fn)
        covector_of_face[face.label] = fn.linear
    for face in p.nonsingular_faces:
        rows = (covector_of_face[face.label],)
        if not is_saturated_lattice_basis(rows):
            return DelzantResult(False, ((face.label, rows),))
    for vertex in p.vertices:
        labels = [f for f in vertex.faces if f in covector_of_face]
        if not labels:
            continue
        rows = tuple(covector_of_face[f] for f in labels)
        if not is_saturated_lattice_basis(rows):
            return DelzantResult(False, ((vertex.vertex_id, rows),))
    return DelzantResult(True, ())


# ----------------------------------------------------------- topology


def polytope_topology(p: LogPolytope) -> PolytopeTopology:
    """Euler characteristic, genus and boundary circles of a compact
    2-dimensional polytope, from its induced cell structure."""
    if p.dim != 2:
        raise UnsupportedDimensionError("polytope topology is 2-dimensional")
    if not p.compact:
        raise NonCompactError("the polytope is not compact")
    euler = len(p.vertices) - (len(p.segments) + len(p.traces)) + len(p.feasible)

    corner_vertex = {
        v.cluster_id: v.vertex_id for v in p.vertices if v.kind == "corner"
    }

    def _trace_ends(t: EdgeTrace) -> list[str]:
        e = p.space.edge(t.edge_label)
        ends = []
        for bound, vid, cid in (
            (t.lower, t.lower_vertex, e.tail),
            (t.upper, t.upper_vertex, e.head),
        ):
            if bound is not None:
                ends.append(vid)
            else:
                if cid is None or cid not in corner_vertex:
                    raise GeometryError(
                        f"the trace on edge {t.edge_label} runs off an open end"
                    )
                ends.append(corner_vertex[cid])
        return ends

    boundary_edges: list[tuple[str, str]] = []
    for s in p.segments:
        if s.lower_vertex is None or s.upper_vertex is None:
            raise GeometryError("a face segment runs off an open end")
        boundary_edges.append((s.lower_vertex, s.upper_vertex))
    for t in p.traces:
        if t.kind == "singular":
            ends = _trace_ends(t)
            boundary_edges.append((ends[0], ends[1]))
    degree: dict[str, int] = {}
    for a, b in boundary_edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    bad = sorted(v for v, d in degree.items() if d != 2)
    if bad:
        raise GeometryError(
            f"the polytope boundary is not a 1-manifold at {', '.join(bad)}"
        )
    uf = UnionFind(degree.keys())
    for a, b in boundary_edges:
        uf.union(a, b)
    circles = len({uf.find(v) for v in degree})

    genus = cross_caps = None
    if p.orientable:
        genus = (2 - euler - circles) // 2
    else:
        cross_caps = 2 - euler - circles
    return PolytopeTopology(
        euler=euler,
        orientable=p.orientable,
        genus=genus,
        cross_caps=cross_caps,
        boundary_circles=circles,
        singular_faces=len(p.singular_faces),
        log_faces=len(p.log_faces),
        interior_faces=len(p.interior_faces),
    )


def polytope_moduli(p: LogPolytope) -> int:
    """Count of independent deformation parameters carried by the
    polytope: its own second Betti number (1 only for a closed
    orientable polytope without faces), one per closed interior divisor
    arc, one per divisor crossing inside, and one per boundary corner
    where distinct divisor directions meet."""
    if p.dim != 2:
        raise UnsupportedDimensionError("polytope moduli are 2-dimensional")
    if not p.compact:
        raise NonCompactError("the polytope is not compact")
    b2 = 1 if (p.orientable and not p.faces) else 0
    closed_arcs = sum(1 for t in p.trace_components if t.closed)
    return b2 + closed_arcs + len(p.crossings_inside) + p.boundary_corner_meetings


# ------------------------------------------------- regularized volume


@functools.total_ordering
class _TPoly:
    """A polynomial in the cutoff ``T`` with exact coefficients, constant
    first, ordered as its values are for every large ``T``: by the sign
    of the leading coefficient of a difference."""

    __slots__ = ("coefs",)

    def __init__(self, *coefs) -> None:
        self.coefs = coefs

    def __add__(self, other) -> _TPoly:
        b = other.coefs if isinstance(other, _TPoly) else (other,)
        return _TPoly(*map(sum, zip_longest(self.coefs, b, fillvalue=0)))

    def __mul__(self, other) -> _TPoly:
        b = other.coefs if isinstance(other, _TPoly) else (other,)
        out = [0] * (len(self.coefs) + len(b) - 1)
        for (i, x), (j, y) in product(enumerate(self.coefs), enumerate(b)):
            out[i + j] += x * y
        return _TPoly(*out)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> _TPoly:
        return self * -1

    def __sub__(self, other) -> _TPoly:
        return self + -other

    def __rsub__(self, other) -> _TPoly:
        return -self + other

    def __truediv__(self, q) -> _TPoly:
        return self * (1 / Fraction(q))

    def _lead(self, other):
        return next((c for c in reversed((self - other).coefs) if c), 0)

    def __eq__(self, other) -> bool:
        return self._lead(other) == 0

    def __lt__(self, other) -> bool:
        return self._lead(other) < 0


def _clipped_measure(p: LogPolytope, domain_id: int, T=_TPoly(0, 1)) -> Fraction | _TPoly:
    """Length or area of the domain region cut off at ``r.u + T|r|^2 = 0``
    for each ray ``r``, ``T`` a number or by default the symbol.  The
    length is the clip of the axis; the area is a shoelace sum over the
    clipped constraint lines, each edge taken counterclockwise, and a
    line shared with an earlier constraint of the same sign is counted
    once."""
    own = list(p.spec.domain_constraints(domain_id).values())
    rays = p.space.domain(domain_id).fan.vectors
    fns = own + [AffineFunctional(r, T * dot(r, r)) for r in rays]
    named = list(enumerate(fns))
    cutoffs = (((-T * r[0], -T * r[1]), rot90(r)) for r in rays)
    lines = [((Fraction(0),), (Fraction(1),))] if p.dim == 1 else [*map(_line_of, own), *cutoffs]
    twice = Fraction(0)
    for i, (base, t) in enumerate(lines):
        raw = _clip(base, t, named)
        if raw is None or (_bounded(raw) and raw.lower > raw.upper):
            continue
        if not _bounded(raw):
            raise GeometryError("a region stays unbounded after the cutoffs")
        if p.dim == 1:
            return raw.upper - raw.lower
        if not any(j < i and dot(fns[j].linear, fns[i].linear) > 0 for j in raw.along):
            ends = (tuple(b + s * x for b, x in zip(base, t)) for s in (raw.upper, raw.lower))
            twice += cross2(*ends)
    return twice / 2


def regularized_volume(p: LogPolytope, eps: Fraction | None = None) -> Fraction:
    """Principal-value volume of a compact oriented polytope without
    singular faces.

    Each domain is clipped once at a symbolic log-distance ``T`` from
    every stratum; the signed measures, summed with alternating domain
    signs, are the exact ``a0 + a1 T + a2 T^2`` for every large ``T``.
    The volume is ``a0`` if ``a1 = a2 = 0`` and diverges otherwise.
    The excision ``eps`` must lie in (0, 1) but does not change it."""
    if p.dim > 2:
        raise UnsupportedDimensionError(
            "regularized volume is supported in dimensions 1 and 2"
        )
    if not p.orientable:
        raise NonOrientableError("the polytope is not orientable")
    if p.singular_faces:
        labels = ", ".join(f.label for f in p.singular_faces)
        raise SingularFaceError(
            f"the polytope has singular faces ({labels}); its volume diverges"
        )
    if not p.compact:
        raise NonCompactError("the polytope is not compact")
    eps = Fraction(1, 10**9) if eps is None else Fraction(eps)
    if not 0 < eps < 1:
        raise GeometryError(f"the excision parameter must be in (0, 1), got {eps}")
    signs = _crossing_signs(p.space, p.feasible, p.traces)
    assert signs is not None
    norm = signs[min(p.feasible)] * p.spec.orientation
    total = sum((signs[d] * norm * _clipped_measure(p, d) for d in p.feasible), _TPoly(0))
    const, *growth = total.coefs
    if any(growth):
        terms = ", ".join(f"T^{k}: {c}" for k, c in enumerate(growth, 1) if c)
        raise GeometryError(f"the regularized volume diverges: nonzero coefficients {terms}")
    return Fraction(const)
