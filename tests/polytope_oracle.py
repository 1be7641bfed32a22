"""Checks of a built polytope by routes independent of the build.

``check_face_lemmas`` pairs each nonsingular face's covector with the
edge residues the face lemmas constrain.  ``is_compact_2d`` decides
compactness of a polytope in a single domain by the definition the
build states (every recession direction ``d`` has ``-d`` in the fan's
support), swept over sampled directions of the whole circle rather
than read off the recession arcs.

``arcs_compact`` is the planar build's old compactness: each feasible
domain's recession arcs, negated (``recession_arcs``, read off the turn
order of its tightest lines), lie in the fan's support by the turn-order
test ``_covered``, which walks ``Fan.ray_order`` from each arc's start
(``_ccw``).  The build now reads compactness off the open ends it
finds.  ``covered_by_samples`` is the test ``_covered`` replaced: both
ends, every ray strictly inside and one direction inside each open arc
between them, each tested against every cone's arc, computed anew per
direction by ``support_contains`` (``_arc`` and ``_in_arc`` are the
build's older cone test).

``clip_regions`` is the planar build's old region computation, kept as
an oracle for the vertex cycle: ``_feasible_domains`` clips each of a
domain's k constraint lines by the other k - 1.  Each ``ClipRegion``
supplies what the build reads of a vertex cycle: a face's segment ends,
or its fault, from its clip by ``_face_interval``, and an edge's trace
from the clip of the stratum coordinate by ``_side_trace``.
``_domain_compact`` sweeps sampled directions of the whole circle
against every covector.  ``_quadrant_reaches_corner`` is the
build's old corner test, which tries every constraint line as a
direction into the corner; the build now takes the corners a trace
runs into, and the test checks that these hold every corner it reports.
Patched in for ``polytopes._feasible``, it makes ``build_polytope``
build a planar polytope the old way.

``_clip``, ``_RawInterval`` and ``_bounded`` are the build's old line
clip, which keeps every constraint attaining each bound and those
vanishing along the whole line; the clip oracles here and in
``volume_oracle`` read those lists.  ``points_1d`` is the 1-D build's
old region computation, each constraint point clipped by the others,
and ``faces_1d`` reads the feasible domains, the faces with their
points and the build's faults off it.

``_intersect``, ``_meet`` and ``_value`` are the vertex cycle's old
kernel, which intersects the half-planes ``a.u + c >= 0`` with Fraction
points (``c`` a Fraction, or a ``volume_oracle.TPoly`` in the symbol
``T`` for the infinitesimal rerun); the build now runs the same steps
on homogeneous integer points, the rerun at one int ``T``.

``fraction_ranks`` is the vertex cycle's old rank, which sorts the
vertices as pairs of Fractions; the cycle now sorts them on ints,
brought to the lcm of their ``w``.  ``landing_position`` is the build's
old landing, the Fraction dot product ``rot90(residue) . base``; the
build now makes one Fraction from the covector, the constant's integer
ratio and the residue's ``(r, n)``.

``cyclic_order`` and ``is_complete_2d`` are the package's old
completeness test, which sorts the rays by angle and looks up the cone
of each pair of neighbours; ``fans.is_complete`` now reads ``Fan.turns``.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from logaffine.errors import DegenerateVertexError, GeometryError, UnsupportedDimensionError
from logaffine.fans import Fan, _before, _direction_cmp
from logaffine.polytopes import (
    ConstraintRef,
    PolytopeSpec,
    _line_of,
    _lines,
    _tightest,
    _turn_order,
)
from logaffine.rational import (
    AffineFunctional,
    Vector,
    cross2,
    dot,
    rot90,
    vec_neg,
)
from logaffine.welding import WeldedSpace
from rational_oracle import primitive, vec_scale


# the package's old vector sum: no package code reads it any more
def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


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
    """Compactness of an elementary polytope in a single tropical
    domain: every direction ``x`` on which no covector is negative (a
    recession direction of the region) has ``-x`` in the fan's support,
    tested at the sampled directions of ``_domain_compact``.  So a strip
    between two opposite covectors on the empty fan is not compact, and
    any region over a complete fan is."""
    if p.dim != 2:
        raise UnsupportedDimensionError("the coverage criterion is 2-dimensional")
    if len(p.space.spec.domain_items) != 1 or not p.elementary:
        raise GeometryError(
            "the coverage criterion needs an elementary polytope in a "
            "single domain"
        )
    (domain_id, fan), = p.space.spec.domain_items
    covectors = [g.linear for g in p.spec.domain_constraints(domain_id).values()]
    return _domain_compact(fan, covectors, 2)


# ------------------------------------------------ the sampled fan support


def _arc(fan: Fan, cone: frozenset[int]) -> tuple[Vector, Vector]:
    """The directions a 1- or 2-cone of a planar fan holds, as a closed
    arc from one generator counterclockwise to the other."""
    gens = [fan.vectors[i] for i in sorted(cone)]
    v, w = gens[0], gens[-1]
    return (v, w) if cross2(v, w) >= 0 else (w, v)


def _in_arc(start: Vector, end: Vector, x: Vector) -> bool:
    """Whether ``x`` lies on the closed arc from ``start``
    counterclockwise to ``end``, at most a half turn."""
    if start == end:
        return cross2(start, x) == 0 and dot(start, x) > 0
    return cross2(start, x) >= 0 and cross2(x, end) >= 0


def support_contains(fan: Fan, x: Vector) -> bool:
    return any(_in_arc(*_arc(fan, cone), x) for cone in fan.cones if cone)


def _ccw(b: Vector, u: Vector, v: Vector) -> int:
    """Compare the counterclockwise turns from ``b`` to ``u`` and to ``v``:
    ``_direction_cmp`` with ``b`` in place of (1, 0)."""
    return _direction_cmp(
        (b[0] * u[0] + b[1] * u[1], b[0] * u[1] - b[1] * u[0]),
        (b[0] * v[0] + b[1] * v[1], b[0] * v[1] - b[1] * v[0]),
    )


def _covered(fan: Fan, start: Vector, end: Vector) -> bool:
    """Whether the fan's support holds the closed arc of integer
    directions from ``start`` counterclockwise to ``end``, at most a
    half turn: the arc starts on a ray or inside a 2-cone, and each ray
    from ``start`` on, short of ``end``, opens a 2-cone (``Fan.turns``)."""
    first = _before(fan, start)
    if first is None:
        return False
    if fan.turns[first][0] is None and _direction_cmp(fan.directions[first], start) != 0:
        return False
    return all(
        fan.turns[i][0] is not None
        for i, r in enumerate(fan.directions)
        if _ccw(start, r, end) < 0
    )


_PLANE = (((1, 0), (-1, 0)), ((-1, 0), (1, 0)))


def recession_arcs(items: Iterable[tuple[str, AffineFunctional]]) -> tuple:
    """The directions of the strata a planar domain's region recedes
    towards, its recession cone negated, as closed arcs of integer
    directions (start, end), each at most a half turn counterclockwise:
    none for a closed cycle, the arc between the two unbounded edges
    for an open one, both ways along a strip and the two halves of the
    plane when there is no constraint."""
    if not items:
        return _PLANE
    lines, gap = _turn_order(_tightest(_lines(items)))
    if gap is None:
        return ()
    first, last = lines[(gap + 1) % len(lines)][0], lines[gap][0]
    arcs = ((rot90(last), vec_neg(rot90(first))),)
    if len(lines) == 2 and cross2(first, last) == 0:  # a strip
        arcs += ((vec_neg(rot90(last)),) * 2,)
    return arcs


def arcs_compact(p) -> bool:
    """The planar build's old compactness: each feasible domain's
    recession arcs lie in its fan's support (``_covered``)."""
    return all(
        _covered(p.space.fan(d), s, e)
        for d in p.feasible
        for s, e in recession_arcs(p.spec.domain_constraints(d).items())
    )


def covered_by_samples(fan: Fan, start: Vector, end: Vector) -> bool:
    """Whether the fan's support holds every direction of the closed arc
    from ``start`` counterclockwise to ``end``, at most a half turn:
    tested at both ends, at each ray of the fan strictly inside and
    once inside each open arc between them."""
    inside = [r for r in fan.vectors if cross2(start, r) > 0 and cross2(r, end) > 0]
    inside.sort(key=functools.cmp_to_key(lambda u, v: -cross2(u, v)))
    dirs = [start, *inside, end] if start != end else [start]
    samples = dirs + [
        vec_add(d, e) if cross2(d, e) > 0 else rot90(d) for d, e in zip(dirs, dirs[1:])
    ]
    return all(support_contains(fan, x) for x in samples)


# ------------------------------------- the planar build's old region oracle


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
            if not support_contains(fan, vec_neg(x)):
                return False
    return True


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


# ------------------------------------------------- the old line clip


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


def _clip(
    base: Vector, direction: Vector, named_fns: Iterable[tuple[object, AffineFunctional]],
    lower=None, upper=None,
) -> _RawInterval | None:
    """Clip the line ``base + s * direction``, within the optional
    bounds ``lower <= s <= upper``, by each ``g >= 0`` in turn.

    Returns ``None`` once a constraint parallel to the line is negative
    on it.  Ties at a bound keep every name, in the given order.  The
    line meets the region in more than a point when the bounds leave
    an interval of positive length; the region then has interior iff
    no constraint of the opposite sign is among ``along``.
    """
    lower_active: list = []
    upper_active: list = []
    along: list = []
    for name, g in named_fns:
        coef = dot(g.linear, direction)
        val = sum((b * a for a, b in zip(g.linear, base)), g.constant)
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


def points_1d(items: list[tuple[str, AffineFunctional]]):
    """Whether the half-lines of a 1-D domain's constraints, sorted by
    name, meet and have interior, and each constraint point with its
    clip by the others: the region meets some point exactly when it is
    nonempty, and has interior when at such a point no constraint of
    the opposite sign vanishes."""
    fns = dict(items)
    points: dict[str, tuple[Vector, _RawInterval | None]] = {}
    met = interior = not items  # no constraints: the whole domain
    for name, fn in items:
        point, t = _line_of(fn)
        raw = _clip(point, t, [(n, g) for n, g in items if n != name])
        points[name] = point, raw
        if raw is not None:
            met = True
            interior |= all(dot(fns[n].linear, fn.linear) > 0 for n in raw.along)
    return met, interior, points


def faces_1d(space: WeldedSpace, spec: PolytopeSpec) -> tuple[list[int], list[tuple]]:
    """The feasible domains of a 1-D polytope and each face's constraint
    with its point, in spec order, by ``points_1d``; raises the build's
    ``GeometryError`` for an empty region, an empty interior and two
    constraints cutting at the same point."""
    regions = {}
    for d in sorted(space.domain_ids):
        met, interior, points = points_1d(sorted(spec.domain_constraints(d).items()))
        if met:
            if not interior:
                raise GeometryError(f"the region in domain {d} has an empty interior")
            regions[d] = points
    if not regions:
        raise GeometryError("the polytope is empty in every domain")
    faces = []
    for ref, _ in spec.constraints:
        if ref[0] not in regions:
            continue
        point, raw = regions[ref[0]][ref[1]]
        if raw is None:
            continue
        if raw.along:
            raise GeometryError(
                f"constraints {ref[0]}.{ref[1]} and {ref[0]}.{raw.along[0]} "
                "cut at the same point"
            )
        faces.append((ref, point))
    return list(regions), faces


def _feasible_domains(
    space: WeldedSpace, spec: PolytopeSpec
) -> tuple[list[int], dict[ConstraintRef, tuple[Vector, Vector, _RawInterval | None]]]:
    """The domains the region meets, and each constraint line clipped
    once by the other constraints of its domain, in sorted name order."""
    feasible, clips = [], {}
    for d in sorted(space.domain_ids):
        items = sorted(spec.domain_constraints(d).items())
        met = interior = not items  # no constraints: the whole domain
        for name, fn in items:
            base, t = _line_of(fn)
            raw = _clip(base, t, [(n, g) for n, g in items if n != name])
            clips[(d, name)] = base, t, raw
            if raw is None or (_bounded(raw) and raw.lower > raw.upper):
                continue
            met = True
            if (not _bounded(raw) or raw.lower < raw.upper) and all(
                dot(spec.constraint((d, n)).linear, fn.linear) > 0 for n in raw.along
            ):
                interior = True
        if met:
            if not interior:
                raise GeometryError(f"the region in domain {d} has an empty interior")
            feasible.append(d)
    if not feasible:
        raise GeometryError("the polytope is empty in every domain")
    return feasible, clips


def _face_interval(ref: ConstraintRef, raw: _RawInterval | None) -> _RawInterval | None:
    """The face line's clip as an interval with one constraint at each
    finite bound, or ``None`` when the face misses the region."""
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


def _side_trace(
    residue: Vector, fns: dict[str, AffineFunctional]
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


def _ends(raw: _RawInterval, point_of) -> tuple:
    """The lower and upper ends of a clip as the build reads them: each
    ``None`` when unbounded, else ``point_of`` its bound with the first
    constraint attaining it."""
    return tuple(
        None if bound is None else (point_of(bound), active[0])
        for bound, active in ((raw.lower, raw.lower_active), (raw.upper, raw.upper_active))
    )


class ClipRegion:
    """One feasible planar domain of the k^2 clip, read as the build
    reads a vertex cycle: each constraint's clip by the others and the
    stratum coordinate clipped by the constraints parallel to the
    residue ``r / n``."""

    def __init__(self, raws: dict[str, _RawInterval | None], fns: dict[str, AffineFunctional]):
        self.raws = raws
        self.fns = fns

    def face(self, ref: ConstraintRef):
        raw = _face_interval(ref, self.raws.get(ref[1]))
        if raw is None:
            return None
        base, t = _line_of(self.fns[ref[1]])
        ends = _ends(raw, lambda s: vec_add(base, vec_scale(s, t)))
        # the build's face ends also carry their bound along the line and
        # the vertex's key in its table: its rank by point there, the point here
        return tuple(end and (*end, s, end[0]) for end, s in zip(ends, (raw.lower, raw.upper)))

    def trace(self, r: tuple[int, int], n: int):
        raw = _side_trace((Fraction(r[0], n), Fraction(r[1], n)), self.fns)
        return None if raw is None else _ends(raw, lambda s: s)


def clip_regions(space: WeldedSpace, spec: PolytopeSpec, region_of=None) -> dict[int, ClipRegion]:
    """The feasible domains of a planar polytope and their regions, by
    the k^2 clip; ``region_of`` (the build's own region maker) is not
    used."""
    feasible, clips = _feasible_domains(space, spec)
    return {
        d: ClipRegion(
            {name: clips[(d, name)][2] for name in spec.domain_constraints(d)},
            dict(spec.domain_constraints(d)),
        )
        for d in feasible
    }


# ---------------------------------- the vertex cycle's old Fraction kernel


def _meet(f, g) -> Vector:
    """The point where the lines ``a.u + c = 0`` of ``f = (a, c)`` and
    ``g`` cross."""
    (a, c), (b, d) = f, g
    det = a[0] * b[1] - a[1] * b[0]
    return (a[1] * d - b[1] * c) / det, (b[0] * c - a[0] * d) / det


def _value(f, point: Vector):
    (a, c) = f
    return a[0] * point[0] + a[1] * point[1] + c


def _intersect(lines: list, gap: int | None):
    """Intersect the half-planes ``a.u + c >= 0`` of ``lines``, pairs
    ``(a, c)`` on distinct primitive covectors sorted counterclockwise;
    ``gap`` is the line after which the next turns by a half turn or
    more (``None``: the covectors surround the origin and the region
    is bounded).

    Returns ``None`` when the intersection has no interior, otherwise
    ``(kept, vertices, touching)``: ``kept`` indexes the lines holding
    an edge of positive length, counterclockwise; ``vertices[j]`` is
    where the edge of ``kept[j - 1]`` ends and that of ``kept[j]``
    starts (``None`` at infinity); ``touching`` maps every other line
    that meets the region to the vertex it touches there.  The
    constants may be Fractions or ``volume_oracle.TPoly``.
    """
    m = len(lines)
    constant = dict(lines)
    for a, c in lines:
        opposite = constant.get((-a[0], -a[1]))
        if opposite is not None and c + opposite <= 0:
            return None  # a slab without interior
    # sorted from just after the gap, the covectors of an open cycle
    # span at most a half turn: a new line then cuts a suffix of the
    # chain, so only a closed cycle pops from the front or wraps around
    order = range(m) if gap is None else [*range(gap + 1, m), *range(gap + 1)]
    ring: deque = deque()
    points: deque = deque()  # points[j]: where ring[j] meets ring[j + 1]
    for i in order:
        f = lines[i]
        while len(ring) > 1 and _value(f, points[-1]) <= 0:
            ring.pop()
            points.pop()
        while len(ring) > 1 and _value(f, points[0]) <= 0:
            ring.popleft()
            points.popleft()
        if ring:
            turn = cross2(lines[ring[-1]][0], f[0])
            if turn < 0 or turn == 0 and gap is None:
                return None
            points.append(_meet(lines[ring[-1]], f) if turn else None)  # None: a strip
        ring.append(i)
    if gap is None:
        # wrap around: drop the back lines whose vertex misses ring[0],
        # a suffix short of points[1], where ring[0] has risen along
        # ring[1].  Three lines or more stay, as lines[0] leaves only by a
        # front pop, which puts the back over a half turn past ring[0];
        # points[0] holds every line after ring[1], so the front stays.
        while len(ring) > 2 and _value(lines[ring[0]], points[-1]) <= 0:
            ring.pop()
            points.pop()
    kept = list(ring)
    vertices = [None if gap is not None else _meet(lines[ring[-1]], lines[ring[0]]), *points]
    # each dropped line is lowest on the region at the vertex between
    # the kept lines around its normal
    touching = {}
    j = 0
    for i in order:
        if j < len(kept) and kept[j] == i:
            j += 1
        elif _value(lines[i], vertices[j % len(kept)]) == 0:
            touching[i] = j % len(kept)
    return kept, vertices, touching


def fraction_ranks(vertices: list) -> dict[int, int]:
    """The rank by point of each finite homogeneous vertex ``(x, y, w)``
    of a cycle, by its position: its point as a pair of Fractions, sorted
    with the position breaking ties."""
    points = [v and (Fraction(v[0], v[2]), Fraction(v[1], v[2])) for v in vertices]
    return {j: r for r, (_, j) in enumerate(sorted([(v, j) for j, v in enumerate(points) if v]))}


def landing_position(residue: Vector, base: Vector) -> Fraction:
    """Where a face line through ``base`` meets the edge stratum with
    the residue ``residue``, in the stratum coordinate."""
    return dot(rot90(residue), base)


def cyclic_order(fan: Fan) -> list[int]:
    """Indices of the fan rays sorted counterclockwise from (1, 0)."""
    if fan.dim != 2:
        raise UnsupportedDimensionError("cyclic order is a planar notion")
    key = functools.cmp_to_key(lambda i, j: _direction_cmp(fan.vectors[i], fan.vectors[j]))
    return sorted(range(len(fan.vectors)), key=key)


def is_complete_2d(fan: Fan) -> bool:
    """Whether the plane fan's cones cover every direction.

    True exactly when there are at least three rays and each pair of
    cyclically consecutive rays spans a 2-cone of the fan turning
    counterclockwise by less than a half turn.
    """
    if fan.dim != 2:
        raise UnsupportedDimensionError(f"completeness test is 2d-only, got dim {fan.dim}")
    m = len(fan.vectors)
    if m < 3:
        return False
    order = cyclic_order(fan)
    for k in range(m):
        i, j = order[k], order[(k + 1) % m]
        if frozenset({i, j}) not in fan.cones:
            return False
        if cross2(fan.vectors[i], fan.vectors[j]) <= 0:
            return False
    return True
