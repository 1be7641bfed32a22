"""Log affine polytopes: regions of a welded space cut out by
affine-linear constraints, their face structure, compactness and
lattice (Delzant) checks, and regularized volume.

A polytope is described per domain by constraints ``a(u) + c >= 0``
with primitive integer covector ``a``.  Faces continue across welded
edges; continuation groups are declared in the input and validated
against the forced geometry.

Each planar domain's region is computed once, as its vertex cycle: the
constraint lines sorted by angle and their half-planes intersected with
a deque (``_cycle``), in O(k log k) for k constraints.  The build reads
everything about the region off that cycle: feasibility, each face's
segment as two vertices of the cycle (or the fault that rejects it),
each edge trace from the tightest constraints perpendicular to the
residue, and compactness.  A line the cycle drops is checked once, at
the vertex its normal points to.  A region without interior is told
from an empty one by the cycle of the half-planes moved outwards by an
infinitesimal.  The region is compact when each arc of directions it
recedes along, negated, lies in one arc of the fan's support, which
every ``Fan`` merges from its cones once.  In
dimension 1 the region is the interval between the tightest bounds on
its two sides, read off the table of the tightest constraints on each
covector (``_tightest``) that the cycle is built from.  The volume clips
each face segment, or the line in dimension 1, by the cutoff lines only
(``_clip``).  Its cutoff is a symbol ``T`` and its measures are
polynomials in ``T`` (``_TPoly``), whose arithmetic skips zero
coefficients; ``_clip`` sums each value from the constant, so a
``_TPoly`` constant or point keeps the ``_TPoly`` on the left of every
operation.

The planar build numbers its vertices through one table, from a key to
the labels of the faces through the vertex: ``(0, domain id, point)``
for a vertex of a cycle, ``(1, edge index, position)`` for a face
landing on an edge stratum and ``(2, k, cluster id)`` for the k-th
corner cluster inside the polytope.  The sorted keys are the vertex
order; segment and trace ends look their vertices up by key, and each
face, segment and trace is made once.  A trace end always has its
landing: far along the edge, the tightest constraint perpendicular to
the residue holds an unbounded edge of the region, and that segment's
escape lands at the trace bound.  The corner clusters inside are those
a trace runs into: a region receding into a corner's quadrant either
recedes along one of its rays, whose trace then runs into the corner,
or has a face escaping into the quadrant, which ``_escape`` rejects.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

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
from .fans import Fan, _ccw, _direction_cmp, _first_index, _holds
from .rational import (
    AffineFunctional,
    Vector,
    cross2,
    dot,
    is_saturated_lattice_basis,
    rot90,
    vec_neg,
    vec_scale,
)
from .welding import WeldedSpace, WeldingSpec, connected_runs, two_colour

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
        try:
            return self._by_domain[ref[0]][ref[1]]
        except KeyError:
            raise KeyError(f"no constraint {ref[0]}.{ref[1]}") from None

    def domain_constraints(self, domain_id: int) -> Mapping[str, AffineFunctional]:
        return MappingProxyType(self._by_domain.get(domain_id, {}))

    @functools.cached_property
    def _by_domain(self) -> dict[int, dict[str, AffineFunctional]]:
        by_domain: dict[int, dict[str, AffineFunctional]] = {}
        for (domain_id, name), f in self.constraints:
            by_domain.setdefault(domain_id, {})[name] = f
        return by_domain


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
    domain_ids = set(welding.domain_ids)
    seen: set[ConstraintRef] = set()
    items: list[tuple[ConstraintRef, AffineFunctional]] = []
    for ref, functional in constraints:
        ref = (ref[0], ref[1])
        if ref in seen:
            raise GeometryError(f"duplicate constraint {ref[0]}.{ref[1]}")
        seen.add(ref)
        if ref[0] not in domain_ids:
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
        try:
            return self.faces[self._face_index[label]]
        except KeyError:
            raise KeyError(f"no face {label!r}") from None

    def vertex(self, vertex_id: str) -> PolytopeVertex:
        try:
            return self.vertices[self._vertex_index[vertex_id]]
        except KeyError:
            raise KeyError(f"no vertex {vertex_id!r}") from None

    def trace(self, edge_label: str) -> EdgeTrace | None:
        i = self._trace_index.get(edge_label)
        return None if i is None else self.traces[i]

    @functools.cached_property
    def _face_index(self) -> dict[str, int]:
        return _first_index([f.label for f in self.faces])

    @functools.cached_property
    def _vertex_index(self) -> dict[str, int]:
        return _first_index([v.vertex_id for v in self.vertices])

    @functools.cached_property
    def _trace_index(self) -> dict[str, int]:
        return _first_index([t.edge_label for t in self.traces])


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


# ------------------------------------------------------ the line clip


def _line_of(fn: AffineFunctional) -> tuple[Vector, Vector]:
    """A point of ``{fn = 0}`` and its direction (zero in dimension 1)."""
    a = fn.linear
    base = vec_scale(-Fraction(fn.constant) / dot(a, a), a)
    return base, rot90(a) if len(a) == 2 else (Fraction(0),)


def _clip(
    base: Vector, direction: Vector, fns: Iterable[AffineFunctional], lower=None, upper=None
) -> tuple | None:
    """Clip the line ``base + s * direction``, within the optional
    bounds ``lower <= s <= upper``, by each ``g >= 0`` in turn: the
    bounds left, ``(lower, upper)`` with ``None`` where unbounded, or
    ``None`` when the line misses the region."""
    for g in fns:
        coef = dot(g.linear, direction)
        val = sum((b * a for a, b in zip(g.linear, base)), g.constant)
        if coef == 0:
            if val < 0:
                return None
            continue
        bound = -val / coef
        if coef > 0:
            if lower is None or bound > lower:
                lower = bound
        elif upper is None or bound < upper:
            upper = bound
    if lower is not None and upper is not None and lower > upper:
        return None
    return lower, upper


# ------------------------------------------------------- vertex cycles


def _meet(f, g) -> Vector:
    """The point where the lines ``a.u + c = 0`` of ``f = (a, c)`` and
    ``g`` cross."""
    (a, c), (b, d) = f, g
    det = a[0] * b[1] - a[1] * b[0]
    return (a[1] * d - b[1] * c) / det, (b[0] * c - a[0] * d) / det


def _value(f, point: Vector):
    (a, c) = f
    return a[0] * point[0] + a[1] * point[1] + c


def _half_turn(a: Vector, b: Vector) -> bool:
    """Whether the counterclockwise turn from ``a`` to ``b`` is at least
    a half turn (a full one when they are equal)."""
    c = cross2(a, b)
    return c < 0 or c == 0 and (a == b or dot(a, b) < 0)


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
    constants may be Fractions or ``_TPoly``.
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
        while len(ring) > 2 and _value(lines[ring[0]], points[-1]) <= 0:
            ring.pop()
            points.pop()
        while len(ring) > 2 and _value(lines[ring[-1]], points[0]) <= 0:
            ring.popleft()
            points.popleft()
        if len(ring) < 3:
            return None
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


def _covered(fan: Fan, start: Vector, end: Vector) -> bool:
    """Whether the fan's support holds every direction of the closed arc
    of integer directions from ``start`` counterclockwise to ``end``, at
    most a half turn: whether, counted counterclockwise from the start of
    one arc of ``Fan.support``, ``start`` comes no later than ``end`` and
    ``end`` no later than that arc's end."""
    return any(
        e is None or _ccw(s, start, end) <= 0 and _ccw(s, end, e) <= 0 for s, e in fan.support
    )


_PLANE = (((1, 0), (-1, 0)), ((-1, 0), (1, 0)))


class _Cycle:
    """A planar domain's region, read off its vertex cycle.

    ``faces`` maps the name of each constraint whose line meets the
    region, or lies along another constraint's line, to the first other
    name on its line (``None`` when there is none) and its lower and
    upper ends along ``_line_of``: ``None`` at infinity, else a vertex
    of the cycle with the other names vanishing there, sorted.
    ``tightest`` maps each covector to its tightest constant and the
    names attaining it, sorted.  ``arcs`` holds the directions of the
    strata the region recedes towards, its recession cone negated, as
    closed arcs of integer directions (start, end), each at most a half
    turn counterclockwise: none for a closed cycle, the arc between the
    two unbounded edges for an open one, both ways along a strip and
    the two halves of the plane when there is no constraint; only
    ``compact`` reads them.
    """

    __slots__ = ("faces", "tightest", "arcs")

    def __init__(self, faces: dict, tightest: dict, arcs) -> None:
        self.faces = faces
        self.tightest = tightest
        self.arcs = arcs

    def face(self, ref: ConstraintRef):
        """The segment of constraint ``ref`` on the region: ``None`` when
        its line misses the region, else its lower and upper ends, each
        ``None`` at infinity or a vertex with the first other name
        vanishing there.  A line along another constraint's, a segment
        of a single point and a third line through an end are faults."""
        d, name = ref
        if name not in self.faces:
            return None
        along, lower, upper = self.faces[name]
        if along is not None:
            raise GeometryError(
                f"constraints {d}.{name} and {d}.{along} cut along the same line"
            )
        if lower and upper and lower[0] == upper[0]:
            raise DegenerateVertexError(
                f"face {d}.{name} degenerates to a single point where "
                f"{', '.join(lower[1])} also vanish"
            )
        for end in (lower, upper):
            if end and len(end[1]) > 1:
                raise DegenerateVertexError(
                    f"constraints {d}.{name}, "
                    + ", ".join(f"{d}.{n}" for n in end[1])
                    + " pass through one point"
                )
        return tuple(end and (end[0], end[1][0]) for end in (lower, upper))

    def trace(self, residue: Vector):
        """The region's closure on the edge stratum with this residue, in
        the coordinate ``rot90(residue) . u``: ``None`` when the region
        does not recede towards the edge (along ``-residue``) because a
        covector is positive on the residue, else its lower and upper
        ends, each ``None`` when unbounded or the bound with the first
        tightest name on the covector perpendicular to the residue that
        sets it.  The region has interior, so the ends never meet."""
        ends = [None, None]
        for a, (c, names) in self.tightest.items():
            slope = dot(a, residue)
            if slope > 0:
                return None
            if slope == 0:
                rv = rot90(residue)
                coef = dot(a, rv)
                ends[coef < 0] = -c * dot(rv, rv) / coef, names[0]
        return tuple(ends)

    def compact(self, fan: Fan) -> bool:
        """Every recession direction ``d`` of the region points away
        from a stratum of the fan (the stratum sits at ``-d``): each of
        ``arcs`` lies in one arc of the fan's support."""
        return all(_covered(fan, s, e) for s, e in self.arcs)


def _tightest(
    items: list[tuple[str, AffineFunctional]]
) -> dict[Vector, tuple[Fraction, list[str]]]:
    """Each covector of a domain's constraints, sorted by name, with its
    tightest (least) constant and the names attaining it, in order."""
    tightest: dict[Vector, tuple[Fraction, list[str]]] = {}
    for name, fn in items:
        a, c = tuple(map(int, fn.linear)), Fraction(fn.constant)
        best = tightest.get(a)
        if best is None or c < best[0]:
            tightest[a] = c, [name]
        elif c == best[0]:
            best[1].append(name)
    return tightest


def _cycle(items: list[tuple[str, AffineFunctional]]) -> tuple[bool, bool, _Cycle | None]:
    """Whether the half-planes of a planar domain's constraints, sorted
    by name, meet and have interior, and their region as a ``_Cycle``.

    Only the tightest constraint on each covector bounds the region; a
    looser one misses it, and one tied with it lies along the same line.
    Without interior, the region is nonempty exactly when the half-planes
    moved out by an infinitesimal ``1/T`` have interior: scaled by ``T``,
    the constants become ``1 + c T``.
    """
    if not items:
        return True, True, _Cycle({}, {}, _PLANE)
    tightest = _tightest(items)
    covectors = sorted(tightest, key=functools.cmp_to_key(_direction_cmp))
    lines = [(a, tightest[a][0]) for a in covectors]
    m = len(lines)
    gap = next((i for i in range(m) if _half_turn(covectors[i], covectors[(i + 1) % m])), None)
    cycle = _intersect(lines, gap)
    if cycle is None:
        return _intersect([(a, _TPoly(1, c)) for a, c in lines], gap) is not None, False, None
    kept, vertices, touching = cycle
    names = [tightest[a][1] for a in covectors]
    at: list[list[str]] = [[] for _ in vertices]  # the names vanishing at each vertex
    p = len(kept)
    for j, i in enumerate(kept):
        at[j] += names[i]
        at[(j + 1) % p] += names[i]
    for i, j in touching.items():
        at[j] += names[i]
    for vanishing in at:
        vanishing.sort()
    # the lower and upper vertex of each line that meets the region
    spans = {i: ((j + 1) % p, j) for j, i in enumerate(kept)}
    spans.update((i, (j, j)) for i, j in touching.items())
    faces = {}
    for i, group in enumerate(names):
        if len(group) > 1:  # a line two constraints share is a fault wherever it lies
            for n in group:
                faces[n] = next(o for o in group if o != n), None, None
        elif i in spans:
            faces[group[0]] = None, *(
                vertices[j] and (vertices[j], [n for n in at[j] if n != group[0]])
                for j in spans[i]
            )
    if gap is None:
        arcs: tuple = ()
    else:
        first, last = covectors[(gap + 1) % m], covectors[gap]
        arcs = ((rot90(last), vec_neg(rot90(first))),)
        if m == 2 and cross2(first, last) == 0:  # a strip
            arcs += ((vec_neg(rot90(last)),) * 2,)
    return True, True, _Cycle(faces, tightest, arcs)


def _interval(items: list[tuple[str, AffineFunctional]]) -> tuple[bool, bool, dict]:
    """Whether the half-lines of a 1-D domain's constraints, sorted by
    name, meet and have interior, and their ``_tightest`` table.  With
    ``c+`` the tightest constant on ``(1,)`` and ``c-`` on ``(-1,)``, the
    region is ``-c+ <= x <= c-``: empty when ``c+ + c- < 0`` and a
    single point when ``c+ + c- == 0``."""
    tightest = _tightest(items)
    if (1,) in tightest and (-1,) in tightest:
        width = tightest[(1,)][0] + tightest[(-1,)][0]
        return width >= 0, width > 0, tightest
    return True, True, tightest


def _compact_1d(fan: Fan, covectors: Collection[Vector]) -> bool:
    """Every recession direction ``x`` of the interval points away from
    a stratum of the fan (a ray on the side of ``-x``)."""
    return all(
        any(a[0] * x < 0 for a in covectors) or any(v[0] * x < 0 for v in fan.vectors)
        for x in (1, -1)
    )


# ------------------------------------------------------------ escapes


def _escape(
    domain_id: int,
    fan: Fan,
    direction: Vector,
    edge_at: Mapping[tuple[int, str], int],
) -> int | None:
    """Index of the edge a face line lands on when escaping in ``direction``.

    The escape reaches the stratum whose ray points opposite to the
    direction; escaping into a 2-cone means the face runs into a
    corner, which is rejected.  ``None`` means an open escape (outside
    the fan support).
    """
    target = vec_neg(direction)
    for idx, r in enumerate(fan.vectors):
        if cross2(r, target) == 0 and dot(r, target) > 0:
            return edge_at[(domain_id, fan.labels[idx])]
    for cone in fan.two_cones():
        if _holds(fan.arcs[cone], target):
            labels = "{" + ", ".join(fan.labels[i] for i in sorted(cone)) + "}"
            raise TransversalityError(
                f"a face of domain {domain_id} runs into the corner {labels}"
            )
    return None


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


def _feasible(space: WeldedSpace, spec: PolytopeSpec, region_of) -> dict:
    """Each domain the region meets, in order, with its region as
    ``region_of`` makes it from the domain's constraints sorted by name:
    a ``_Cycle`` in dimension 2, the ``_tightest`` table in dimension 1.
    A region that meets its domain without interior is a fault."""
    regions = {}
    for d in sorted(space.domain_ids):
        met, interior, region = region_of(sorted(spec.domain_constraints(d).items()))
        if met:
            if not interior:
                raise GeometryError(f"the region in domain {d} has an empty interior")
            regions[d] = region
    if not regions:
        raise GeometryError("the polytope is empty in every domain")
    return regions


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
    regions = _feasible(space, spec, _cycle)
    feasible = list(regions)
    face_label = _face_labels(spec)
    edge_at = {f: i for i, e in enumerate(space.edges) for f in e.faces}

    # face segments: the vertex-table key at each end, a vertex of the
    # cycle or, at an unbounded end, the landing of its escape (None
    # when the escape is open); the table gathers the faces through
    # each vertex
    table: dict[tuple, set[str]] = {}
    face_lines: dict[ConstraintRef, tuple[Vector, Vector, list, list]] = {}
    for ref, fn in spec.constraints:
        if ref[0] not in regions:
            continue
        ends = regions[ref[0]].face(ref)
        if ends is None:
            continue
        base, t = _line_of(fn)
        fan = space.fan(ref[0])
        bounds: list[Fraction | None] = []
        keys: list[tuple | None] = []
        for end, direction in zip(ends, (vec_neg(t), t)):
            if end is not None:
                key = 0, ref[0], end[0]
                bounds.append(dot(end[0], t) / dot(t, t))  # base is normal to t
                table.setdefault(key, set()).update({face_label[ref], face_label[(ref[0], end[1])]})
            else:
                edge = _escape(ref[0], fan, direction, edge_at)
                key = None
                if edge is not None:
                    position = dot(rot90(space.edges[edge].residue), base)
                    key = 1, edge, position
                    table.setdefault(key, set()).add(face_label[ref])
                bounds.append(None)
            keys.append(key)
        face_lines[ref] = base, t, bounds, keys

    # edge traces by edge index, with the continuation pairs they force;
    # a domain the region misses has no trace either
    traced: dict[int, tuple[str, tuple[int, ...], tuple]] = {}
    required_pairs: list[tuple[ConstraintRef, ConstraintRef, str]] = []
    for i, e in enumerate(space.edges):
        sides = [(d, regions[d].trace(e.residue)) for d, _ in e.faces if d in regions]
        present = [(d, t) for d, t in sides if t is not None]
        if not present:
            continue
        bounds = [tuple(end and end[0] for end in t) for _, t in present]
        if len(present) == 1:
            kind = "singular"
        else:
            (d1, t1), (d2, t2) = present
            if bounds[0] != bounds[1]:
                raise ContinuationError(
                    f"the traces across edge {e.label} disagree: "
                    f"[{bounds[0][0]}, {bounds[0][1]}] from domain {d1} vs "
                    f"[{bounds[1][0]}, {bounds[1][1]}] from domain {d2}"
                )
            kind = "divisor"
            required_pairs += [((d1, x[1]), (d2, y[1]), e.label) for x, y in zip(t1, t2) if x]
        traced[i] = kind, tuple(d for d, _ in present), bounds[0]

    # continuation: forced pairs must be declared, declared groups must
    # be forced together
    group_of = {ref: name for name, members in spec.groups for ref in members}
    for r1, r2, edge_label in required_pairs:
        g1, g2 = group_of.get(r1), group_of.get(r2)
        if g1 is None or g1 != g2:
            raise ContinuationError(
                f"constraints {r1[0]}.{r1[1]} and {r2[0]}.{r2[1]} continue "
                f"across edge {edge_label} but are not declared as one face"
            )
    runs = connected_runs((ref for ref, _ in spec.constraints), (p[:2] for p in required_pairs))
    run_of = {ref: k for k, (run, _) in enumerate(runs) for ref in run}
    for name, members in spec.groups:
        if len({run_of[ref] for ref in members}) > 1:
            raise ContinuationError(
                f"group {name!r} declares constraints that do not continue "
                "into each other across any edge"
            )

    # faces from constraints; a face is a circle exactly when every
    # segment end is a landing shared with one other segment
    face_members: dict[str, list[ConstraintRef]] = {}
    for ref, _ in spec.constraints:
        face_members.setdefault(face_label[ref], []).append(ref)
    nonsingular: list[PolytopeFace] = []
    for label, members in face_members.items():
        with_segment = [ref for ref in members if ref in face_lines]
        if not with_segment:
            continue
        ends = Counter(key for ref in with_segment for key in face_lines[ref][3])
        landed = sorted({key[1] for key in ends if key and key[0] == 1})
        nonsingular.append(
            PolytopeFace(
                label=label,
                kind="log" if landed else "interior",
                members=tuple(sorted(members)),
                edges=tuple(space.edges[i].label for i in landed),
                closed=all(key and key[0] == 1 and n == 2 for key, n in ends.items()),
            )
        )
    nonsingular.sort(key=lambda f: f.members[0])

    # corner clusters contained in the polytope: those a trace runs into
    cluster_germs: dict[str, list[tuple[int, str, Vector]]] = {}
    for i, (kind, _, (lower, upper)) in traced.items():
        e = space.edges[i]
        for bound, cid in ((lower, e.tail), (upper, e.head)):
            if bound is None and cid is not None:
                cluster_germs.setdefault(cid, []).append((i, kind, e.residue))
    corners_inside = [c.cluster_id for c in space.clusters if c.cluster_id in cluster_germs]
    table.update(((2, k, cid), set()) for k, cid in enumerate(corners_inside))

    # number the vertices: interior ones by (domain, point), landings by
    # (edge index, position), then the corners inside in cluster order
    vertex_id: dict[tuple, str] = {}
    vertices: list[PolytopeVertex] = []
    for key in sorted(table):
        kind, where, at = key
        vertex_id[key] = f"v{len(vertices) + 1}"
        vertices.append(
            PolytopeVertex(
                vertex_id=vertex_id[key],
                kind=("interior", "landing", "corner")[kind],
                domain_id=where if kind == 0 else None,
                point=at if kind == 0 else None,
                edge_label=space.edges[where].label if kind == 1 else None,
                position=at if kind == 1 else None,
                cluster_id=at if kind == 2 else None,
                faces=tuple(sorted(table[key])),
            )
        )

    segments = [
        FaceSegment(
            ref=ref,
            face_label=face_label[ref],
            base=base,
            direction=t,
            lower=bounds[0],
            upper=bounds[1],
            lower_vertex=keys[0] and vertex_id[keys[0]],
            upper_vertex=keys[1] and vertex_id[keys[1]],
        )
        for ref, (base, t, bounds, keys) in sorted(face_lines.items())
    ]
    traces = [
        EdgeTrace(
            edge_label=space.edges[i].label,
            residue=space.edges[i].residue,
            kind=kind,
            sides=sides,
            lower=lower,
            upper=upper,
            lower_vertex=None if lower is None else vertex_id[(1, i, lower)],
            upper_vertex=None if upper is None else vertex_id[(1, i, upper)],
        )
        for i, (kind, sides, (lower, upper)) in traced.items()
    ]

    # join singular traces and divisor arcs across corners: a corner
    # joins the two germs of one kind and residue it holds (of two at
    # most); a corner off the crossings where two residues meet is a meeting
    joins = []
    meetings = 0
    closed_ids = {c.cluster_id for c in space.clusters if c.closed}
    for cid in corners_inside:
        germs = cluster_germs.get(cid, [])
        by_class: dict[tuple[str, bool], list[int]] = {}
        for i, kind, residue in germs:
            by_class.setdefault((kind, residue == germs[0][2]), []).append(i)
        joins += [edge_ids for edge_ids in by_class.values() if len(edge_ids) == 2]
        if cid not in closed_ids and any(g[2] != germs[0][2] for g in germs):
            meetings += 1
    singular_faces: list[PolytopeFace] = []
    trace_components: list[TraceComponent] = []
    for run, closed in connected_runs(traced, joins):  # runs start at their first edge
        labs = tuple(space.edges[i].label for i in run)
        if traced[run[0]][0] == "singular":
            singular_faces.append(
                PolytopeFace(
                    label=f"s{len(singular_faces) + 1}",
                    kind="singular",
                    members=(),
                    edges=labs,
                    closed=closed,
                )
            )
        else:
            trace_components.append(
                TraceComponent(
                    label=f"t{len(trace_components) + 1}",
                    edges=labs,
                    residue=space.edges[run[0]].residue,
                    closed=closed,
                )
            )

    compact = all(regions[d].compact(space.fan(d)) for d in feasible)
    orientable = _crossing_signs(space, feasible, traces) is not None

    return LogPolytope(
        spec=spec,
        space=space,
        dim=2,
        feasible=tuple(feasible),
        traces=tuple(traces),
        segments=tuple(segments),
        faces=tuple(nonsingular) + tuple(singular_faces),
        vertices=tuple(vertices),
        trace_components=tuple(trace_components),
        crossings_inside=tuple(c for c in corners_inside if c in closed_ids),
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
    regions = _feasible(space, spec, _interval)
    feasible = list(regions)
    face_label = _face_labels(spec)

    traces: list[EdgeTrace] = []
    for e in space.edges:
        present = [
            d for d, _ in e.faces
            if d in regions and not any(dot(a, e.residue) > 0 for a in regions[d])
        ]
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
        if ref[0] not in regions:
            continue
        _, names = regions[ref[0]][tuple(map(int, fn.linear))]
        if ref[1] not in names:
            continue
        if len(names) > 1:
            other = next(n for n in names if n != ref[1])
            raise GeometryError(
                f"constraints {ref[0]}.{ref[1]} and {ref[0]}.{other} cut at the same point"
            )
        label = face_label[ref]
        faces.append(PolytopeFace(label, "interior", (ref,), (), False))
        vertices.append(
            PolytopeVertex(
                vertex_id=f"v{len(vertices) + 1}",
                kind="interior",
                domain_id=ref[0],
                point=_line_of(fn)[0],
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

    compact = all(_compact_1d(space.fan(d), regions[d]) for d in feasible)
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
    # a single primitive row is always saturated: only vertices can fail
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

    # compact: each segment escape lands, since its target lies in the
    # fan's support, and each unbounded trace end has a 2-cone on its
    # side, so it runs into a corner inside
    def _trace_ends(t: EdgeTrace) -> tuple[str, str]:
        e = p.space.edge(t.edge_label)
        return (
            t.lower_vertex or corner_vertex[e.tail],
            t.upper_vertex or corner_vertex[e.head],
        )

    boundary_edges = [(s.lower_vertex, s.upper_vertex) for s in p.segments]
    boundary_edges += [_trace_ends(t) for t in p.traces if t.kind == "singular"]
    degree = Counter(v for edge in boundary_edges for v in edge)
    bad = sorted(v for v, d in degree.items() if d != 2)
    if bad:
        raise GeometryError(
            f"the polytope boundary is not a 1-manifold at {', '.join(bad)}"
        )
    circles = len(connected_runs(degree, boundary_edges))

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


class _TPoly:
    """A polynomial in the cutoff ``T`` with exact coefficients, constant
    first, ordered as its values are for every large ``T``: by the
    highest coefficient in which two differ.  Zero coefficients are
    skipped, and a scalar touches the constant or scales each
    coefficient only."""

    __slots__ = ("coefs",)

    def __init__(self, *coefs) -> None:
        self.coefs = coefs

    def __add__(self, other) -> _TPoly:
        a = self.coefs
        if not isinstance(other, _TPoly):
            return _TPoly(a[0] + other, *a[1:]) if other else self
        b = other.coefs
        if len(a) < len(b):
            a, b = b, a
        return _TPoly(*[x + y if x and y else x or y for x, y in zip(a, b)], *a[len(b):])

    def __mul__(self, other) -> _TPoly:
        if not isinstance(other, _TPoly):
            return _TPoly(*[x and x * other for x in self.coefs])
        out = [0] * (len(self.coefs) + len(other.coefs) - 1)
        for i, x in enumerate(self.coefs):
            if x:
                for j, y in enumerate(other.coefs):
                    if y:
                        out[i + j] += x * y
        return _TPoly(*out)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> _TPoly:
        return _TPoly(*[-x for x in self.coefs])

    def __sub__(self, other) -> _TPoly:
        return self + -other

    def __rsub__(self, other) -> _TPoly:
        return -self + other

    def __truediv__(self, q) -> _TPoly:
        return self * (1 / Fraction(q))

    def _lead(self, other):
        """The highest coefficient of ``self - other`` that is not zero,
        else 0, without forming the difference."""
        a = self.coefs
        b = other.coefs if isinstance(other, _TPoly) else (other,)
        for k in range(max(len(a), len(b)) - 1, -1, -1):
            x = a[k] if k < len(a) else 0
            y = b[k] if k < len(b) else 0
            if x != y:
                return x - y
        return 0

    def __eq__(self, other) -> bool:
        return self._lead(other) == 0

    def __lt__(self, other) -> bool:
        return self._lead(other) < 0

    def __le__(self, other) -> bool:
        return self._lead(other) <= 0

    def __gt__(self, other) -> bool:
        return self._lead(other) > 0

    def __ge__(self, other) -> bool:
        return self._lead(other) >= 0


def _clipped_measure(p: LogPolytope, domain_id: int) -> _TPoly:
    """Length or area of the domain region cut off at ``r.u + T|r|^2 = 0``
    for each ray ``r``, ``T`` the symbolic cutoff.  The length is the
    clip of the axis; the area is a shoelace sum over the boundary, each
    edge taken counterclockwise: the build's face segments clipped by
    the cutoffs, and the cutoff lines clipped by every half-plane.  An
    edge on the line of ``a.u + c = 0``, from ``l`` to ``u`` along
    ``base + s t`` with ``base = -c a / |a|^2`` and ``t = rot90(a)``,
    adds ``cross2(base + u t, base + l t) = c (u - l)``, so the sum
    needs no end points.  The constraints' constants and, where there
    are rays, the face segments' ends are made ``_TPoly`` once, so every
    sum, difference, product and bound comparison that mixes a
    ``Fraction`` with a ``_TPoly`` has the ``_TPoly`` on its left and
    never fails first in ``Fraction``'s operator dispatch."""
    T = _TPoly(0, 1)
    rays = p.space.fan(domain_id).vectors
    cutoffs = [AffineFunctional(r, T * dot(r, r)) for r in rays]
    constraints = p.spec.domain_constraints(domain_id).values()
    walls = [*(AffineFunctional(g.linear, _TPoly(g.constant)) for g in constraints), *cutoffs]

    def end(x):
        # without a cutoff no bound is a _TPoly, and Fractions are faster
        return _TPoly(x) if cutoffs and x is not None else x

    if p.dim == 1:
        pieces = [((Fraction(0),), (Fraction(1),), None, None, walls, None)]
    else:
        pieces = [
            (s.base, s.direction, s.lower, s.upper, cutoffs, p.spec.constraint(s.ref).constant)
            for s in p.segments
            if s.ref[0] == domain_id
        ]
        pieces += [
            ((-T * f.linear[0], -T * f.linear[1]), rot90(f.linear), None, None, walls, f.constant)
            for f in cutoffs
        ]
    twice = _TPoly(0)
    for base, t, lower, upper, fns, c in pieces:
        ends = _clip(base, t, fns, end(lower), end(upper))
        if ends is None:
            continue
        lo, hi = ends  # compact: some ray's cutoff bounds each recession direction
        if p.dim == 1:
            return hi - lo
        twice += (hi - lo) * c
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
    total = sum((_clipped_measure(p, d) * (signs[d] * norm) for d in p.feasible), _TPoly(0))
    const, *growth = total.coefs
    if any(growth):
        terms = ", ".join(f"T^{k}: {c}" for k, c in enumerate(growth, 1) if c)
        raise GeometryError(f"the regularized volume diverges: nonzero coefficients {terms}")
    return Fraction(const)
