"""Log affine polytopes: regions of a welded space cut out by
affine-linear constraints, their face structure, compactness and
lattice (Delzant) checks, and regularized volume.

A polytope is described per domain by constraints ``a(u) + c >= 0``
with primitive integer covector ``a``.  Faces continue across welded
edges; continuation groups are declared in the input and validated
against the forced geometry.

Each planar domain's region is computed once, as its vertex cycle: the
constraint lines sorted by angle and their half-planes intersected with
a deque (``_cycle``), in O(k log k) for k constraints.  The cycle runs
on Python ints: a line is its primitive covector ``a`` and its constant
``p / q``, and a vertex is homogeneous, ``(x, y, w)`` with ``w > 0``, so
no step divides, and vertices rank by point over the lcm of their ``w``.
A kept vertex becomes a pair of Fractions once; a face's bound along its
line (``_along``), a landing's position and a trace's ends are each one
Fraction of ints: the fields hold Fractions, as the input does.  The
build reads everything about the region off that cycle: feasibility,
each face's segment as two vertices of the cycle (or the fault that
rejects it) and each edge trace from the tightest constraints
perpendicular to the residue, and keeps the cycles outside the
polytope's fields.  A line the cycle drops is checked once, at the
vertex its normal points to.  A region without interior is told from an
empty one by the cycle of the half-planes moved outwards by an
infinitesimal.  Compactness is read off the ends the build finds: the
polytope is compact when no face escapes outside the fan's support,
every unbounded trace end runs into a corner, and no domain is the whole
plane over a fan without rays (the argument is at ``_build_2d``'s
``compact``).  In dimension 1 the region is the interval between the
tightest bounds on its two sides, read off the table of the tightest
constraints on each covector (``_tightest``).

The volume cuts each domain off at a cutoff ``T`` by one more
half-plane per ray, which joins the kept ``_tightest`` table where no
constraint is on its covector.  Every value it then compares or sums is
a polynomial in ``T`` of degree at most 2 whose int coefficients the
table's ints bound, so ``T`` is one int past that bound (``_cutoff``),
not a search: each comparison has there the sign it has for every large
``T``, the build's int kernels run unchanged, and the balanced digits
of a shoelace term in that base are its coefficients (``_digits``).
The length is the sum of the tightest constants on the two sides, and
twice the area the shoelace sum over the kept cycle without rays (with
no ``T``), else over the cycle ``_intersect`` makes of the table's lines.
The lattice test at a vertex of two faces is their determinant being ±1.

The planar build numbers its vertices through one table, from a key to
the labels of the faces through the vertex: ``(0, domain id, rank)``
for a cycle's vertex, ranked by point, ``(1, edge index, position)`` for
a face landing on an edge stratum and ``(2, k, cluster id)`` for the
k-th corner cluster inside the polytope.  The sorted keys are the vertex
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
    DimensionMismatchError,
    GeometryError,
    NonCompactError,
    NonIntegerEntryError,
    NonOrientableError,
    SingularFaceError,
    TransversalityError,
    UnsupportedDimensionError,
)
from .fans import Fan, _before, _direction_cmp, _first_index
from .rational import (
    AffineFunctional,
    Vector,
    cross2,
    dot,
    rot90,
    vec_neg,
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

    def __post_init__(self) -> None:
        """Each reference names a domain of the welding and each group
        known constraints, once; each covector is primitive and integer."""
        if self.orientation not in (1, -1):
            raise GeometryError(f"orientation must be +1 or -1, got {self.orientation}")
        domain_ids = set(self.welding.domain_ids)
        seen: set[ConstraintRef] = set()
        for ref, functional in self.constraints:
            if ref in seen:
                raise GeometryError(f"duplicate constraint {ref[0]}.{ref[1]}")
            seen.add(ref)
            if ref[0] not in domain_ids:
                raise GeometryError(
                    f"constraint {ref[0]}.{ref[1]} references unknown domain {ref[0]}"
                )
            if len(functional.linear) != self.welding.dim:
                raise GeometryError(
                    f"constraint {ref[0]}.{ref[1]} has covector of length "
                    f"{len(functional.linear)}, expected {self.welding.dim}"
                )
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
            if math.gcd(*entries) != 1:
                raise GeometryError(
                    f"constraint {ref[0]}.{ref[1]} has a non-primitive covector "
                    f"{tuple(entries)}"
                )
        grouped: set[ConstraintRef] = set()
        names: set[str] = set()
        for name, members in self.groups:
            if name in names:
                raise GeometryError(f"duplicate group {name!r}")
            names.add(name)
            for ref in members:
                if ref not in seen:
                    raise GeometryError(
                        f"group {name!r} references unknown constraint {ref[0]}.{ref[1]}"
                    )
                if ref in grouped:
                    raise GeometryError(
                        f"constraint {ref[0]}.{ref[1]} appears in more than one group"
                    )
                grouped.add(ref)

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


def make_polytope_spec(
    welding: WeldingSpec,
    constraints,
    groups=(),
    orientation: int = 1,
) -> PolytopeSpec:
    """Assemble a polytope specification from references given as any
    pairs; ``PolytopeSpec`` checks it."""
    return PolytopeSpec(
        welding=welding,
        constraints=tuple(((ref[0], ref[1]), fn) for ref, fn in constraints),
        groups=tuple((name, tuple((m[0], m[1]) for m in members)) for name, members in groups),
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

    @functools.cached_property
    def _regions(self) -> dict:  # kept by the planar build, else made on first use
        return _feasible(self.space, self.spec, _cycle if self.dim == 2 else _interval)


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


# ------------------------------------------------------- vertex cycles


def _line_of(fn: AffineFunctional) -> tuple[Vector, Vector]:
    """A point of ``{fn = 0}`` and its direction (zero in dimension 1)."""
    a = tuple(map(int, fn.linear))  # a validated integer covector
    c = Fraction(fn.constant)
    n = c.denominator * sum(x * x for x in a)
    base = tuple(Fraction(-c.numerator * x, n) for x in a)
    return base, rot90(fn.linear) if len(a) == 2 else (Fraction(0),)


def _meet(f, g) -> tuple:
    """The point where the lines ``q a.u + p = 0`` of ``f = (a, p, q)``
    and ``g`` cross, homogeneous: ``(x, y, w)`` for ``(x / w, y / w)``,
    with ``w > 0`` when ``g`` turns counterclockwise from ``f`` by less
    than a half turn."""
    (a, p, q), (b, r, s) = f, g
    w = (a[0] * b[1] - a[1] * b[0]) * q * s
    return r * (a[1] * q) - p * (b[1] * s), p * (b[0] * s) - r * (a[0] * q), w


def _value(f, vertex: tuple):
    """``q a.u + p`` of ``f = (a, p, q)`` at the homogeneous vertex
    ``(x, y, w)``, times ``w``: its sign is the side of the line the
    vertex lies on."""
    (a, p, q), (x, y, w) = f, vertex
    return (x * a[0] + y * a[1]) * q + p * w


def _along(a: Vector, vertex: tuple) -> Fraction:
    """Where the homogeneous vertex ``(x, y, w)`` lies on a line of the
    covector ``a``: its ``s`` in ``_line_of``'s ``base + s rot90(a)``."""
    x, y, w = vertex
    return Fraction(a[0] * y - a[1] * x, w * (a[0] * a[0] + a[1] * a[1]))


def _half_turn(a: Vector, b: Vector) -> bool:
    """Whether the counterclockwise turn from ``a`` to ``b`` is at least
    a half turn (a full one when they are equal)."""
    c = cross2(a, b)
    return c < 0 or c == 0 and (a == b or dot(a, b) < 0)


def _cutoff(ints: Iterable[int]) -> int:
    """The int that stands for a cutoff ``T`` in lines ``(a, c0 + c1 T, q)``,
    ``ints`` their ``a``, ``c0``, ``c1`` and ``q``.  With ``h`` the largest
    ``|int|``, a ``_meet`` coordinate has coefficients of at most ``2h^3``
    and an int ``w`` of at most ``2h^4``, a ``_value`` at most ``6h^5``, a
    slab test or a ``_tightest`` comparison ``2h^2``, and a shoelace term
    ``x y1 - x1 y`` ``16h^6``.  Past ``64h^6`` each coefficient is below
    half the cutoff, so every value there has the sign of its highest
    nonzero coefficient, as for every large ``T``, and ``_digits`` reads
    a term's coefficients back exactly."""
    return 1 << (6 * max(map(abs, ints)).bit_length() + 6)


def _intersect(lines: list, gap: int | None):
    """Intersect the half-planes ``a.u + p / q >= 0`` of ``lines``,
    triples ``(a, p, q)`` of ints on distinct primitive covectors sorted
    counterclockwise, with ``q > 0``; ``gap`` is the line after which the
    next turns by a half turn or more (``None``: the covectors surround
    the origin and the region is bounded), as ``_turn_order`` finds it.

    Returns ``None`` when the intersection has no interior, otherwise
    ``(kept, vertices, touching)``: ``kept`` indexes the lines holding
    an edge of positive length, counterclockwise; ``vertices[j]`` is
    where the edge of ``kept[j - 1]`` ends and that of ``kept[j]``
    starts, homogeneous as ``_meet`` makes it (``None`` at infinity);
    ``touching`` maps every other line that meets the region to the
    vertex it touches there.  Nothing is divided: every step is on ints.
    """
    m = len(lines)
    constant = {a: (p, q) for a, p, q in lines}
    for a, p, q in lines:
        opposite = constant.get((-a[0], -a[1]))
        if opposite is not None and p * opposite[1] + opposite[0] * q <= 0:
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


class _Cycle:
    """A planar domain's region, read off its vertex cycle.

    ``faces`` maps the name of each constraint whose line meets the
    region, or lies along another constraint's line, to the first other
    name on its line (``None`` when there is none) and its lower and
    upper ends along ``_line_of``: ``None`` at infinity, else a vertex
    of the cycle as a pair of Fractions, the other names vanishing
    there, sorted, its bound along the line (``_along``) and its rank by point.
    ``tightest`` maps each covector to its tightest constant ``p / q``,
    as ``p`` and ``q``, and the names attaining it, sorted; ``vertices``
    are the cycle's, homogeneous, as ``_intersect`` makes them.
    """

    __slots__ = ("faces", "tightest", "vertices")

    def __init__(self, faces: dict, tightest: dict, vertices: list) -> None:
        self.faces = faces
        self.tightest = tightest
        self.vertices = vertices

    def face(self, ref: ConstraintRef):
        """The segment of constraint ``ref`` on the region: ``None`` when
        its line misses the region, else its lower and upper ends, each
        ``None`` at infinity or a vertex with the first other name
        vanishing there, its bound along ``_line_of`` and its rank by
        point.  A line along another constraint's, a segment of a single
        point and a third line through an end are faults."""
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
        return tuple(end and (end[0], end[1][0], end[2], end[3]) for end in (lower, upper))

    def trace(self, r: tuple[int, int], n: int):
        """The region's closure on the edge stratum with the residue
        ``r / n``, ``r`` integer, in the coordinate ``rot90(residue) . u``:
        ``None`` when the region does not recede towards the edge (along
        ``-residue``) because a covector is positive on the residue, else
        its lower and upper ends, each ``None`` when unbounded or the
        bound with the first tightest name on the covector perpendicular
        to the residue that sets it.  The region has interior, so the
        ends never meet."""
        # the bound -c |rv|^2 / (a . rv), rv = rot90(residue), is
        # -c |r|^2 / (n a . rot90(r))
        ends = [None, None]
        for a, (c, q, names) in self.tightest.items():
            slope = a[0] * r[0] + a[1] * r[1]
            if slope > 0:
                return None
            if slope == 0:
                coef = a[1] * r[0] - a[0] * r[1]
                norm = r[0] * r[0] + r[1] * r[1]
                ends[coef < 0] = Fraction(-c * norm, q * n * coef), names[0]
        return tuple(ends)


def _lines(items: Iterable[tuple[str, AffineFunctional]]) -> list[tuple]:
    """Each constraint ``(name, fn)`` as its half-plane ``a.u + p / q >= 0``:
    ``(name, a, p, q)`` with the primitive int covector ``a`` and ``q > 0``."""
    return [(name, tuple(map(int, fn.linear)), *fn.constant.as_integer_ratio()) for name, fn in items]


def _tightest(lines: Iterable[tuple]) -> dict[Vector, tuple]:
    """Each covector of the half-planes ``(name, a, p, q)``, with its
    tightest (least) constant as ``(p, q)`` and the names attaining it,
    in order."""
    tightest: dict[Vector, tuple] = {}
    for name, a, p, q in lines:
        best = tightest.get(a)
        if best is None or p * best[1] < best[0] * q:
            tightest[a] = p, q, [name]
        elif p * best[1] == best[0] * q:
            best[2].append(name)
    return tightest


def _turn_order(tightest: dict) -> tuple[list, int | None]:
    """The tightest line ``(a, p, q)`` on each covector of a
    ``_tightest`` table, sorted counterclockwise, and the gap
    ``_intersect`` takes: the first line after which the next turns by
    a half turn or more, ``None`` when the covectors surround the origin."""
    covectors = sorted(tightest, key=functools.cmp_to_key(_direction_cmp))
    m = len(covectors)
    gap = next((i for i in range(m) if _half_turn(covectors[i], covectors[(i + 1) % m])), None)
    return [(a, *tightest[a][:2]) for a in covectors], gap


def _cycle(items: list[tuple[str, AffineFunctional]]) -> tuple[bool, bool, _Cycle | None]:
    """Whether the half-planes of a planar domain's constraints, sorted
    by name, meet and have interior, and their region as a ``_Cycle``.

    Only the tightest constraint on each covector bounds the region; a
    looser one misses it, and one tied with it lies along the same line.
    Without interior, the region is nonempty exactly when the half-planes
    moved out by an infinitesimal ``1/T`` have interior: scaled by ``T``,
    the constants become ``1 + c T``, at the int ``T`` of ``_cutoff``.
    """
    if not items:
        return True, True, _Cycle({}, {}, [])
    tightest = _tightest(_lines(items))
    lines, gap = _turn_order(tightest)
    cycle = _intersect(lines, gap)
    if cycle is None:
        t = _cutoff([x for a, p, q in lines for x in (*a, p, q)])
        moved = [(a, q + p * t, q) for a, p, q in lines]  # (q + p T) / q = 1 + c T
        return _intersect(moved, gap) is not None, False, None
    kept, vertices, touching = cycle
    points = [v and (Fraction(v[0], v[2]), Fraction(v[1], v[2])) for v in vertices]
    # ranked by point on ints over the lcm of the w, which grows with the distinct w:
    # 256 vertices over 256 odd primes make 2,300-bit keys, still quicker to sort than Fractions
    lcm = math.lcm(*[v[2] for v in vertices if v])
    scaled = [(v[0] * (lcm // v[2]), v[1] * (lcm // v[2]), j) for j, v in enumerate(vertices) if v]
    rank = {j: r for r, (_, _, j) in enumerate(sorted(scaled))}
    names = [tightest[a][2] for a, _, _ in lines]
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
                vertices[j] and (
                    points[j],
                    [n for n in at[j] if n != group[0]],
                    _along(lines[i][0], vertices[j]),
                    rank[j],
                )
                for j in spans[i]
            )
    return True, True, _Cycle(faces, tightest, vertices)


def _interval(items: list[tuple[str, AffineFunctional]]) -> tuple[bool, bool, dict]:
    """Whether the half-lines of a 1-D domain's constraints, sorted by
    name, meet and have interior, and their ``_tightest`` table.  With
    ``c+ = p / q`` the tightest constant on ``(1,)`` and ``c- = r / s``
    on ``(-1,)``, the region is ``-c+ <= x <= c-``: empty when
    ``c+ + c- < 0``, that is when ``p s + r q < 0``, and a single point
    when it is 0."""
    tightest = _tightest(_lines(items))
    if (1,) in tightest and (-1,) in tightest:
        (p, q, _), (r, s, _) = tightest[(1,)], tightest[(-1,)]
        width = p * s + r * q
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
    direction (an integer vector: faces run along integer covectors);
    escaping into a 2-cone means the face runs into a corner, which is
    rejected.  ``None`` means an open escape (outside the fan support).
    """
    target = tuple(-int(c) for c in direction)
    ray = _before(fan, target)
    if ray is None:
        return None
    if _direction_cmp(fan.directions[ray], target) == 0:
        return edge_at[(domain_id, fan.labels[ray])]
    ccw = fan.turns[ray][0]
    if ccw is not None:
        labels = "{" + ", ".join(fan.labels[i] for i in sorted((ray, ccw))) + "}"
        raise TransversalityError(f"a face of domain {domain_id} runs into the corner {labels}")
    return None


# ---------------------------------------------------------- the build


def _check_same_welding(space: WeldedSpace, spec: PolytopeSpec) -> None:
    if spec.welding.dim != space.dim or (
        spec.welding.domain_items != space.spec.domain_items
    ):
        raise GeometryError("the polytope spec refers to a different welding")
    built = {faces for p in space.pairs for faces in ((p.left, p.right), (p.right, p.left))}
    for p in spec.welding.pairs:
        if (p.left, p.right) not in built:
            raise GeometryError("the polytope spec refers to a different welding")


def build_polytope(space: WeldedSpace, spec: PolytopeSpec) -> LogPolytope:
    """Cut the welded space by the spec's constraints and classify the
    result's faces, vertices and divisor arcs."""
    _check_same_welding(space, spec)
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
    signs, holds = two_colour(
        feasible,
        ((*space.edge(t.edge_label).domain_ids, -1) for t in traces if t.kind == "divisor"),
    )
    return signs if all(holds) else None


def _build_2d(space: WeldedSpace, spec: PolytopeSpec) -> LogPolytope:
    regions = _feasible(space, spec, _cycle)
    feasible = list(regions)
    face_label = _face_labels(spec)
    edge_at = {f: i for i, e in enumerate(space.edges) for f in e.faces}
    scaled = []  # each edge's residue as r / n, r integer, scaled once per edge
    for e in space.edges:
        (rx, nx), (ry, ny) = e.residue[0].as_integer_ratio(), e.residue[1].as_integer_ratio()
        scaled.append(((rx * ny, ry * nx), nx * ny))

    # face segments: the vertex-table key at each end, a vertex of the
    # cycle or, at an unbounded end, the landing of its escape (None
    # when the escape is open); the table gathers the faces through
    # each vertex
    table: dict[tuple, set[str]] = {}
    point_at: dict[tuple, Vector] = {}  # the point of each cycle vertex's key
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
                key = 0, ref[0], end[3]
                point_at[key] = end[0]
                bounds.append(end[2])
                table.setdefault(key, set()).update({face_label[ref], face_label[(ref[0], end[1])]})
            else:
                edge = _escape(ref[0], fan, direction, edge_at)
                key = None
                if edge is not None:
                    # rot90(residue) . base on ints: where c residue lies along the line
                    (r, n), (p, q) = scaled[edge], fn.constant.as_integer_ratio()
                    a = fn.linear[0].numerator, fn.linear[1].numerator
                    key = 1, edge, _along(a, (p * r[0], p * r[1], q * n))
                    table.setdefault(key, set()).add(face_label[ref])
                bounds.append(None)
            keys.append(key)
        face_lines[ref] = base, t, bounds, keys

    # edge traces by edge index, with the continuation pairs they force;
    # a domain the region misses has no trace either
    traced: dict[int, tuple[str, tuple[int, ...], tuple]] = {}
    required_pairs: list[tuple[ConstraintRef, ConstraintRef, str]] = []
    for i, e in enumerate(space.edges):
        sides = [(d, regions[d].trace(*scaled[i])) for d, _ in e.faces if d in regions]
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
        traced[i] = kind, tuple(d for d, _ in present), bounds[0], scaled[i]

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

    # corner clusters contained in the polytope: those a trace runs into;
    # an unbounded trace end with no cluster is an open end.  Each edge
    # running in is a germ, keyed by cluster, kind and its residue's (r, n)
    germs: dict[tuple[str, str, tuple], list[int]] = {}
    open_trace = False
    for i, (kind, _, (lower, upper), residue) in traced.items():
        e = space.edges[i]
        for bound, cid in ((lower, e.tail), (upper, e.head)):
            if bound is None and cid is not None:
                germs.setdefault((cid, kind, residue), []).append(i)
            open_trace |= bound is None and cid is None
    inside = {cid for cid, _, _ in germs}
    corners_inside = [c.cluster_id for c in space.clusters if c.cluster_id in inside]
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
                point=point_at[key] if kind == 0 else None,
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
        for i, (kind, sides, (lower, upper), _) in traced.items()
    ]

    # join singular traces and divisor arcs across corners: a corner
    # joins the two germs of one kind and residue it holds.  A cluster's
    # quadrants span the same two rays, so it holds two residues at most:
    # the open clusters holding two (meetings) number the open (cluster,
    # residue) pairs less the open clusters
    joins = [edge_ids for edge_ids in germs.values() if len(edge_ids) == 2]
    closed_ids = {c.cluster_id for c in space.clusters if c.closed}
    residues = {(cid, residue) for cid, _, residue in germs if cid not in closed_ids}
    meetings = len(residues) - len({cid for cid, _ in residues})
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

    # Compact: every recession direction of each region, negated, lies
    # in its fan's support.  That holds exactly when there is no open
    # end: (a) a segment end whose escape is open, (b) an unbounded
    # trace end whose edge has no cluster on that side, (c) a domain
    # with neither a constraint nor a ray.  Each fails it: (a) escapes
    # along a recession direction whose negation is outside the support;
    # in (b) the negated recession cone passes the trace's ray on that
    # side, where no 2-cone lies; (c) is the whole plane over no ray.
    # Conversely, let a region's negated recession arc A meet a gap G
    # between neighbouring rays.  If A lies in G, its ends are escape
    # targets of the region's unbounded edges: (a).  Otherwise A holds
    # an end ray r of G and runs past it into G, so no constraint
    # perpendicular to r bounds that side and r's trace is unbounded
    # there with no cluster: (b).  With no ray, an unbounded region has
    # an edge whose escape is open, (a), or no constraint, (c).  Matched
    # pairs have equal stars, so both sides of an edge share its clusters.
    compact = not (
        any(None in keys for *_, keys in face_lines.values())
        or open_trace
        or any(not space.fan(d).vectors and not spec.domain_constraints(d) for d in feasible)
    )
    orientable = _crossing_signs(space, feasible, traces) is not None

    built = LogPolytope(
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
    built.__dict__["_regions"] = regions  # kept for the volume
    return built


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
        names = regions[ref[0]][tuple(map(int, fn.linear))][2]
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
    through each stratum of the polytope, stopping at the first failure.

    One primitive row is always saturated, and the build puts at most two
    nonsingular faces on a vertex: a third line through a cycle's vertex is
    a ``DegenerateVertexError``, each side of an edge lands at most one face
    at a position (two would share a line or bound a slab without
    interior), a corner carries none and a 1-D vertex one.  So only two
    rows of two are tested, a basis when their determinant is a unit."""
    covector_of_face: dict[str, Vector] = {}
    for face in p.nonsingular_faces:
        covector_of_face[face.label] = p.spec.constraint(face.members[0]).linear
    for vertex in p.vertices:
        labels = [f for f in vertex.faces if f in covector_of_face]
        if len(labels) < 2:
            continue
        rows = tuple(covector_of_face[f] for f in labels)
        if len(rows) > len(rows[0]):
            raise DimensionMismatchError("more rows than columns")
        a, b, c, d = [x.numerator for row in rows for x in row]  # integral covectors
        if a * d - b * c not in (1, -1):
            return DelzantResult(False, ((vertex.vertex_id, rows),))
    return DelzantResult(True, ())


# ----------------------------------------------------------- topology


def _boundary(p: LogPolytope) -> list[tuple[int, tuple]]:
    """The domain and two end vertices of each face segment and singular
    trace: at an unbounded trace end, the corner inside it runs into.
    An open end is ``None``, which compactness rules out: each escape
    then lands, and each unbounded trace end has its corner."""
    corner_vertex = {v.cluster_id: v.vertex_id for v in p.vertices if v.kind == "corner"}
    pieces = [(s.ref[0], (s.lower_vertex, s.upper_vertex)) for s in p.segments]
    for t in p.traces:
        if t.kind == "singular":
            e = p.space.edge(t.edge_label)
            lower = t.lower_vertex or corner_vertex.get(e.tail)
            pieces.append((t.sides[0], (lower, t.upper_vertex or corner_vertex.get(e.head))))
    return pieces


def _check_connected(p: LogPolytope) -> None:
    """The momentum image of a connected manifold is connected: a domain
    joins the vertices its segments and singular traces end at (an end
    that is ``None`` in ``_boundary`` joins nothing), and a divisor
    trace joins its two sides."""
    joins = [(d, v) for d, ends in _boundary(p) for v in ends if v]
    joins += [t.sides for t in p.traces if t.kind == "divisor"]
    components = len(connected_runs([*p.feasible, *(v for _, v in joins)], joins))
    if components > 1:
        raise GeometryError(f"the polytope has {components} components")


def polytope_topology(p: LogPolytope) -> PolytopeTopology:
    """Euler characteristic, genus and boundary circles of a compact,
    connected 2-dimensional polytope, from its induced cell structure."""
    if p.dim != 2:
        raise UnsupportedDimensionError("polytope topology is 2-dimensional")
    if not p.compact:
        raise NonCompactError("the polytope is not compact")
    euler = len(p.vertices) - (len(p.segments) + len(p.traces)) + len(p.feasible)
    boundary_edges = [ends for _, ends in _boundary(p)]
    degree = Counter(v for edge in boundary_edges for v in edge)
    bad = sorted(v for v, d in degree.items() if d != 2)
    if bad:
        raise GeometryError(
            f"the polytope boundary is not a 1-manifold at {', '.join(bad)}"
        )
    circles = len(connected_runs(degree, boundary_edges))
    _check_connected(p)

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


def _digits(v: int, t: int) -> list[int]:
    """The balanced base-``t`` digits ``[c0, c1, c2]`` of ``v = c0 + c1 t + c2 t^2``
    with ``c0`` and ``c1`` in ``[-t/2, t/2)``: a term's coefficients when
    ``_cutoff`` bounds them."""
    half = t // 2
    high, c0 = divmod(v + half, t)
    c2, c1 = divmod(high + half, t)
    return [c0 - half, c1 - half, c2]


def _clipped_measure(p: LogPolytope, domain_id: int) -> list:
    """Length or area of the region the build kept, cut off at
    ``a.u + T g |a|^2 / n >= 0`` for each ray ``(g / n) a`` of ``Fan.directions``
    and ``Fan.scales``, as its coefficients of ``1, T, T^2``: a cutoff joins
    the ``_tightest`` table where no constraint, tighter by the ``T`` term, is
    on its covector, and ``T`` is the int ``_cutoff`` past the table's ints.
    The length is ``c+ + c-``; twice the area is the shoelace sum over the
    vertex cycle, closed as the polytope is compact (the build's without
    rays), over the product of the vertices' ``w``, each term split into its
    coefficients (``_digits``) where there are rays."""
    region, fan = p._regions[domain_id], p.space.fan(domain_id)
    tightest = region if p.dim == 1 else region.tightest
    if p.dim == 2 and not fan.vectors:
        twice, den, vertices = 0, 1, region.vertices
        for (x, y, w), (x1, y1, w1) in zip(vertices, vertices[1:] + vertices[:1]):
            twice = (x * y1 - x1 * y) * den + twice * (w * w1)
            den *= w * w1
        return [Fraction(twice, 2 * den), 0, 0]
    cutoffs = [(a, g * sum([x * x for x in a]), n) for a, (g, n) in zip(fan.directions, fan.scales)]
    lines = [*cutoffs, *[(a, c, q) for a, (c, q, _) in tightest.items()]]
    t = _cutoff([x for a, c, q in lines for x in (*a, c, q)])
    tightest = {**_tightest([(None, a, k * t, n) for a, k, n in cutoffs]), **tightest}
    if p.dim == 1:
        (c, q, _), (d, s, _) = tightest[(1,)], tightest[(-1,)]
        return [e and Fraction(e, q * s) for e in _digits(c * s + d * q, t)]
    vertices = _intersect(*_turn_order(tightest))[1]
    twice, den = [0, 0, 0], 1
    for (x, y, w), (x1, y1, w1) in zip(vertices, vertices[1:] + vertices[:1]):
        twice = [e * den + s * (w * w1) for e, s in zip(_digits(x * y1 - x1 * y, t), twice)]
        den *= w * w1
    return [e and Fraction(e, 2 * den) for e in twice]


def regularized_volume(p: LogPolytope, eps: Fraction | None = None) -> Fraction:
    """Principal-value volume of a compact oriented polytope without
    singular faces.

    Each domain is clipped once at a log-distance ``T`` from every
    stratum; the signed measures, summed with alternating domain signs,
    are the exact ``a0 + a1 T + a2 T^2`` for every large ``T``.
    The volume is ``a0`` if ``a1 = a2 = 0`` and diverges otherwise.
    The excision ``eps`` must lie in (0, 1) but does not change it."""
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
    total = [0, 0, 0]
    for d in p.feasible:
        for k, m in enumerate(_clipped_measure(p, d)):
            total[k] += m * (signs[d] * norm)
    const, *growth = total
    if any(growth):
        terms = ", ".join(f"T^{k}: {c}" for k, c in enumerate(growth, 1) if c)
        raise GeometryError(f"the regularized volume diverges: nonzero coefficients {terms}")
    return Fraction(const)
