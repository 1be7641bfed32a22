"""Simplicial rational fans in the plane (and the line).

A fan is a finite set of distinct nonzero rational vectors together
with a collection of generator-index sets ("cones") that is closed
downward, contains the empty cone, and never places one fan vector
inside the closed positive hull of a cone it does not belong to.
Cones are simplicial: their generators are linearly independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import UnsupportedDimensionError
from .rational import Vector, as_vector, cross2, is_zero


@dataclass(frozen=True)
class Fan:
    """An immutable fan; cones store indices into ``vectors``.  Its rays as
    primitive integer rows (``directions``) and their scales (``scales``),
    each ray's 2-cone neighbours by vector (``corner_neighbours``), a plane
    fan's rays in turn order (``ray_order``) and their neighbours on either
    side (``turns``) are computed once per fan."""

    dim: int
    vectors: tuple[Vector, ...]
    labels: tuple[str, ...]
    cones: frozenset[frozenset[int]]

    def index_of_label(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"no ray labelled {label!r}") from None

    def index_of_vector(self, v: Vector) -> int:
        try:
            return self._vector_index[v]
        except KeyError:
            raise KeyError(f"no ray with vector {v}") from None

    def two_cones(self) -> list[frozenset[int]]:
        return sorted((c for c in self.cones if len(c) == 2), key=sorted)

    # Lookups built on first use; a frozen dataclass keeps them in its
    # instance dict, outside the fields that equality and hashing read.

    @functools.cached_property
    def _label_index(self) -> dict[str, int]:
        return _first_index(self.labels)

    @functools.cached_property
    def _vector_index(self) -> dict[Vector, int]:
        return _first_index(self.vectors)

    @functools.cached_property
    def corner_neighbours(self) -> tuple[tuple[int, ...], ...]:
        """For each ray, the other rays of its 2-cones, sorted by vector:
        in a valid fan, every ray sharing a cone with it.  Welding pairs
        two rays' neighbours by position and visits a face's corners in
        this order."""
        out: list[list[int]] = [[] for _ in self.vectors]
        for cone in self.cones:
            if len(cone) == 2:
                i, j = cone
                out[i].append(j)
                out[j].append(i)
        return tuple(tuple(sorted(js, key=self.vectors.__getitem__)) for js in out)

    @functools.cached_property
    def turns(self) -> tuple[tuple[int | None, int | None], ...]:
        """For each ray of a plane fan, its 2-cone neighbours on either side.

        ``(ccw, cw)``: the neighbour a counterclockwise turn of less
        than a half turn reaches, then the one a clockwise turn reaches;
        None where the ray has no 2-cone on that side.  A 2-cone holds no
        other ray, so its two rays are next to each other in ``ray_order``.
        """
        out = [[None, None] for _ in self.vectors]
        order, v = self.ray_order, self.directions
        for i, j in zip(order, order[1:] + order[:1]):
            if cross2(v[i], v[j]) > 0 and frozenset((i, j)) in self.cones:
                out[i][0], out[j][1] = j, i
        return tuple(map(tuple, out))

    @functools.cached_property
    def directions(self) -> tuple[tuple[int, ...], ...]:
        """Each ray's primitive integer direction, so that angles compare and
        cones eliminate without fractions; (1/2, 0) and (3, 0) share the row (1, 0)."""
        out = []
        for v in self.vectors:
            n = math.lcm(*[c.denominator for c in v])
            ints = [c.numerator * (n // c.denominator) for c in v]
            g = math.gcd(*ints)
            out.append(tuple([x // g for x in ints]))
        return tuple(out)

    @functools.cached_property
    def scales(self) -> tuple[tuple[int, int], ...]:
        """Each ray as ``(g, n)``, ``g / n`` times its row of ``directions``:
        the gcd of its numerators over the lcm of its denominators, as each
        entry is in lowest terms."""
        out = []
        for v in self.vectors:
            out.append((math.gcd(*[c.numerator for c in v]), math.lcm(*[c.denominator for c in v])))
        return tuple(out)

    @functools.cached_property
    def ray_order(self) -> tuple[int, ...]:
        """The ray indices of a plane fan in counterclockwise order from
        the direction (1, 0) (``_direction_cmp``)."""
        key = functools.cmp_to_key(_direction_cmp)
        return tuple(sorted(range(len(self.vectors)), key=lambda i: key(self.directions[i])))


def _before(fan: Fan, x: Vector) -> int | None:
    """The ray of a plane fan at the direction ``x``, else the first one
    a clockwise turn from ``x`` meets; None when the fan has no rays."""
    order = fan.ray_order
    for i in reversed(order):
        if _direction_cmp(fan.directions[i], x) <= 0:
            return i
    return order[-1] if order else None


def _first_index(items: Sequence) -> dict:
    """Item -> position of its first occurrence, as ``tuple.index`` finds it."""
    index: dict = {}
    for i, item in enumerate(items):
        index.setdefault(item, i)
    return index


@dataclass(frozen=True)
class FanReport:
    """Validation outcome: ``ok`` plus a stable list of violations."""

    ok: bool
    violations: tuple[str, ...]


def make_fan(
    vectors: Sequence[Sequence],
    cones: Iterable[Iterable[int]],
    *,
    labels: Sequence[str] | None = None,
    dim: int | None = None,
) -> Fan:
    """Assemble a Fan from raw data without validating it."""
    vecs = tuple(as_vector(v) for v in vectors)
    if dim is None:
        if not vecs:
            raise ValueError("dim is required for a fan with no vectors")
        dim = len(vecs[0])
    if labels is None:
        labels = [f"v{i}" for i in range(len(vecs))]
    cone_set = frozenset(frozenset(c) for c in cones)
    return Fan(dim=dim, vectors=vecs, labels=tuple(labels), cones=cone_set)


def _eliminate(rows: list[list[int]], columns: int) -> bool:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer ``rows`` in
    place over their first ``columns`` columns; False once one has no pivot.
    The divisions are exact (entries stay minors); pivot ``i`` ends in row ``i``
    as the last pivot ``p``, so a carried column's entry there is ``p`` times its
    coordinate ``i``, and the rows past ``columns`` hold its residual."""
    prev = 1
    for col in range(columns):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for i, row in enumerate(rows):
            if i != col:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return True


def validate_fan(fan: Fan) -> FanReport:
    """Check every fan axiom; returns a report rather than raising.  The
    cone axioms read the rays' integer rows (``Fan.directions``), whose
    positive scaling keeps every rank and the sign of every hull coefficient."""
    violations: list[str] = []
    n = len(fan.vectors)
    if fan.dim < 1:
        violations.append(f"dimension must be positive, got {fan.dim}")
    if len(fan.labels) != n:
        violations.append("label count differs from vector count")
    elif len(set(fan.labels)) != n:
        violations.append("ray labels are not distinct")
    for i, v in enumerate(fan.vectors):
        if len(v) != fan.dim:
            violations.append(f"vector {fan.labels[i]} has length {len(v)} != dim {fan.dim}")
        elif is_zero(v):
            violations.append(f"vector {fan.labels[i]} is zero")
    if len(set(fan.vectors)) != n:
        violations.append("fan vectors are not distinct")
    if violations:
        return FanReport(False, tuple(violations))

    def name(cone: frozenset[int]) -> str:
        return "{" + " ".join(fan.labels[i] for i in sorted(cone)) + "}"

    if frozenset() not in fan.cones:
        violations.append("the empty cone is missing")
    d = fan.directions
    for cone in sorted(fan.cones, key=lambda c: (len(c), sorted(c))):
        if any(i < 0 or i >= n for i in cone):
            violations.append(f"cone with out-of-range generator index {sorted(cone)}")
            continue
        # one elimination per cone: its generators as columns, every
        # other ray as a carried column solved in them
        others = [j for j in range(n) if j not in cone]
        rows = [[d[i][r] for i in (*cone, *others)] for r in range(fan.dim)]
        k = len(cone)
        if not _eliminate(rows, k):
            violations.append(f"cone {name(cone)} has dependent generators")
            continue
        for i in cone:
            sub = cone - {i}
            if sub not in fan.cones:
                violations.append(f"cones are not closed under subsets: {name(sub)} missing")
        for col, j in enumerate(others, k):
            hull = all(r[col] * r[i] >= 0 for i, r in enumerate(rows[:k]))
            if hull and not any(r[col] for r in rows[k:]):
                violations.append(
                    f"vector {fan.labels[j]} lies in the closed hull of cone {name(cone)}"
                )
    return FanReport(not violations, tuple(violations))


def _resolve_ray(fan: Fan, ray) -> int:
    if isinstance(ray, str):
        return fan.index_of_label(ray)
    return fan.index_of_vector(as_vector(ray))


def star(fan: Fan, ray) -> set[frozenset[Vector]]:
    """All cones containing the given ray, resolved to vector sets.

    ``ray`` may be a label or the ray vector itself.
    """
    idx = _resolve_ray(fan, ray)
    return {frozenset(fan.vectors[i] for i in cone) for cone in fan.cones if idx in cone}


def _direction_cmp(u: Vector, v: Vector) -> int:
    """Exact counterclockwise comparison starting at direction (1, 0)."""

    def half(w: Vector) -> int:
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross2(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def is_complete(fan: Fan) -> bool:
    """Whether the cones of a valid fan cover every direction.

    A plane fan is complete exactly when it has rays and each ray has a
    2-cone on both sides (``turns``); a line fan when it has rays of
    both signs.  Other dimensions raise ``UnsupportedDimensionError``.
    """
    if fan.dim == 1:
        return {v[0] > 0 for v in fan.vectors} == {True, False}
    if fan.dim == 2:
        return bool(fan.vectors) and all(None not in t for t in fan.turns)
    raise UnsupportedDimensionError(f"no completeness test in dim {fan.dim}")
