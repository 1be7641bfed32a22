"""Seeded generators of workspace file texts for the benchmark.

Every generator takes a ``random.Random`` and returns plain file texts;
the same seed always yields the same bytes.  The texts reference the
shared library files in ``LIBRARY`` by relative path, so a run writes
those once into its work directory and hands the program the
generated welding or polytope text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SQUARE_FAN = """logaffine fan 1
dim 2
vector a = (1, 0)
vector b = (0, 1)
vector c = (-1, 0)
vector d = (0, -1)
cone []
cone [a]
cone [b]
cone [c]
cone [d]
cone [a b]
cone [a d]
cone [b c]
cone [c d]
"""

EMPTY_FAN = """logaffine fan 1
dim 2
cone []
"""

PLANE_WELD = """logaffine welding 1
fan E = empty.fan
domain 1 = E
"""

ZERO_BUNDLE = """logaffine bundle 1
rank 2
chern 1 = (0)
chern 2 = (0)
"""


def _line_fan(slope: int) -> str:
    """The fan with the two rays +-(1, slope) and no 2-dimensional cone."""
    return (
        "logaffine fan 1\ndim 2\n"
        f"vector a = (1, {slope})\nvector c = (-1, {-slope})\n"
        "cone []\ncone [a]\ncone [c]\n"
    )


STRIP_SHEARS = tuple(range(1, 9))

LIBRARY = {
    "square.fan": SQUARE_FAN,
    "empty.fan": EMPTY_FAN,
    "plane.weld": PLANE_WELD,
    "zero.bundle": ZERO_BUNDLE,
}
for _s in (0,) + STRIP_SHEARS:
    LIBRARY[f"line{_s}.fan"] = _line_fan(_s)
    LIBRARY[f"line{_s}.weld"] = (
        f"logaffine welding 1\nfan L = line{_s}.fan\ndomain 1 = L\n"
    )


# ------------------------------------------------------------ grid weldings

GRID_VARIANTS = ("torus", "comb", "cylinder", "disc")


@dataclass(frozen=True)
class GridCase:
    """A 2m x 2m grid of square-fan domains and the pairs its text lists."""

    variant: str
    m: int
    text: str
    listed: int

    @property
    def domains(self) -> int:
        return 4 * self.m * self.m


def grid_pairs(variant: str, m: int) -> list[tuple[int, str, int, str]]:
    """Face pairs ``(domain, ray, domain, ray)`` of the grid variant.

    Domain ``(r, c)`` has id ``r * 2m + c + 1``.  Neighbours across a
    column boundary share ray ``a`` when the left column is even and
    ray ``c`` when it is odd; rows use ``b`` and ``d`` the same way.
    Tori wrap both directions, cylinders wrap columns only, discs
    wrap neither; a comb lists the torus rows plus column 0's rungs
    and leaves the remaining rungs to corner closure.
    """
    n = 2 * m
    wrap_cols = variant in ("torus", "comb", "cylinder")
    wrap_rows = variant in ("torus", "comb")
    pairs = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n or wrap_cols:
                ray = "a" if c % 2 == 0 else "c"
                pairs.append((r * n + c + 1, ray, r * n + (c + 1) % n + 1, ray))
    for c in range(n if variant != "comb" else 1):
        for r in range(n):
            if r + 1 < n or wrap_rows:
                ray = "b" if r % 2 == 0 else "d"
                pairs.append((r * n + c + 1, ray, ((r + 1) % n) * n + c + 1, ray))
    return pairs


def grid_welding(rng: random.Random, variant: str, m: int) -> GridCase:
    """A grid welding text with its pairs listed in a seeded order."""
    pairs = grid_pairs(variant, m)
    rng.shuffle(pairs)
    lines = ["logaffine welding 1", "fan S = square.fan"]
    lines += [f"domain {i} = S" for i in range(1, 4 * m * m + 1)]
    for index, (d1, r1, d2, r2) in enumerate(pairs, start=1):
        left, right = (f"{d1}.{r1}", f"{d2}.{r2}")
        if rng.random() < 0.5:
            left, right = right, left
        lines.append(f"pair p{index} = {left} ~ {right}")
    return GridCase(variant, m, "\n".join(lines) + "\n", len(pairs))


# -------------------------------------------------------- Delzant polygons

Row = tuple[int, int]


def _cross(u: Row, v: Row) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot(u: Row, v: Row) -> int:
    return u[0] * v[0] + u[1] * v[1]


@dataclass(frozen=True)
class Polygon:
    """A Delzant polygon as ``n.x + c >= 0`` constraints.

    ``sides`` lists the facet constraints in boundary order and
    ``redundant`` constraints that hold strictly on the whole polygon.
    ``chops`` are the lattice sizes of the corner chops that cut the
    polygon from the square ``[0, size]^2``.
    """

    size: int
    sides: tuple[tuple[Row, int], ...]
    redundant: tuple[tuple[Row, int], ...]
    chops: tuple[int, ...]


def _vertex(first: tuple[Row, int], second: tuple[Row, int]) -> Row:
    """Intersection of the lines of two unimodular constraints."""
    (n1, c1), (n2, c2) = first, second
    det = _cross(n1, n2)
    x = (-c1 * n2[1] + c2 * n1[1]) // det
    y = (-n1[0] * c2 + n2[0] * c1) // det
    return (x, y)


def polygon_vertices(sides) -> list[Row]:
    """Vertex ``i`` lies between side ``i`` and side ``i + 1``."""
    return [_vertex(sides[i], sides[(i + 1) % len(sides)]) for i in range(len(sides))]


def delzant_polygon(rng: random.Random, k: int, redundant: int = 0) -> Polygon:
    """Chop corners off a square until it has ``k`` sides.

    Chopping the corner between inward normals ``n1`` and ``n2`` (a
    lattice basis) with the normal ``n1 + n2`` at lattice depth ``s``
    keeps every vertex smooth and removes a triangle of area
    ``s^2 / 2``.  Only corners with at least half the widest room are
    chopped, by at most half the shorter adjacent edge, so no edge
    vanishes and the edges shrink evenly.
    """
    if k < 4:
        raise ValueError("a chopped square has at least 4 sides")
    size = 16 * k
    sides: list[tuple[Row, int]] = [((0, 1), 0), ((-1, 0), size), ((0, -1), size), ((1, 0), 0)]
    chops: list[int] = []
    while len(sides) < k:
        verts = polygon_vertices(sides)
        # lattice lengths of the edges; edge i runs from vertex i - 1 to i
        lengths = [
            math.gcd(v[0] - u[0], v[1] - u[1]) for u, v in zip(verts[-1:] + verts, verts)
        ]
        room = [min(lengths[i], lengths[(i + 1) % len(verts)]) - 1 for i in range(len(verts))]
        widest = max(room)
        if widest < 2:
            raise ValueError(f"no corner left to chop at {len(sides)} sides")
        i = rng.choice([i for i, r in enumerate(room) if 2 * r >= widest])
        p = verts[i]
        s = rng.randint(max(1, room[i] // 4), room[i] // 2)
        (n1, _), (n2, _) = sides[i], sides[(i + 1) % len(sides)]
        normal = (n1[0] + n2[0], n1[1] + n2[1])
        sides.insert(i + 1, (normal, -s - _dot(normal, p)))
        chops.append(s)
    verts = polygon_vertices(sides)
    extra: list[tuple[Row, int]] = []
    while len(extra) < redundant:
        normal = (rng.randint(-3, 3), rng.randint(-3, 3))
        if math.gcd(*normal) != 1:
            continue
        low = min(_dot(normal, v) for v in verts)
        line = (normal, rng.randint(1, size) - low)
        # the program rejects two constraints on one line
        if line not in extra:
            extra.append(line)
    return Polygon(size, tuple(sides), tuple(extra), tuple(chops))


def shear_polygon(polygon: Polygon, matrix: tuple[Row, Row]) -> Polygon:
    """The image of ``polygon`` under the unimodular ``matrix``.

    A point moves by ``x -> A x``, so a covector moves by ``n -> n A^-1``.
    """
    (a, b), (c, d) = matrix
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("the shear must be unimodular")
    inverse = ((d * det, -b * det), (-c * det, a * det))

    def move(n: Row) -> Row:
        return (
            n[0] * inverse[0][0] + n[1] * inverse[1][0],
            n[0] * inverse[0][1] + n[1] * inverse[1][1],
        )

    return Polygon(
        polygon.size,
        tuple((move(n), c) for n, c in polygon.sides),
        tuple((move(n), c) for n, c in polygon.redundant),
        polygon.chops,
    )


def random_unimodular(rng: random.Random) -> tuple[Row, Row]:
    """A product of two elementary shears with entries in [-3, 3]."""
    s, t = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3)
    # [[1, s], [0, 1]] @ [[1, 0], [t, 1]]
    return ((1 + s * t, s), (t, 1))


def _functional(n: Row, c: int) -> str:
    sign = "+" if c >= 0 else "-"
    return f"({n[0]}, {n[1]}) {sign} {abs(c)}"


def polygon_text(rng: random.Random, polygon: Polygon) -> str:
    """A polytope file on the plane listing the constraints in a seeded order."""
    named = [(f"f{i}", row) for i, row in enumerate(polygon.sides, start=1)]
    named += [(f"r{i}", row) for i, row in enumerate(polygon.redundant, start=1)]
    rng.shuffle(named)
    lines = ["logaffine polytope 1", "welding plane.weld"]
    lines += [f"constraint 1.{name} = {_functional(n, c)}" for name, (n, c) in named]
    lines.append("orientation +")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- strips


def strip_texts(s: int) -> tuple[str, str]:
    """The strip ``0 <= y <= 1`` beside rays +-(1, 0), and its image
    under the shear ``[[1, 0], [s, 1]]`` (rays +-(1, s))."""
    base = (
        "logaffine polytope 1\nwelding line0.weld\n"
        "constraint 1.lo = (0, 1) + 0\nconstraint 1.hi = (0, -1) + 1\n"
        "orientation +\n"
    )
    sheared = (
        f"logaffine polytope 1\nwelding line{s}.weld\n"
        f"constraint 1.lo = ({-s}, 1) + 0\nconstraint 1.hi = ({s}, -1) + 1\n"
        "orientation +\n"
    )
    return base, sheared
