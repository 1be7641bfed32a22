"""Deterministic SVG pictures of fans, welded domains and polytopes.

Every drawing is a row of fixed-size panels, one per domain: rays are
arrows out of the panel center, two-dimensional cones are shaded
wedges, and polytope constraints appear as boundary lines with hatch
ticks on the excluded side.  All coordinates are formatted with a fixed
precision so equal inputs produce identical bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import GeometryError, UnsupportedDimensionError
from .fans import Fan
from .polytopes import PolytopeSpec
from .rational import Vector, is_zero, rot90
from .welding import WeldingSpec

PANEL = 260
MARGIN = 20
RAY_LENGTH = 95.0
CONE_RADIUS = 70.0
HATCH_LENGTH = 9.0
HATCH_SPACING = 16.0

_STYLE = (
    "  <style>\n"
    "    .frame { fill: none; stroke: #b0b0b0; stroke-width: 1; }\n"
    "    .cone { fill: #cfe0f5; stroke: none; }\n"
    "    .ray { stroke: #1a1a1a; stroke-width: 2; }\n"
    "    .constraint { stroke: #b03030; stroke-width: 1.5; }\n"
    "    .hatch { stroke: #b03030; stroke-width: 1; }\n"
    "    text { font-family: monospace; font-size: 12px; fill: #1a1a1a; }\n"
    "  </style>\n"
)

_ARROW = (
    '  <defs>\n'
    '    <marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" '
    'markerWidth="6" markerHeight="6" orient="auto">\n'
    '      <path d="M 0 0 L 8 4 L 0 8 z" fill="#1a1a1a"/>\n'
    '    </marker>\n'
    '  </defs>\n'
)


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _unit(v: Vector) -> tuple[float, float]:
    # divided exactly by 2**k, k near log2 of the largest coordinate: both
    # floats are in range, and a vector already in range rounds as unscaled
    k = max(c.numerator.bit_length() - c.denominator.bit_length() for c in v if c)
    n, d = (1 << -k, 1) if k < 0 else (1, 1 << k)
    x, y = (c.numerator * n / (c.denominator * d) for c in v)
    length = math.hypot(x, y)
    return (x / length, y / length)


def _panel_point(center: tuple[float, float], direction: tuple[float, float], radius: float) -> tuple[float, float]:
    # SVG y grows downward, lattice y grows upward
    return (center[0] + radius * direction[0], center[1] - radius * direction[1])


def _require_dim2(dim: int, what: str) -> None:
    if dim != 2:
        raise UnsupportedDimensionError(
            f"rendering draws {what} of dimension 2, not {dim}"
        )


def _fan_panel(
    fan: Fan, center: tuple[float, float], title: str, labels: tuple[str, ...]
) -> list[str]:
    parts: list[str] = []
    left = center[0] - PANEL / 2
    top = center[1] - PANEL / 2
    parts.append(
        f'  <rect class="frame" x="{_fmt(left)}" y="{_fmt(top)}" '
        f'width="{PANEL}" height="{PANEL}"/>'
    )
    parts.append(
        f'  <text x="{_fmt(left + 6)}" y="{_fmt(top + 16)}">{title}</text>'
    )
    directions = [_unit(v) for v in fan.vectors]
    for cone in sorted(fan.cones, key=lambda c: sorted(c)):
        if len(cone) != 2:
            continue
        i, j = sorted(cone)
        di, dj = directions[i], directions[j]
        mid = (di[0] + dj[0], di[1] + dj[1])
        norm = math.hypot(*mid)
        points = [center, _panel_point(center, di, CONE_RADIUS)]
        if norm > 1e-9:
            points.append(
                _panel_point(center, (mid[0] / norm, mid[1] / norm), CONE_RADIUS)
            )
        points.append(_panel_point(center, dj, CONE_RADIUS))
        body = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        parts.append(f'  <polygon class="cone" points="{body}"/>')
    for label, direction in zip(labels, directions):
        tip = _panel_point(center, direction, RAY_LENGTH)
        parts.append(
            f'  <line class="ray" x1="{_fmt(center[0])}" y1="{_fmt(center[1])}" '
            f'x2="{_fmt(tip[0])}" y2="{_fmt(tip[1])}" marker-end="url(#arrow)"/>'
        )
        anchor = _panel_point(center, direction, RAY_LENGTH + 14)
        parts.append(
            f'  <text x="{_fmt(anchor[0] - 4)}" y="{_fmt(anchor[1] + 4)}">{label}</text>'
        )
    return parts


def _constraint_lines(
    name: str,
    linear: Vector,
    constant: Fraction,
    center: tuple[float, float],
    scale: Fraction,
) -> list[str]:
    parts: list[str] = []
    norm_sq = sum(c * c for c in linear)
    base = tuple(-constant * c / norm_sq for c in linear)
    tangent = _unit(rot90(linear))
    # exact until scaled to the panel, since the base may lie beyond the float range
    base_px = _panel_point(center, tuple(float(x * scale) for x in base), 1)
    half = PANEL * 0.45
    p0 = (base_px[0] - half * tangent[0], base_px[1] + half * tangent[1])
    p1 = (base_px[0] + half * tangent[0], base_px[1] - half * tangent[1])
    parts.append(
        f'  <line class="constraint" x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" '
        f'x2="{_fmt(p1[0])}" y2="{_fmt(p1[1])}"/>'
    )
    # hatch ticks point into the excluded half-space, against the covector
    outward = _unit(tuple(-c for c in linear))
    ticks = int((2 * half) // HATCH_SPACING)
    for k in range(ticks + 1):
        t = -half + k * HATCH_SPACING
        foot = (base_px[0] + t * tangent[0], base_px[1] - t * tangent[1])
        tip = (
            foot[0] + HATCH_LENGTH * outward[0],
            foot[1] - HATCH_LENGTH * outward[1],
        )
        parts.append(
            f'  <line class="hatch" x1="{_fmt(foot[0])}" y1="{_fmt(foot[1])}" '
            f'x2="{_fmt(tip[0])}" y2="{_fmt(tip[1])}"/>'
        )
    label_at = (base_px[0] + 8 * outward[0], base_px[1] - 8 * outward[1])
    parts.append(
        f'  <text x="{_fmt(label_at[0])}" y="{_fmt(label_at[1])}">{name}</text>'
    )
    return parts


def _document(panel_count: int, body: list[str]) -> str:
    width = MARGIN * 2 + PANEL * panel_count + MARGIN * (panel_count - 1)
    height = MARGIN * 2 + PANEL
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    return head + _STYLE + _ARROW + "\n".join(body) + "\n</svg>\n"


def _panel_center(index: int) -> tuple[float, float]:
    return (
        MARGIN + PANEL / 2 + index * (PANEL + MARGIN),
        MARGIN + PANEL / 2,
    )


def render_fan(fan: Fan) -> str:
    """A single panel with the fan's rays and shaded two-cones."""
    _require_dim2(fan.dim, "fans")
    for label, v in zip(fan.labels, fan.vectors):
        if is_zero(v):
            raise GeometryError(f"vector {label} is zero")
    return _document(1, _fan_panel(fan, _panel_center(0), "fan", fan.labels))


def render_welding(spec: WeldingSpec) -> str:
    """One panel per domain; welded rays carry their pair label."""
    _require_dim2(spec.dim, "welded domains")
    pair_of: dict[tuple[int, str], str] = {}
    for pair in spec.pairs:
        for face in pair.faces():
            pair_of[face] = pair.label or "~"
    body: list[str] = []
    for index, (domain_id, fan) in enumerate(spec.domain_items):
        labels = tuple(
            f"{label}[{pair_of[(domain_id, label)]}]" if (domain_id, label) in pair_of else label
            for label in fan.labels
        )
        body.extend(_fan_panel(fan, _panel_center(index), f"domain {domain_id}", labels))
    return _document(max(len(spec.domain_items), 1), body)


def render_polytope(spec: PolytopeSpec) -> str:
    """Domain panels with the fan plus hatched constraint half-spaces."""
    welding = spec.welding
    _require_dim2(welding.dim, "polytopes")
    constants = [
        abs(f.constant) for _, f in spec.constraints if f.constant != 0
    ]
    reach = max(constants) if constants else Fraction(1)
    scale = Fraction(CONE_RADIUS) / reach
    body: list[str] = []
    for index, (domain_id, fan) in enumerate(welding.domain_items):
        center = _panel_center(index)
        body.extend(_fan_panel(fan, center, f"domain {domain_id}", fan.labels))
        for ref, functional in spec.constraints:
            if ref[0] != domain_id:
                continue
            body.extend(
                _constraint_lines(
                    f"{ref[0]}.{ref[1]}",
                    functional.linear,
                    functional.constant,
                    center,
                    scale,
                )
            )
    return _document(max(len(welding.domain_items), 1), body)
