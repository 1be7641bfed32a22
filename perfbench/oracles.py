"""Closed-form answers for the generated families, written without the
program's code.

Grids are 2m x 2m square-fan domains (``n = 2m`` per side).  Every
domain face is either welded to a neighbour or a boundary edge, every
grid vertex is a crossing (four quadrants) or a boundary corner, and
the welded divisor is the set of grid lines between domains: a line
that wraps is a circle, one that ends on the boundary is open.
"""

from __future__ import annotations

from fractions import Fraction

from generators import Polygon


def grid_weld_report(variant: str, m: int) -> dict[str, object]:
    """The ``logaffine weld`` summary fields of a grid variant."""
    n = 2 * m
    cols_wrap = variant in ("torus", "comb", "cylinder")
    rows_wrap = variant in ("torus", "comb")
    # lines between neighbouring columns (vertical) and rows (horizontal)
    col_lines = n if cols_wrap else n - 1
    row_lines = n if rows_wrap else n - 1
    pairs = n * col_lines + n * row_lines
    vertices = (n if cols_wrap else n + 1) * (n if rows_wrap else n + 1)
    crossings = col_lines * row_lines
    return {
        "dim": 2,
        "domains": n * n,
        "pairs": pairs,
        "edges": 4 * n * n - pairs,
        "crossings": crossings,
        "boundary_corners": vertices - crossings,
        "divisor_components": col_lines + row_lines,
        # a vertical line closes up when the rows wrap, a horizontal one
        # when the columns do
        "closed_components": (col_lines if rows_wrap else 0)
        + (row_lines if cols_wrap else 0),
        "orientable": True,
        "compact": True,
        "boundary": not rows_wrap,
    }


def grid_cohomology(variant: str, m: int) -> dict[str, object]:
    """Betti numbers, log cohomology, Euler characteristic and genus."""
    betti = {
        "torus": (1, 2, 1),
        "comb": (1, 2, 1),
        "cylinder": (1, 1, 0),
        "disc": (1, 0, 0),
    }[variant]
    h = {
        "torus": (1, 4 * m + 2, (2 * m + 1) ** 2, 0),
        "comb": (1, 4 * m + 2, (2 * m + 1) ** 2, 0),
        "cylinder": (1, 4 * m, 4 * m * m - 1, 0),
        "disc": (1, 4 * m - 2, (2 * m - 1) ** 2, 0),
    }[variant]
    return {
        "betti": betti,
        "log_cohomology": h,
        "euler": betti[0] - betti[1] + betti[2],
        "genus": 1 if variant in ("torus", "comb") else None,
    }


def polygon_area(polygon: Polygon) -> Fraction:
    """Each corner chop at lattice depth s removes a triangle of area s^2 / 2."""
    return Fraction(polygon.size**2) - Fraction(sum(s * s for s in polygon.chops), 2)
