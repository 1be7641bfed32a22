"""Homology of large generated grids against closed forms.

A 2m x 2m grid of square-fan domains welded as a torus, a comb (the
torus rows plus one column of rungs, closure welds the rest), a
cylinder or a disc has the Betti numbers of that surface and log
cohomology h = (1, h1, h2, 0): one class per divisor component in
degree 1, and one per closed component and per crossing in degree 2.
"""

from __future__ import annotations

import pytest
from conftest import FIXTURES, grid_pairs

from logaffine.fileio import parse_welding_text
from logaffine.topology import betti_numbers, log_cohomology_dims
from logaffine.welding import build_welded_space


def grid_text(variant: str, m: int) -> str:
    lines = ["logaffine welding 1", "fan S = square.fan"]
    lines += [f"domain {i} = S" for i in range(1, 4 * m * m + 1)]
    lines += [
        f"pair p{k} = {d1}.{r1} ~ {d2}.{r2}"
        for k, (d1, r1, d2, r2) in enumerate(grid_pairs(variant, m), start=1)
    ]
    return "\n".join(lines) + "\n"


def closed_forms(variant: str, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return {
        "torus": ((1, 2, 1), (1, 2 + 4 * m, (2 * m + 1) ** 2, 0)),
        "comb": ((1, 2, 1), (1, 2 + 4 * m, (2 * m + 1) ** 2, 0)),
        "cylinder": ((1, 1, 0), (1, 4 * m, 4 * m * m - 1, 0)),
        "disc": ((1, 0, 0), (1, 4 * m - 2, (2 * m - 1) ** 2, 0)),
    }[variant]


@pytest.mark.parametrize(
    "variant,m",
    [("torus", 4), ("comb", 4), ("cylinder", 4), ("disc", 4), ("torus", 6), ("torus", 12)],
)
def test_grid_homology_closed_forms(variant: str, m: int) -> None:
    spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
    space = build_welded_space(spec)
    betti, log_dims = closed_forms(variant, m)
    assert betti_numbers(space) == betti
    assert log_cohomology_dims(space) == log_dims
