"""Large generated inputs against closed forms.

A 2m x 2m grid of square-fan domains welded as a torus, a comb (the
torus rows plus one column of rungs, closure welds the rest), a
cylinder or a disc has the Betti numbers of that surface and log
cohomology h = (1, h1, h2, 0): one class per divisor component in
degree 1, and one per closed component and per crossing in degree 2.

A Delzant k-gon chopped from a square, with or without redundant
constraints, has the area the benchmark's oracle gives in closed form.
"""

from __future__ import annotations

import random

import pytest
from conftest import FIXTURES, benchmark_module, grid_pairs

from logaffine.fileio import parse_polytope_text, parse_welding_text
from logaffine.polytopes import build_polytope, regularized_volume
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


gen = benchmark_module("generators")
oracles = benchmark_module("oracles")


@pytest.mark.parametrize("k", [64, 128])
@pytest.mark.parametrize("with_redundant", [False, True])
def test_delzant_polygon_volume_closed_form(tmp_path, k: int, with_redundant: bool) -> None:
    for name, text in gen.LIBRARY.items():
        (tmp_path / name).write_text(text)
    rng = random.Random(k)
    polygon = gen.delzant_polygon(rng, k, k // 2 if with_redundant else 0)
    pf = parse_polytope_text(gen.polygon_text(rng, polygon), "p.poly", base=tmp_path)
    p = build_polytope(build_welded_space(pf.spec.welding), pf.spec)
    assert regularized_volume(p) == oracles.polygon_area(polygon)
