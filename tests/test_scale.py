"""Large generated inputs against closed forms.

A 2m x 2m grid of square-fan domains welded as a torus, a comb (the
torus rows plus one column of rungs, closure welds the rest), a
cylinder or a disc has the Betti numbers of that surface and log
cohomology h = (1, h1, h2, 0): one class per divisor component in
degree 1, and one per closed component and per crossing in degree 2.
The open grids at m = 12 (576 domains) reach the boundary edges and
open corner chains of the assembly at scale, and the weld of a grid
hashes Fractions a fixed number of times whatever its size: the
assembly keys its residues and positions per fan, not per domain.

The whole space of the m = 12 torus grid (576 domains, no constraint)
is a compact polytope of genus one, and the support of the one fan its
domains share is read once, not once per domain.

A Delzant k-gon chopped from a square, with or without redundant
constraints, has the area the benchmark's oracle gives in closed form.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import FIXTURES, benchmark_module, grid_pairs

from logaffine import fans
from logaffine.fileio import parse_polytope_text, parse_welding_text
from logaffine.polytopes import (
    build_polytope,
    make_polytope_spec,
    polytope_topology,
    regularized_volume,
)
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
    [
        ("torus", 4),
        ("comb", 4),
        ("cylinder", 4),
        ("disc", 4),
        ("torus", 6),
        ("torus", 12),
        ("disc", 12),
        ("cylinder", 12),
    ],
)
def test_grid_homology_closed_forms(variant: str, m: int) -> None:
    spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
    space = build_welded_space(spec)
    betti, log_dims = closed_forms(variant, m)
    assert betti_numbers(space) == betti
    assert log_cohomology_dims(space) == log_dims


@pytest.mark.parametrize("variant", ["torus", "disc"])
def test_the_weld_hashes_fractions_per_fan_not_per_domain(monkeypatch, variant: str) -> None:
    hashes = []
    fraction_hash = Fraction.__hash__

    def counting(q):
        hashes.append(q)
        return fraction_hash(q)

    counts = []
    for m in (3, 12):
        spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
        monkeypatch.setattr(Fraction, "__hash__", counting)
        build_welded_space(spec)
        monkeypatch.undo()
        counts.append(len(hashes))
        hashes.clear()
    assert counts[0] == counts[1]


def test_whole_torus_reads_its_fan_support_once(monkeypatch) -> None:
    arcs = []
    arc = fans._arc

    def counting_arc(fan, cone):
        arcs.append(fan)
        return arc(fan, cone)

    monkeypatch.setattr(fans, "_arc", counting_arc)
    spec = parse_welding_text(grid_text("torus", 12), base=FIXTURES).spec
    p = build_polytope(build_welded_space(spec), make_polytope_spec(spec, []))
    assert len(p.feasible) == 576
    assert p.compact
    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (0, 1, 0)
    (fan,) = {id(f): f for f in arcs}.values()
    assert all(spec.domain(d).fan is fan for d in spec.domain_ids)
    assert len(arcs) == len(fan.cones) - 1  # one arc per nonempty cone


gen = benchmark_module("generators")
oracles = benchmark_module("oracles")


@pytest.mark.parametrize("k", [64, 128, 256])
@pytest.mark.parametrize("with_redundant", [False, True])
def test_delzant_polygon_volume_closed_form(tmp_path, k: int, with_redundant: bool) -> None:
    for name, text in gen.LIBRARY.items():
        (tmp_path / name).write_text(text)
    rng = random.Random(k)
    polygon = gen.delzant_polygon(rng, k, k // 2 if with_redundant else 0)
    pf = parse_polytope_text(gen.polygon_text(rng, polygon), "p.poly", base=tmp_path)
    p = build_polytope(build_welded_space(pf.spec.welding), pf.spec)
    assert regularized_volume(p) == oracles.polygon_area(polygon)
