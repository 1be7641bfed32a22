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
The planar build of a grid's whole space hashes and compares no
Fraction at all: a corner tells its trace germs apart by kind and by
the integer pair (r, n) that each edge's residue r / n is scaled to
once, never by the residue itself.

The whole space of the m = 12 torus grid (576 domains, no constraint)
is a compact polytope of genus one, and the support of the one fan its
domains share is read once, not once per domain.  The whole-space build
of each grid keeps a pinned budget of calls into the package per domain
at m = 3 and 6, and four times the domains cost about four times the
calls: a call count does not vary from run to run as a time does.

The whole space of a grid is the region in every domain, so it has no
face segment and its vertices are the corner clusters, all inside: the
grid points, 4m^2 on the torus (and the comb, welded to the same
space), 4m^2 + 2m on the cylinder and (2m+1)^2 on the disc.  Each edge
stratum carries a trace: a divisor trace on each welded pair and a
singular one on each free face.  The 4m^2 domains have four faces each;
the cylinder leaves 4m free and the disc 8m, so the traces number 8m^2,
8m^2 + 2m and 8m^2 + 4m, of which 8m^2, 8m^2 - 2m and 8m^2 - 4m are
divisor traces.  A corner joins the two traces of one residue through
it, so the divisor arcs are the grid lines: 2m closed lines each way on
the torus (4m); 2m - 1 closed lines around the cylinder and 2m open
ones across it (4m - 1); 2m - 1 open lines each way on the disc
(4m - 2).  The singular traces are the boundary: two circles on the
cylinder, one singular face each, and one circle on the disc, one
singular face per side of the square, where the residue turns.  The
crossings inside are the closed clusters, the interior grid points:
4m^2, 2m(2m - 1) and (2m - 1)^2.  Every other corner is a boundary
point where traces of two residues meet: 4m on the cylinder, 8m on the
disc.  Then chi = vertices - (segments + traces) + domains is 0, 0 and
1, the torus has genus one and no boundary, and the cylinder genus zero.
``polytope_moduli`` counts one for a closed orientable polytope without
faces, one per closed arc, per crossing and per meeting: (2m+1)^2 on the
torus, h2 of its log cohomology.  On the open grids it differs from h2:
(2m+1)^2 - 2 against 4m^2 - 1 on the cylinder, (2m+1)^2 against
(2m-1)^2 on the disc.  Which one the paper's count should match is not
settled, so the moduli are pinned on the closed grids only.

Parsing a grid's welding file reads its one fan file once, and the
fan's validation eliminates the rays' integer rows: it constructs no
Fraction on any fixture fan.  The parse, the weld and the log cohomology
of a grid, and the topology and moduli of its whole-space polytope, each
keep a pinned budget of calls into the package per domain at m = 3 and 6
that grows at most linearly.

A Delzant k-gon chopped from a square, with or without redundant
constraints, has the area the benchmark's oracle gives in closed form.
Its build hashes no Fraction, as its vertex table keys a cycle's vertex
by its rank by point.  Its lattice test and the equivalence of its record
with the record of a unimodular image of it are decided on ints: at
k = 16 and 64 neither constructs a Fraction, and each keeps a pinned
budget of calls into the package per side that four times the sides
raise about fourfold.  Its build and its volume keep pinned budgets
of calls per side too: the build's grow about fourfold with the sides,
and the volume's not at all, as it reads the vertex cycle the build kept.
The volume of a fixture whose domains all have rays keeps a pinned
budget of calls per feasible domain.
With each constraint moved by 1 / p for its own odd prime p, the
vertices' homogeneous weights w are distinct and their lcm is a multiple
of every such p, and the cycle still ranks its vertices by point as the
Fraction oracle does.
"""

from __future__ import annotations

import functools
import os
import random
import sys
from fractions import Fraction
from math import lcm, prod

import pytest
from conftest import FIXTURES, benchmark_module, grid_text

from logaffine import fans, welding
from logaffine.classification import make_invariant_record, records_equivalent
from logaffine.fileio import (
    parse_bundle_text,
    parse_fan_file,
    parse_polytope_file,
    parse_polytope_text,
    parse_welding_text,
)
from logaffine.polytopes import (
    build_polytope,
    delzant_check,
    make_polytope_spec,
    polytope_moduli,
    polytope_topology,
    regularized_volume,
)
from logaffine.topology import betti_numbers, log_cohomology_dims
from logaffine.welding import MatchedPair, build_welded_space

import polytope_oracle


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


def whole_space_forms(variant: str, m: int) -> dict[str, int]:
    """Counts of the whole-space polytope of a grid, derived above."""
    if variant in ("torus", "comb"):
        return dict(
            vertices=4 * m * m, traces=8 * m * m, divisor_traces=8 * m * m,
            components=4 * m, closed_components=4 * m, crossings=4 * m * m,
            singular_faces=0, meetings=0, euler=0, genus=1, circles=0,
        )
    if variant == "cylinder":
        return dict(
            vertices=4 * m * m + 2 * m, traces=8 * m * m + 2 * m, divisor_traces=8 * m * m - 2 * m,
            components=4 * m - 1, closed_components=2 * m - 1, crossings=2 * m * (2 * m - 1),
            singular_faces=2, meetings=4 * m, euler=0, genus=0, circles=2,
        )
    return dict(
        vertices=(2 * m + 1) ** 2, traces=8 * m * m + 4 * m, divisor_traces=8 * m * m - 4 * m,
        components=4 * m - 2, closed_components=0, crossings=(2 * m - 1) ** 2,
        singular_faces=4, meetings=8 * m, euler=1, genus=0, circles=1,
    )


@pytest.mark.parametrize(
    "variant,m",
    [(v, m) for v in ("torus", "comb", "cylinder", "disc") for m in (1, 2, 3)]
    + [("torus", 12), ("disc", 12)],
)
def test_whole_grid_polytope_closed_forms(variant: str, m: int) -> None:
    spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
    space = build_welded_space(spec)
    p = build_polytope(space, make_polytope_spec(spec, []))
    top = polytope_topology(p)
    assert not p.segments
    assert all(v.kind == "corner" for v in p.vertices)
    assert {
        "vertices": len(p.vertices),
        "traces": len(p.traces),
        "divisor_traces": sum(t.kind == "divisor" for t in p.traces),
        "components": len(p.trace_components),
        "closed_components": sum(c.closed for c in p.trace_components),
        "crossings": len(p.crossings_inside),
        "singular_faces": len(p.singular_faces),
        "meetings": p.boundary_corner_meetings,
        "euler": top.euler,
        "genus": top.genus,
        "circles": top.boundary_circles,
    } == whole_space_forms(variant, m)
    if variant in ("torus", "comb"):  # the open grids' moduli are not pinned
        assert polytope_moduli(p) == (2 * m + 1) ** 2
        if m <= 3:
            assert polytope_moduli(p) == log_cohomology_dims(space)[2]


@pytest.mark.parametrize("variant", ["torus", "comb", "cylinder", "disc"])
def test_the_whole_grid_build_hashes_no_fraction(monkeypatch, variant: str) -> None:
    hashes = []
    fraction_hash = Fraction.__hash__

    def counting(q):
        hashes.append(q)
        return fraction_hash(q)

    spec = parse_welding_text(grid_text(variant, 3), base=FIXTURES).spec
    space = build_welded_space(spec)
    polytope_spec = make_polytope_spec(spec, [])
    monkeypatch.setattr(Fraction, "__hash__", counting)
    build_polytope(space, polytope_spec)
    monkeypatch.undo()
    assert hashes == []


@pytest.mark.parametrize("variant", ["torus", "comb", "cylinder", "disc"])
def test_the_whole_grid_build_compares_no_fraction(monkeypatch, variant: str) -> None:
    """A corner joins its germs on integer residue keys."""
    compared = []
    fraction_eq = Fraction.__eq__

    def counting(q, other):
        compared.append(q)
        return fraction_eq(q, other)

    spec = parse_welding_text(grid_text(variant, 3), base=FIXTURES).spec
    space = build_welded_space(spec)
    polytope_spec = make_polytope_spec(spec, [])
    monkeypatch.setattr(Fraction, "__eq__", counting)
    build_polytope(space, polytope_spec)
    monkeypatch.undo()
    assert compared == []


@pytest.mark.parametrize("variant", ["torus", "comb"])
def test_the_weld_walks_on_face_ids_and_builds_no_pair_key(monkeypatch, variant: str) -> None:
    """On n = 576 domains the 2n welds, listed or coerced, walk both
    chains at each of their two corners (8n), but one chain at the
    weld that closes each of the n corners (-n), and the assembly walks
    each of the n closed clusters once (+n).  No ``MatchedPair.key``
    is built, by the weld or by the planar build of its whole space,
    which tells the spec's pairs by their faces in either order."""
    calls = {"key": 0, "walk": 0}
    key, walk = MatchedPair.key, welding._WeldIndex.walk

    def counting_key(pair):
        calls["key"] += 1
        return key(pair)

    def counting_walk(index, *args):
        calls["walk"] += 1
        return walk(index, *args)

    spec = parse_welding_text(grid_text(variant, 12), base=FIXTURES).spec
    monkeypatch.setattr(MatchedPair, "key", counting_key)
    monkeypatch.setattr(welding._WeldIndex, "walk", counting_walk)
    space = build_welded_space(spec)
    build_polytope(space, make_polytope_spec(spec, []))
    monkeypatch.undo()
    assert len(space.pairs) == 2 * 576
    assert calls == {"key": 0, "walk": 8 * 576}


def test_whole_torus_reads_its_fan_support_once(monkeypatch) -> None:
    built = []
    order = fans.Fan.ray_order

    def counting_order(fan):
        built.append(fan)
        return order.func(fan)

    counted = functools.cached_property(counting_order)
    counted.__set_name__(fans.Fan, "ray_order")
    monkeypatch.setattr(fans.Fan, "ray_order", counted)
    spec = parse_welding_text(grid_text("torus", 12), base=FIXTURES).spec
    p = build_polytope(build_welded_space(spec), make_polytope_spec(spec, []))
    assert len(p.feasible) == 576
    assert p.compact
    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (0, 1, 0)
    (fan,) = built  # one turn order for the one fan every domain shares
    assert all(spec.fan(d) is fan for d in spec.domain_ids)


PACKAGE = os.path.dirname(welding.__file__)


def package_calls(run) -> int:
    """How many calls ``run()`` makes into frames of the package's code;
    the standard library's frames do not count, so the count does not
    depend on how a Python version implements ``Fraction``."""
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == PACKAGE:
            calls += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


# Package calls per domain of a grid's whole-space planar build, pinned
# at the counts of the build that joins its corner germs on integer
# residue keys (55.5-57.4 per domain at m = 3 and 6 on Python 3.10 and
# 3.11; the Fraction residue join before it made 57-61, and the second
# angular pass before that 132-136).  Python 3.12 inlines list
# comprehensions (PEP 709), so it counts fewer (47-48).  A budget may
# fall freely; raising one loosens the check, and CHANGES.md must say why.
BUILD_CALLS_PER_DOMAIN = {"torus": 57, "comb": 57, "cylinder": 57, "disc": 58}
# Four times the domains may cost at most this much more than four
# times the calls: the growth stays linear.
GROWTH_SLACK = Fraction(1, 20)


@pytest.mark.parametrize("variant", ["torus", "comb", "cylinder", "disc"])
def test_the_whole_grid_build_keeps_its_call_budget(variant: str) -> None:
    counts = []
    for m in (3, 6):
        spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
        space = build_welded_space(spec)
        polytope_spec = make_polytope_spec(spec, [])
        calls = package_calls(lambda: build_polytope(space, polytope_spec))
        assert calls <= BUILD_CALLS_PER_DOMAIN[variant] * len(space.spec.domain_ids)
        counts.append(calls)
    assert Fraction(counts[1], counts[0]) <= 4 * (1 + GROWTH_SLACK)


gen = benchmark_module("generators")
oracles = benchmark_module("oracles")


def polygon_spec(tmp_path, rng: random.Random, polygon):
    """The spec of ``polygon``'s text, parsed against the benchmark's
    shared files, written to ``tmp_path``."""
    for name, text in gen.LIBRARY.items():
        (tmp_path / name).write_text(text)
    return parse_polytope_text(gen.polygon_text(rng, polygon), "p.poly", base=tmp_path).spec


@pytest.mark.parametrize("k", [64, 128, 256])
@pytest.mark.parametrize("with_redundant", [False, True])
def test_delzant_polygon_volume_closed_form(tmp_path, k: int, with_redundant: bool) -> None:
    rng = random.Random(k)
    polygon = gen.delzant_polygon(rng, k, k // 2 if with_redundant else 0)
    spec = polygon_spec(tmp_path, rng, polygon)
    p = build_polytope(build_welded_space(spec.welding), spec)
    assert regularized_volume(p) == oracles.polygon_area(polygon)


def polygon_and_records(tmp_path, k: int):
    """The benchmark's Delzant k-gon, built, with its record and the
    record of its image under a unimodular shear, under the zero bundle."""
    rng = random.Random(k)
    polygon = gen.delzant_polygon(rng, k)
    bundle = parse_bundle_text(gen.LIBRARY["zero.bundle"], "zero.bundle")
    built = []
    for shape in (polygon, gen.shear_polygon(polygon, gen.random_unimodular(rng))):
        spec = polygon_spec(tmp_path, rng, shape)
        built.append(build_polytope(build_welded_space(spec.welding), spec))
    return built[0], *(make_invariant_record(p, bundle) for p in built)


def fractions_made(monkeypatch, run) -> int:
    """How many Fractions ``run()`` constructs: through ``Fraction.__new__``
    and, from Python 3.12 on, through ``_from_coprime_ints``, by which the
    arithmetic makes its results without ``__new__``."""
    made = 0

    def counted(make):
        def counting(*args, **kwargs):
            nonlocal made
            made += 1
            return make(*args, **kwargs)

        return counting

    monkeypatch.setattr(Fraction, "__new__", counted(Fraction.__new__))
    if "_from_coprime_ints" in vars(Fraction):
        coprime = counted(Fraction._from_coprime_ints)
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(lambda cls, n, d: coprime(n, d)))
    try:
        run()
    finally:
        monkeypatch.undo()
    return made


def test_fan_validation_constructs_no_fraction(monkeypatch) -> None:
    assert fractions_made(monkeypatch, lambda: Fraction(1, 2) * Fraction(2, 3)) > 0
    paths = sorted(FIXTURES.glob("*.fan"))
    assert len(paths) > 10
    for path in paths:
        fan = parse_fan_file(path)
        assert "directions" not in vars(fan)  # the integer rows are made inside
        assert fractions_made(monkeypatch, lambda: fans.validate_fan(fan)) == 0, path.name
        assert "directions" in vars(fan)


# Package calls per domain of parsing a grid's welding file, pinned at the
# counts on Python 3.10 and 3.11 once a pair line is read with one pattern
# and its faces are resolved to integer ids once per spec: 13.86, 12.19,
# 13.53 and 13.19 per domain at m = 3, 7.22, 5.38, 7.05 and 6.88 at m = 6
# (torus, comb, cylinder, disc).  The token-by-token parse before made
# 26.03, 19.36, 24.69 and 23.36 at m = 3, the comparison of Fraction stars
# before that 27.36, 20.69, 26.03 and 24.69.  Primitive ray rows
# (``Fan.directions``) cost the fan's validation one call per ray more:
# 13.97, 12.31, 13.64 and 13.31 at m = 3, within 1 to 5 calls of the
# budget.  Python 3.12 and 3.13 count fewer (9.08 to 11.86 at m = 3).  A
# budget may fall freely; raising one loosens the check, and CHANGES.md
# must say why.
PARSE_CALLS_PER_DOMAIN = {"torus": 14, "comb": 13, "cylinder": 14, "disc": 14}


@pytest.mark.parametrize("variant", ["torus", "comb", "cylinder", "disc"])
def test_parsing_a_grid_keeps_its_call_budget(variant: str) -> None:
    counts = []
    for m in (3, 6):
        text = grid_text(variant, m)
        calls = package_calls(lambda: parse_welding_text(text, base=FIXTURES))
        assert calls <= PARSE_CALLS_PER_DOMAIN[variant] * 4 * m * m, m
        counts.append(calls)
    assert Fraction(counts[1], counts[0]) <= 4 * (1 + GROWTH_SLACK)


# Package calls per domain of welding a parsed grid and of its log
# cohomology, pinned at the counts on Python 3.10 and 3.11: the weld whose
# assembly joins pair indices 36.31, 36.31, 34.83 and 33.92 per domain at
# m = 3 and 35.33, 35.33, 34.58 and 34.06 at m = 6 (torus, comb, cylinder,
# disc; the assembly on cluster names and label joins before made 43.89,
# 44.58, 41.61 and 39.94 at m = 3, the weld on labels before that 59.86,
# 60.56, 57.83 and 56.00), the cohomology 46.61, 46.61, 48.67 and 50.86 at
# m = 3 and 44.99, 44.99, 46.04 and 47.13 at m = 6.  Python 3.12 and 3.13
# count no more.  A budget may fall freely; raising one loosens the check,
# and CHANGES.md must say why.
WELD_CALLS_PER_DOMAIN = {"torus": 37, "comb": 37, "cylinder": 35, "disc": 35}
COHOMOLOGY_CALLS_PER_DOMAIN = {"torus": 47, "comb": 47, "cylinder": 49, "disc": 51}


@pytest.mark.parametrize("variant", ["torus", "comb", "cylinder", "disc"])
def test_welding_a_grid_and_its_cohomology_keep_their_call_budgets(variant: str) -> None:
    budgets = {"weld": WELD_CALLS_PER_DOMAIN, "cohomology": COHOMOLOGY_CALLS_PER_DOMAIN}
    counts: dict[str, list[int]] = {name: [] for name in budgets}
    for m in (3, 6):
        spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
        counts["weld"].append(package_calls(lambda: build_welded_space(spec)))
        space = build_welded_space(spec)
        counts["cohomology"].append(package_calls(lambda: log_cohomology_dims(space)))
        for name, budget in budgets.items():
            assert counts[name][-1] <= budget[variant] * 4 * m * m, (name, m)
    for name, (small, large) in counts.items():
        assert Fraction(large, small) <= 4 * (1 + GROWTH_SLACK), name


# Package calls per domain of the topology and the moduli of a grid's
# whole-space polytope, pinned at the counts on Python 3.10 and 3.11: the
# topology 11.78, 11.78, 17.67 and 23.56 per domain at m = 3 and 11.19,
# 11.19, 14.12 and 17.06 at m = 6 (torus, comb, cylinder, disc), the moduli
# 14, 14, 7 and 2 calls at m = 3 and 26, 26, 13 and 2 at m = 6, which the
# budget's fraction of a call per domain bounds.  Python 3.12 and 3.13
# count no more.  A budget may fall freely; raising one loosens the check,
# and CHANGES.md must say why.
TOPOLOGY_CALLS_PER_DOMAIN = {"torus": 12, "comb": 12, "cylinder": 18, "disc": 24}
MODULI_CALLS_PER_DOMAIN = {
    "torus": Fraction(2, 5),
    "comb": Fraction(2, 5),
    "cylinder": Fraction(1, 5),
    "disc": Fraction(1, 16),
}


@pytest.mark.parametrize("variant", ["torus", "comb", "cylinder", "disc"])
def test_the_whole_grid_topology_and_moduli_keep_their_call_budgets(variant: str) -> None:
    budgets = {"topology": TOPOLOGY_CALLS_PER_DOMAIN, "moduli": MODULI_CALLS_PER_DOMAIN}
    counts: dict[str, list[int]] = {name: [] for name in budgets}
    for m in (3, 6):
        spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
        space = build_welded_space(spec)
        polytope_spec = make_polytope_spec(spec, [])
        # each on a fresh build: neither reads what the other cached
        p = build_polytope(space, polytope_spec)
        counts["topology"].append(package_calls(lambda: polytope_topology(p)))
        p = build_polytope(space, polytope_spec)
        counts["moduli"].append(package_calls(lambda: polytope_moduli(p)))
        for name, budget in budgets.items():
            assert counts[name][-1] <= budget[variant] * 4 * m * m, (name, m)
    for name, (small, large) in counts.items():
        assert Fraction(large, small) <= 4 * (1 + GROWTH_SLACK), name


# Package calls per side of the k-gon, pinned at the integer path's counts
# on Python 3.10 and 3.11 (records_equivalent 18.8 and 15.2 per side at
# k = 16 and 64; delzant_check, with a vertex's two rows tested by their
# determinant, 9.2 and 9.0, and 28.2 and 28.0 through the gcd of the
# minors before).  A budget may fall freely; raising one loosens the
# check, and CHANGES.md must say why.
LATTICE_CALLS_PER_SIDE = {"records_equivalent": 19, "delzant_check": 10}


def test_lattice_decisions_on_a_polygon_construct_no_fraction(tmp_path, monkeypatch) -> None:
    assert fractions_made(monkeypatch, lambda: Fraction(1, 2) * Fraction(2, 3)) > 0
    counts: dict[str, list[int]] = {name: [] for name in LATTICE_CALLS_PER_SIDE}
    for k in (16, 64):
        p, record, sheared = polygon_and_records(tmp_path, k)
        runs = {
            "records_equivalent": lambda: records_equivalent(record, sheared),
            "delzant_check": lambda: delzant_check(p),
        }
        assert records_equivalent(record, sheared) and delzant_check(p)
        for name, run in runs.items():
            assert fractions_made(monkeypatch, run) == 0, (name, k)
            calls = package_calls(run)
            assert calls <= LATTICE_CALLS_PER_SIDE[name] * k, (name, k)
            counts[name].append(calls)
    for name, (small, large) in counts.items():
        assert Fraction(large, small) <= 4 * (1 + GROWTH_SLACK), name


# Package calls per side of the k-gon's build and volume, pinned at the
# counts on Python 3.10 and 3.11 (build 57.1 and 58.4 per side at k = 16
# and 64; volume 0.94 and 0.23, 15 calls at either size, as it reads the
# cycle the build kept, and 17.6 and 24.5 when it intersected the lines
# again), and how much more four times the sides may cost.
# A budget may fall freely; raising one loosens the check, and CHANGES.md
# must say why.
POLYGON_CALLS_PER_SIDE = {"build_polytope": 59, "regularized_volume": 1}
POLYGON_GROWTH = {"build_polytope": 4, "regularized_volume": 4}


def test_the_polygon_build_and_volume_keep_their_call_budgets(tmp_path) -> None:
    counts: dict[str, list[int]] = {name: [] for name in POLYGON_CALLS_PER_SIDE}
    for k in (16, 64):
        rng = random.Random(k)
        spec = polygon_spec(tmp_path, rng, gen.delzant_polygon(rng, k))
        space = build_welded_space(spec.welding)
        counts["build_polytope"].append(package_calls(lambda: build_polytope(space, spec)))
        p = build_polytope(space, spec)
        counts["regularized_volume"].append(package_calls(lambda: regularized_volume(p)))
        for name, calls in counts.items():
            assert calls[-1] <= POLYGON_CALLS_PER_SIDE[name] * k, (name, k)
    for name, (small, large) in counts.items():
        assert Fraction(large, small) <= POLYGON_GROWTH[name] * (1 + GROWTH_SLACK), name


# Package calls per feasible domain of the volume of a freshly built
# fixture whose every domain has rays, which cuts each domain off at one
# int cutoff and intersects its lines once, pinned at the counts on
# Python 3.10 and 3.11: 91 on gen1.poly, 64.5 on rect.poly and 26.5 on
# line1d.poly, each including the first read of its fans' ray scales and,
# on line1d.poly, whose 1-D build keeps no regions, making them.  With the
# cutoff a polynomial in T they were 663.25, 405.75 and 47.  Python 3.12
# and 3.13 inline list comprehensions (PEP 709), so they count fewer
# (70.75, 50.25-51.75 and 18).  A budget may fall freely; raising one
# loosens the check, and CHANGES.md must say why.
RAY_VOLUME_CALLS_PER_DOMAIN = {"gen1.poly": 91, "line1d.poly": 27, "rect.poly": 65}


@pytest.mark.parametrize("name", sorted(RAY_VOLUME_CALLS_PER_DOMAIN))
def test_the_volume_beside_rays_keeps_its_call_budget(name: str) -> None:
    pf = parse_polytope_file(FIXTURES / name)
    p = build_polytope(build_welded_space(pf.spec.welding), pf.spec)
    assert all(p.space.fan(d).vectors for d in p.feasible)
    calls = package_calls(lambda: regularized_volume(p))
    assert calls <= RAY_VOLUME_CALLS_PER_DOMAIN[name] * len(p.feasible)


@pytest.mark.parametrize("k", [16, 64])
def test_the_polygon_build_hashes_no_fraction(tmp_path, monkeypatch, k: int) -> None:
    """The vertex table keys a cycle's vertex by its rank, not its point."""
    hashes = []
    fraction_hash = Fraction.__hash__

    def counting(q):
        hashes.append(q)
        return fraction_hash(q)

    rng = random.Random(k)
    spec = polygon_spec(tmp_path, rng, gen.delzant_polygon(rng, k, k // 2))
    space = build_welded_space(spec.welding)
    monkeypatch.setattr(Fraction, "__hash__", counting)
    p = build_polytope(space, spec)
    monkeypatch.undo()
    assert hashes == []
    assert len(p.vertices) == k


def odd_primes(n: int) -> list[int]:
    primes: list[int] = []
    c = 3
    while len(primes) < n:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 2
    return primes


def test_vertices_of_many_distinct_weights_rank_as_fraction_points(tmp_path) -> None:
    """The cycle ranks its vertices on ints brought to the lcm of their
    w, so a key is as long as that lcm: here 256 vertices of distinct w
    whose lcm is a multiple of 256 odd primes.  The rank a face end holds picks, among the vertices
    sorted as Fraction points, the one at the end's point."""
    k = 256
    polygon = gen.delzant_polygon(random.Random(k), k)
    for name, text in gen.LIBRARY.items():
        (tmp_path / name).write_text(text)
    lines = ["logaffine polytope 1", "welding plane.weld", "orientation +"]
    primes = odd_primes(k)
    for i, (((a, b), c), q) in enumerate(zip(polygon.sides, primes)):
        moved = Fraction(c * q + 1, q)
        lines.append(f"constraint 1.f{i} = ({a}, {b}) {'+' if moved >= 0 else '-'} {abs(moved)}")
    spec = parse_polytope_text("\n".join(lines) + "\n", "p.poly", base=tmp_path).spec
    p = build_polytope(build_welded_space(spec.welding), spec)
    region = p._regions[1]
    weights = [w for _, _, w in region.vertices]
    assert len(set(weights)) == k and lcm(*weights) % prod(primes) == 0
    at_rank = {r: j for j, r in polytope_oracle.fraction_ranks(region.vertices).items()}
    ends = [end for along, *ends in region.faces.values() for end in ends]
    assert len(ends) == 2 * k and None not in ends
    for point, _, _, rank in ends:
        x, y, w = region.vertices[at_rank[rank]]
        assert (Fraction(x, w), Fraction(y, w)) == point
