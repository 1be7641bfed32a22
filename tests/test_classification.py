"""Bundles, obstruction status, moduli dimensions, cut reports and
invariant-record equivalence."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logaffine.classification as classification
from logaffine.classification import (
    InvariantRecord,
    PolytopeShape,
    cut_report,
    make_bundle,
    make_invariant_record,
    obstruction_vanishes,
    records_equivalent,
)
from logaffine.errors import (
    DelzantError,
    DimensionMismatchError,
    GeometryError,
    NonCompactError,
    UnsupportedDimensionError,
)
from logaffine.fans import make_fan
from logaffine.fileio import parse_bundle_text, parse_polytope_text, serialize_bundle
from logaffine.polytopes import build_polytope, make_polytope_spec, polytope_moduli
from logaffine.rational import AffineFunctional, vector
from logaffine.topology import betti_numbers, log_cohomology_dims
from logaffine.welding import MatchedPair, build_welded_space, make_welding_spec

import record_oracle
from rational_oracle import rank
from conftest import (
    benchmark_module,
    FIXTURES,
    load_built_polytope,
    load_bundle,
    load_fan,
    load_polytope,
    load_space,
    load_welding,
)

F = Fraction


def zero_bundle(space, rank_: int):
    width = betti_numbers(space)[2] if space.dim >= 2 else 0
    return make_bundle(rank_, [tuple([0] * width)] * rank_)


def whole_space_polytope(weld_name: str):
    welding = load_welding(weld_name).spec
    spec = make_polytope_spec(welding, [])
    return build_polytope(load_space(weld_name), spec)


def transformed_sphere_record(matrix, bundle):
    """The sphere fixture with ``matrix`` applied to every ray vector
    and to each degree-2 column of the Chern family."""

    def apply(v):
        return vector(
            matrix[0][0] * v[0] + matrix[0][1] * v[1],
            matrix[1][0] * v[0] + matrix[1][1] * v[1],
        )

    welding = load_welding("sphere.weld").spec
    fans = {}
    for domain_id, fan in welding.domain_items:
        fans[domain_id] = make_fan(
            [apply(v) for v in fan.vectors],
            [tuple(c) for c in fan.cones],
            labels=fan.labels,
        )
    moved = make_welding_spec(
        fans, [MatchedPair(p.left, p.right, p.label) for p in welding.pairs]
    )
    poly = build_polytope(build_welded_space(moved), make_polytope_spec(moved, []))
    columns = [apply(vector(*c)) for c in zip(*bundle.chern)]
    moved_bundle = make_bundle(
        bundle.rank, [tuple(row) for row in zip(*columns)]
    )
    return make_invariant_record(poly, moved_bundle)


# ---------------------------------------------------------------- bundles


def test_bundle_validation() -> None:
    with pytest.raises(GeometryError, match="positive"):
        make_bundle(0, [])
    with pytest.raises(GeometryError, match="expected 2"):
        make_bundle(2, [(1,)])
    with pytest.raises(GeometryError, match="mixed lengths"):
        make_bundle(2, [(1,), (1, 2)])
    bundle = make_bundle(2, [(1,), ("1/2",)])
    assert bundle.chern == ((F(1),), (F(1, 2),))


# ------------------------------------------------------------- obstruction


def test_obstruction_vanishes_on_surfaces() -> None:
    hopf = load_bundle("hopf.bundle")
    for name in ("sphere.weld", "torus.weld", "genus2.weld", "mobius.weld"):
        status = obstruction_vanishes(load_space(name), hopf)
        assert status
        assert status.reason == "target group vanishes"


@pytest.mark.parametrize("name", ["torus.weld", "line1d.weld"])
def test_the_obstruction_on_a_surface_or_line_builds_no_cell_complex(name) -> None:
    """Degree 3 of the log cohomology is absent or a literal 0 in
    dimension 2 or less, so the answer needs no Betti number."""
    space = build_welded_space(load_welding(name).spec)
    status = obstruction_vanishes(space, make_bundle(1, [(1,)]))
    assert status.reason == "target group vanishes"
    assert "_cell_complex" not in vars(space)


def test_obstruction_in_higher_dimension() -> None:
    space = load_space("dim3.weld")
    trivial = make_bundle(3, [(0, 0), (0, 0), (0, 0)])
    status = obstruction_vanishes(space, trivial)
    assert status.vanishes is True
    assert status.reason == "trivial bundle"

    twisted = make_bundle(3, [(1, 0), (0, 0), (0, 0)])
    status = obstruction_vanishes(space, twisted)
    assert status.vanishes is None
    assert not status
    assert "not computed" in status.reason


def test_obstruction_on_one_dimensional_space() -> None:
    status = obstruction_vanishes(load_space("line1d.weld"), make_bundle(1, [(1,)]))
    assert status.vanishes is True


# ------------------------------------------------------------------ moduli


@pytest.mark.parametrize(
    "weld_name, expected",
    [("sphere.weld", 10), ("torus.weld", 9), ("genus2.weld", 13)],
)
def test_moduli_dimension_of_spaces(weld_name: str, expected: int) -> None:
    assert log_cohomology_dims(load_space(weld_name))[2] == expected


def test_moduli_dimension_formula_term_by_term() -> None:
    for name in ("sphere.weld", "torus.weld", "genus2.weld"):
        space = load_space(name)
        closed = sum(1 for c in space.divisor_components if c.closed)
        expected = betti_numbers(space)[2] + closed + len(space.crossings)
        assert log_cohomology_dims(space)[2] == expected


@pytest.mark.parametrize(
    "polytope, expected",
    [
        (lambda: load_built_polytope("unitsquare.poly"), 0),
        (lambda: load_built_polytope("gen1.poly"), 5),
        (lambda: whole_space_polytope("sphere.weld"), 10),
    ],
    ids=["unitsquare", "gen1", "sphere"],
)
def test_moduli_dimension_of_polytopes(polytope, expected: int) -> None:
    assert polytope_moduli(polytope()) == expected


# ------------------------------------------------------------- cut reports


def test_unit_square_cut() -> None:
    p = load_built_polytope("unitsquare.poly")
    report = cut_report(p, zero_bundle(p.space, 2))
    assert report.euler == 4
    assert report.fixed_points == 4
    assert report.smooth_closed
    assert report.moduli_dim == 0
    assert report.divisor_image == ()
    by_kind = {}
    for entry in report.strata:
        by_kind.setdefault(entry.kind, []).append(entry)
    assert len(by_kind["top"]) == 1 and by_kind["top"][0].fiber_rank == 2
    assert len(by_kind["interior"]) == 4
    assert all(e.fiber_rank == 1 and e.dim == 1 for e in by_kind["interior"])
    assert len(by_kind["vertex"]) == 4
    assert all(e.fiber_rank == 0 and e.dim == 0 for e in by_kind["vertex"])


def test_genus_one_cut_has_no_fixed_points() -> None:
    p = load_built_polytope("gen1.poly")
    report = cut_report(p, zero_bundle(p.space, 2))
    assert report.euler == 0
    assert report.fixed_points == 0
    assert report.smooth_closed
    assert report.moduli_dim == 5
    assert report.divisor_image == ("t1", "t2", "t3", "t4")
    assert [e.kind for e in report.strata] == ["top", "log"]


def test_corner_region_cut() -> None:
    p = load_built_polytope("compdelt.poly")
    report = cut_report(p, zero_bundle(p.space, 2))
    assert report.euler == 1
    assert report.fixed_points == 1
    assert not report.smooth_closed
    assert report.moduli_dim == 1
    assert report.divisor_image == ("s1", "s2")
    vertex_entries = [e for e in report.strata if e.kind == "vertex"]
    assert len(vertex_entries) == 1 and vertex_entries[0].fiber_rank == 0


def test_interval_cut() -> None:
    p = load_built_polytope("line1d.poly")
    report = cut_report(p, make_bundle(1, [()]))
    assert report.euler == 2
    assert report.fixed_points == 2
    assert report.smooth_closed
    point_strata = [e for e in report.strata if e.dim == 0]
    assert len(point_strata) == 2
    assert all(e.fiber_rank == 0 for e in point_strata)


def test_interval_records_from_a_bundle_file(monkeypatch) -> None:
    """A rank-1 bundle file over an interval has one empty Chern vector;
    its records compare in the dimension-1 branch."""
    bundle = parse_bundle_text(serialize_bundle(make_bundle(1, [()])))
    assert bundle == make_bundle(1, [()])
    line, symm = (
        make_invariant_record(load_built_polytope(name), bundle)
        for name in ("line1d.poly", "symm1d.poly")
    )
    assert line.moduli_dim == symm.moduli_dim == 0
    along = classification._along_one_line
    calls = []
    monkeypatch.setattr(
        classification, "_along_one_line", lambda cols: calls.append(cols) or along(cols)
    )
    assert records_equivalent(line, line)
    assert calls
    assert not records_equivalent(line, symm)


def test_cut_requires_the_lattice_criterion() -> None:
    p = load_built_polytope("delzfail.poly")
    with pytest.raises(DelzantError, match="v1"):
        cut_report(p, zero_bundle(p.space, 2))


def test_cut_validates_bundle_shape() -> None:
    p = load_built_polytope("unitsquare.poly")
    with pytest.raises(DimensionMismatchError, match="torus rank"):
        cut_report(p, make_bundle(1, [(0,)]))
    with pytest.raises(DimensionMismatchError, match="degree-2"):
        cut_report(p, make_bundle(2, [(0, 0), (0, 0)]))


def test_cut_euler_matches_vertex_census_on_fixtures() -> None:
    for name in ("unitsquare.poly", "rect.poly", "compdelt.poly", "gen1.poly"):
        p = load_built_polytope(name)
        report = cut_report(p, zero_bundle(p.space, 2))
        meeting = sum(1 for v in p.vertices if len(set(v.faces)) >= 2)
        assert report.euler == meeting


# ------------------------------------------------------- invariant records


def test_record_construction_and_moduli() -> None:
    p = whole_space_polytope("sphere.weld")
    record = make_invariant_record(p, load_bundle("hopf.bundle"))
    assert record.moduli_dim == polytope_moduli(p) == 10
    assert record.chern.rank == 2
    assert record.polytope.dim == 2


def test_record_validates_bundle() -> None:
    p = whole_space_polytope("sphere.weld")
    with pytest.raises(DimensionMismatchError, match="torus rank"):
        make_invariant_record(p, make_bundle(1, [(1,)]))
    with pytest.raises(DimensionMismatchError, match="degree-2"):
        make_invariant_record(p, make_bundle(2, [(1, 0), (0, 0)]))


def test_record_equivalence_to_itself() -> None:
    p = whole_space_polytope("sphere.weld")
    record = make_invariant_record(p, load_bundle("hopf.bundle"))
    assert records_equivalent(record, record)


def test_a_record_of_a_polytope_that_is_not_compact_is_refused() -> None:
    # one halfline.fan domain cut by nothing recedes along (-1), where
    # the fan has no ray; in the plane polytope_moduli refuses the same
    spec = make_welding_spec({1: load_fan("halfline.fan")}, [])
    p = build_polytope(build_welded_space(spec), make_polytope_spec(spec, []))
    assert not p.compact
    with pytest.raises(NonCompactError, match="^the polytope is not compact$"):
        make_invariant_record(p, make_bundle(1, [()]))
    half = load_built_polytope("unitsquare.poly")
    half = build_polytope(
        half.space, replace(half.spec, constraints=half.spec.constraints[:1])
    )
    assert not half.compact
    with pytest.raises(NonCompactError, match="^the polytope is not compact$"):
        make_invariant_record(half, load_bundle("trivial.bundle"))


def test_a_cut_of_a_polytope_that_is_not_compact_is_refused() -> None:
    # the halfline.fan line of the test above: a cut report, like a
    # record, describes a compact polytope, in every dimension
    spec = make_welding_spec({1: load_fan("halfline.fan")}, [])
    p = build_polytope(build_welded_space(spec), make_polytope_spec(spec, []))
    assert not p.compact
    with pytest.raises(NonCompactError, match="^the polytope is not compact$"):
        cut_report(p, make_bundle(1, [()]))


def test_a_record_without_lattice_vectors_is_equivalent_to_itself() -> None:
    # a line with no rays, cut by nothing, under a rank-1 bundle: the
    # record has no ray, covector or Chern column, so no column picks a
    # line and every coefficient along one reads zero.  The line is not
    # compact, so make_invariant_record refuses it: the record is built
    # by hand
    spec = make_welding_spec({1: make_fan([], [[]], dim=1)}, [])
    p = build_polytope(build_welded_space(spec), make_polytope_spec(spec, []))
    record = classification.InvariantRecord(
        classification._polytope_shape(p), make_bundle(1, [()]), 0
    )
    assert classification._lattice_columns(record, 1, 1) == []
    assert classification._along_one_line([]) == ()
    assert records_equivalent(record, record)


def test_distinct_chern_tuples_are_inequivalent() -> None:
    p = whole_space_polytope("sphere.weld")
    r_10 = make_invariant_record(p, load_bundle("hopf.bundle"))
    r_00 = make_invariant_record(p, load_bundle("trivial.bundle"))
    r_11 = make_invariant_record(p, make_bundle(2, [(1,), (1,)]))
    assert not records_equivalent(r_10, r_00)
    assert not records_equivalent(r_10, r_11)
    assert not records_equivalent(r_00, r_11)


@pytest.mark.parametrize(
    "first, second",
    [
        (make_bundle(2, [(1,), (0,)]), make_bundle(1, [(1,)])),
        (make_bundle(2, [(1,), (0,)]), make_bundle(2, [(1, 0), (0, 0)])),
        # rank 1 below the dimension: the Chern vectors must agree as given
        (make_bundle(1, [(1,)]), make_bundle(1, [(2,)])),
    ],
    ids=["ranks", "lengths", "rank-one"],
)
def test_records_differing_in_their_bundles_alone_are_inequivalent(first, second) -> None:
    record = make_invariant_record(whole_space_polytope("sphere.weld"), load_bundle("hopf.bundle"))
    pair = [replace(record, chern=bundle) for bundle in (first, second)]
    assert not records_equivalent(*pair)
    assert not record_oracle.records_equivalent(*pair)


def test_unimodular_relabeling_gives_equivalent_records() -> None:
    base = make_invariant_record(
        whole_space_polytope("sphere.weld"), load_bundle("hopf.bundle")
    )
    for matrix in (((1, 1), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, -1))):
        moved = transformed_sphere_record(matrix, load_bundle("hopf.bundle"))
        assert records_equivalent(base, moved)
        assert records_equivalent(moved, base)


def test_relabeling_without_moving_chern_is_detected() -> None:
    base = make_invariant_record(
        whole_space_polytope("sphere.weld"), load_bundle("hopf.bundle")
    )
    swap = ((0, 1), (1, 0))
    swapped_shape = transformed_sphere_record(swap, load_bundle("trivial.bundle"))
    # the swap matrix is forced by the ray vectors, but it sends the
    # zero Chern family to zero, not to the asymmetric one
    assert not records_equivalent(base, swapped_shape)


def test_record_equivalence_is_an_equivalence_relation() -> None:
    hopf = load_bundle("hopf.bundle")
    records = [
        make_invariant_record(whole_space_polytope("sphere.weld"), hopf),
        transformed_sphere_record(((1, 1), (0, 1)), hopf),
        transformed_sphere_record(((0, 1), (1, 0)), hopf),
        make_invariant_record(
            whole_space_polytope("sphere.weld"), load_bundle("trivial.bundle")
        ),
        make_invariant_record(
            load_built_polytope("unitsquare.poly"),
            zero_bundle(load_built_polytope("unitsquare.poly").space, 2),
        ),
    ]
    for r in records:
        assert records_equivalent(r, r)
    for a, b in itertools.permutations(records, 2):
        assert records_equivalent(a, b) == records_equivalent(b, a)
    for a, b, c in itertools.permutations(records, 3):
        if records_equivalent(a, b) and records_equivalent(b, c):
            assert records_equivalent(a, c)


def test_records_with_different_skeletons_are_inequivalent() -> None:
    hopf = load_bundle("hopf.bundle")
    sphere = make_invariant_record(whole_space_polytope("sphere.weld"), hopf)
    torus = make_invariant_record(
        whole_space_polytope("torus.weld"),
        zero_bundle(load_space("torus.weld"), 2),
    )
    assert not records_equivalent(sphere, torus)


def test_covectors_pin_down_the_automorphism() -> None:
    welding = load_welding("plane.weld").spec
    space = load_space("plane.weld")
    pf = load_polytope("unitsquare.poly")
    base_poly = load_built_polytope("unitsquare.poly")
    bundle = zero_bundle(space, 2)
    base = make_invariant_record(base_poly, bundle)

    # shear the square: covectors move by the inverse transpose
    shear_it = ((1, 0), (-1, 1))

    def apply(m, v):
        return vector(m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

    sheared_spec = make_polytope_spec(
        welding,
        [
            (ref, AffineFunctional(apply(shear_it, f.linear), f.constant))
            for ref, f in pf.spec.constraints
        ],
    )
    sheared = make_invariant_record(build_polytope(space, sheared_spec), bundle)
    assert records_equivalent(base, sheared)

    # scaling one covector breaks primitivity/unimodularity, so compare
    # against an honest but different square instead: translate constants
    moved_spec = make_polytope_spec(
        welding,
        [
            (ref, AffineFunctional(f.linear, f.constant + 1))
            for ref, f in pf.spec.constraints
        ],
    )
    moved = make_invariant_record(build_polytope(space, moved_spec), bundle)
    assert not records_equivalent(base, moved)


# ------------------------------------------------- exact record equivalence


# the strip texts the benchmark's polygon workload compares
gen = benchmark_module("generators")


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def moved_record(record, t):
    """``record`` with T applied to its ray vectors and Chern columns
    and the inverse transpose of T to its covectors."""
    t = tuple(tuple(F(x) for x in row) for row in t)
    n = len(t)
    if n == 1:
        dual = ((1 / t[0][0],),)
    else:
        det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
        dual = ((t[1][1] / det, -t[1][0] / det), (-t[0][1] / det, t[0][0] / det))

    def apply(m, v):
        return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))

    shape = record.polytope
    shape = replace(
        shape,
        domains=tuple(
            (i, labels, tuple(apply(t, v) for v in vectors), cones)
            for i, labels, vectors, cones in shape.domains
        ),
        constraints=tuple(
            (ref, apply(dual, linear), constant)
            for ref, linear, constant in shape.constraints
        ),
    )
    columns = [apply(t, column) for column in zip(*record.chern.chern)]
    chern = tuple(tuple(column[k] for column in columns) for k in range(n))
    return replace(record, polytope=shape, chern=replace(record.chern, chern=chern))


def strip_record(lo, hi):
    """The strip record of the rays +-(1, 0) with constraints
    ``1.lo = lo + 0`` and ``1.hi = hi + 1``, built in memory."""
    line = make_fan([vector(1, 0), vector(-1, 0)], [(), (0,), (1,)], labels=("a", "c"))
    welding = make_welding_spec({1: line}, [])
    spec = make_polytope_spec(
        welding,
        [
            ((1, "lo"), AffineFunctional(vector(*lo), F(0))),
            ((1, "hi"), AffineFunctional(vector(*hi), F(1))),
        ],
    )
    polytope = build_polytope(build_welded_space(welding), spec)
    return make_invariant_record(polytope, make_bundle(2, [(), ()]))


@lru_cache(maxsize=None)
def fixture_records():
    """Every record a fixture builds, with zero Chern vectors: each
    ``.poly`` fixture and the whole-space polytope of each ``.weld``
    fixture that is compact, and the strip."""
    records = {"strip": strip_record((0, 1), (0, -1))}
    for path in sorted(FIXTURES.glob("*.poly")) + sorted(FIXTURES.glob("*.weld")):
        try:
            if path.suffix == ".poly":
                p = load_built_polytope(path.name)
            else:
                p = whole_space_polytope(path.name)
            records[path.name] = make_invariant_record(p, zero_bundle(p.space, 2))
        except GeometryError:
            continue
    return records


def with_chern(record, entries):
    """``record`` with its Chern vectors filled from ``entries``."""
    rows = record.chern.chern
    width = len(rows[0])
    assert len(rows) * width <= len(entries)
    chern = tuple(tuple(entries[k * width : (k + 1) * width]) for k in range(len(rows)))
    return replace(record, chern=make_bundle(len(rows), chern))


def assert_equivalence(a, b, expected: bool) -> None:
    """Both orders give ``expected``, and wherever the bounded search
    finds a lattice automorphism the exact test agrees."""
    for x, y in ((a, b), (b, a)):
        assert records_equivalent(x, y) is expected
        if record_oracle.records_equivalent(x, y):
            assert records_equivalent(x, y)


@pytest.fixture(scope="module")
def strip_pairs(tmp_path_factory):
    """``s -> (strip, sheared strip)`` records of the benchmark's texts."""
    work = tmp_path_factory.mktemp("strips")
    for name, text in gen.LIBRARY.items():
        (work / name).write_text(text)
    bundle = make_bundle(2, [(), ()])

    def record(text):
        pf = parse_polytope_text(text, "strip.poly", base=work)
        polytope = build_polytope(build_welded_space(pf.spec.welding), pf.spec)
        return make_invariant_record(polytope, bundle)

    def pair(s):
        (work / f"line{s}.fan").write_text(gen._line_fan(s))
        (work / f"line{s}.weld").write_text(
            gen.LIBRARY["line0.weld"].replace("line0", f"line{s}")
        )
        return tuple(record(text) for text in gen.strip_texts(s))

    return pair


@pytest.mark.parametrize("s", [*range(1, 9), 50])
def test_sheared_strips_are_equivalent(strip_pairs, s: int) -> None:
    strip, sheared = strip_pairs(s)
    assert strip == fixture_records()["strip"]
    # the shear [[1, 0], [s, 1]] carries the strip onto its image
    assert moved_record(strip, ((1, 0), (s, 1))) == sheared
    for a, b in ((strip, sheared), (sheared, strip)):
        assert records_equivalent(a, b)


def test_reflected_strip_needs_a_reversing_map() -> None:
    strip = fixture_records()["strip"]
    reflected = strip_record((0, -1), (0, 1))
    # the rays fix (1, 0), so T = [[1, b], [0, det T]], and only
    # det T = -1 turns the covectors round: diag(1, -1) is a witness
    assert moved_record(strip, ((1, 0), (0, -1))) == reflected
    assert_equivalence(strip, reflected, True)


@pytest.mark.parametrize(
    "matrix",
    [((2, 0), (0, 1)), ((1, 0), (0, -3)), ((2, 0), (0, F(1, 2))), ((1, F(1, 2)), (0, 1))],
    ids=["det 2", "det -3", "rational diagonal", "rational shear"],
)
def test_square_moved_off_the_lattice_is_inequivalent(matrix) -> None:
    square = fixture_records()["unitsquare.poly"]
    assert_equivalence(square, moved_record(square, matrix), False)
    assert_equivalence(square, moved_record(square, ((1, 7), (0, 1))), True)


def test_reversing_a_line_moves_covectors_with_the_rays() -> None:
    # on a line T = +-1 is its own inverse transpose, so the covectors
    # turn round with the rays and never on their own
    line = fixture_records()["strip"]
    shape = replace(
        line.polytope,
        dim=1,
        domains=((1, ("a", "c"), ((F(1),), (F(-1),)), ((), (0,), (1,))),),
        constraints=(((1, "hi"), (F(-1),), F(1)), ((1, "lo"), (F(1),), F(0))),
    )
    record = replace(line, polytope=shape, chern=make_bundle(1, [()]))
    flipped = moved_record(record, ((-1,),))
    assert_equivalence(record, flipped, True)
    covectors_only = replace(record, polytope=replace(shape, constraints=flipped.polytope.constraints))
    assert_equivalence(record, covectors_only, False)


def test_equivalence_past_dimension_two_raises() -> None:
    square = fixture_records()["unitsquare.poly"]
    solid = replace(square, polytope=replace(square.polytope, dim=3))
    with pytest.raises(UnsupportedDimensionError, match="not 3"):
        records_equivalent(solid, solid)


def test_bounded_search_finds_nothing_the_exact_test_misses() -> None:
    hopf = load_bundle("hopf.bundle")
    records = [
        record
        for base in fixture_records().values()
        for record in (base, with_chern(base, (1,) * 4))
    ]
    records += [
        transformed_sphere_record(matrix, hopf)
        for matrix in (((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)))
    ]
    for a, b in itertools.product(records, repeat=2):
        if record_oracle.records_equivalent(a, b):
            assert records_equivalent(a, b)


@st.composite
def unimodular(draw):
    """A product of 1-6 elementary matrices with entries up to +-50,
    with its second column negated about 40% of the time."""
    t = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(-50, 50))
        t = matmul(t, ((1, k), (0, 1)) if draw(st.booleans()) else ((1, 0), (k, 1)))
    if draw(st.integers(0, 4)) < 2:
        t = matmul(t, ((1, 0), (0, -1)))
    return t


@settings(max_examples=100, deadline=None)
@given(
    name=st.deferred(lambda: st.sampled_from(sorted(fixture_records()))),
    chern=st.just((0,) * 4) | st.tuples(*[st.integers(-3, 3)] * 4),
    t=unimodular(),
    k=st.sampled_from([2, 3, -2, -3]),
    q=st.sampled_from([F(2), F(3), F(1, 2), F(2, 3)]),
)
@example(name="strip", chern=(0,) * 4, t=((1, 0), (0, -1)), k=2, q=F(2))
def test_lattice_images_are_equivalent(name, chern, t, k, q) -> None:
    record = with_chern(fixture_records()[name], chern)
    assert_equivalence(record, moved_record(record, t), True)
    # off the lattice: T = t diag(k, 1) is integral of determinant k and
    # t diag(q, 1/q) rational of determinant 1.  Either is told apart
    # once the rays and Chern columns or the covectors alone span the
    # plane; with both on one line each, it may fix the data.
    shape = record.polytope
    if rank(shape.ray_vectors() + tuple(zip(*record.chern.chern))) == 2 or rank(
        shape.covectors()
    ) == 2:
        for off in (((k, 0), (0, 1)), ((q, 0), (0, 1 / q))):
            assert_equivalence(record, moved_record(record, matmul(t, off)), False)


# ------------------------------------------ the integer path against the oracle


@st.composite
def drawn_records(draw):
    """A record built by hand, of dimension 1 or 2, with up to three ray
    vectors and covectors and up to two Chern columns, entries rationals
    of denominator at most 6: all zero, on one line (the covectors turned
    onto it in the plane) or anywhere."""
    n = draw(st.sampled_from([1, 2]))
    where = draw(st.sampled_from(["zero", "line", "anywhere", "anywhere"]))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    line = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))

    def vectors(turned: bool) -> list[tuple[F, ...]]:
        count = draw(st.integers(0, 3))
        if where == "zero":
            return [(F(0),) * n] * count
        if where == "anywhere":
            return draw(st.lists(st.tuples(*[entry] * n), min_size=count, max_size=count))
        # rot90 of (l1, -l0) is l
        direction = (line[1], -line[0]) if turned and n == 2 else line
        scalars = draw(st.lists(entry, min_size=count, max_size=count))
        return [tuple(t * x for x in direction) for t in scalars]

    rays, covectors, columns = vectors(False), vectors(True), vectors(False)[:2]
    shape = PolytopeShape(
        dim=n,
        domains=((1, tuple(f"r{i}" for i in range(len(rays))), tuple(rays), ((),)),),
        pairs=(),
        constraints=tuple(((1, f"c{i}"), c, F(0)) for i, c in enumerate(covectors)),
        groups=(),
        orientation=1,
    )
    chern = make_bundle(n, list(zip(*columns)) if columns else [()] * n)
    return InvariantRecord(shape, chern, 0)


def agreed_equivalence(a, b) -> bool:
    """Whether ``a`` and ``b`` are equivalent, once the integer path and
    the Fraction oracle have given one answer in both argument orders."""
    answers = [
        equivalent(x, y)
        for x, y in ((a, b), (b, a))
        for equivalent in (records_equivalent, record_oracle.exact_records_equivalent)
    ]
    assert len(set(answers)) == 1, answers
    return answers[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(record=drawn_records(), data=st.data())
def test_the_integer_path_agrees_with_the_fraction_oracle(record, data) -> None:
    n = record.polytope.dim
    if n == 2:
        t = data.draw(unimodular())
        k = data.draw(st.sampled_from([2, -2]))
        q = data.draw(st.sampled_from([F(2), F(3), F(1, 2), F(2, 3), F(1, 6)]))
        off = [matmul(t, ((k, 0), (0, 1))), matmul(t, ((q, 0), (0, 1 / q)))]
    else:
        t = data.draw(st.sampled_from([((1,),), ((-1,),)]))
        off = [((data.draw(st.sampled_from([2, -2, F(1, 2), F(-3, 2)])),),)]
    assert agreed_equivalence(record, moved_record(record, t))
    # off the lattice the data is told apart once the rays and Chern
    # columns or the covectors alone span the space
    shape = record.polytope
    moved_by_t = shape.ray_vectors() + tuple(zip(*record.chern.chern))
    told_apart = rank(moved_by_t) == n or rank(shape.covectors()) == n
    for m in off:
        assert not (agreed_equivalence(record, moved_record(record, m)) and told_apart)
