"""Log affine polytopes: construction, faces, compactness, lattice
condition, topology and regularized volume."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logaffine.errors import (
    ContinuationError,
    DegenerateVertexError,
    GeometryError,
    NonCompactError,
    NonIntegerEntryError,
    NonOrientableError,
    SingularFaceError,
    TransversalityError,
    UnsupportedDimensionError,
)
from logaffine import fans, polytopes
from logaffine.polytopes import (
    LogPolytope,
    build_polytope,
    delzant_check,
    make_polytope_spec,
    polytope_moduli,
    polytope_topology,
    regularized_volume,
)
from logaffine.fans import _direction_cmp, make_fan
from logaffine.fileio import parse_polytope_text, parse_welding_text
from logaffine.rational import AffineFunctional, cross2, vector
from logaffine.welding import build_welded_space, make_welding_spec

import volume_oracle
from polytope_oracle import (
    _quadrant_reaches_corner,
    _side_trace,
    check_face_lemmas,
    clip_regions,
    covered_by_samples,
    faces_1d,
    is_compact_2d,
)
from rational_oracle import cone_contains
from conftest import (
    FAR_RECTANGLE,
    FIXTURES,
    benchmark_module,
    grid_text,
    load_built_polytope,
    load_fan,
    load_polytope,
    load_space,
    load_welding,
)

F = Fraction


def fn(*linear, c=0) -> AffineFunctional:
    return AffineFunctional(vector(*linear), Fraction(c))


def whole_space_polytope(weld_name: str):
    spec = make_polytope_spec(load_welding(weld_name).spec, [])
    return build_polytope(load_space(weld_name), spec)


def plane_polytope(constraints, groups=(), orientation=1):
    spec = make_polytope_spec(
        load_welding("plane.weld").spec, constraints, groups, orientation
    )
    return build_polytope(load_space("plane.weld"), spec)


# ------------------------------------------------------ spec validation


def test_spec_rejects_duplicate_constraint() -> None:
    welding = load_welding("plane.weld").spec
    with pytest.raises(GeometryError, match="duplicate"):
        make_polytope_spec(welding, [((1, "f"), fn(1, 0)), ((1, "f"), fn(0, 1))])


def test_spec_rejects_unknown_domain() -> None:
    welding = load_welding("plane.weld").spec
    with pytest.raises(GeometryError, match="unknown domain"):
        make_polytope_spec(welding, [((7, "f"), fn(1, 0))])


def test_spec_rejects_wrong_covector_length() -> None:
    welding = load_welding("plane.weld").spec
    with pytest.raises(GeometryError, match="length"):
        make_polytope_spec(welding, [((1, "f"), fn(1, 0, 0))])


def test_spec_rejects_non_integer_covector() -> None:
    welding = load_welding("plane.weld").spec
    with pytest.raises(NonIntegerEntryError):
        make_polytope_spec(welding, [((1, "f"), fn(F(1, 2), 1))])


def test_spec_rejects_non_primitive_covector() -> None:
    welding = load_welding("plane.weld").spec
    with pytest.raises(GeometryError, match="primitive"):
        make_polytope_spec(welding, [((1, "f"), fn(2, 4))])


def test_spec_rejects_zero_covector() -> None:
    welding = load_welding("plane.weld").spec
    with pytest.raises(GeometryError, match="zero"):
        make_polytope_spec(welding, [((1, "f"), fn(0, 0))])


def test_spec_rejects_bad_groups() -> None:
    welding = load_welding("plane.weld").spec
    constraints = [((1, "f"), fn(1, 0)), ((1, "g"), fn(0, 1))]
    with pytest.raises(GeometryError, match="duplicate group"):
        make_polytope_spec(
            welding, constraints, [("A", ((1, "f"),)), ("A", ((1, "g"),))]
        )
    with pytest.raises(GeometryError, match="unknown constraint"):
        make_polytope_spec(welding, constraints, [("A", ((1, "h"),))])
    with pytest.raises(GeometryError, match="more than one group"):
        make_polytope_spec(
            welding, constraints, [("A", ((1, "f"),)), ("B", ((1, "f"),))]
        )


def test_spec_rejects_bad_orientation() -> None:
    welding = load_welding("plane.weld").spec
    with pytest.raises(GeometryError, match="orientation"):
        make_polytope_spec(welding, [], orientation=2)


# ------------------------------------------- corner-region fixture census


def test_corner_region_faces_and_traces() -> None:
    p = load_built_polytope("compdelt.poly")
    assert p.feasible == (1,)
    assert p.elementary and p.compact and p.orientable
    singular = {f.edges for f in p.singular_faces}
    assert singular == {("1.a",), ("1.b",)}
    assert {f.label for f in p.log_faces} == {"1.f1", "1.f2"}
    assert not p.interior_faces

    a, b = p.trace("1.a"), p.trace("1.b")
    assert (a.kind, a.lower, a.upper) == ("singular", None, F(0))
    assert (b.kind, b.lower, b.upper) == ("singular", F(0), None)
    assert p.trace_components == ()
    assert p.crossings_inside == ()
    assert p.boundary_corner_meetings == 1

    kinds = sorted(v.kind for v in p.vertices)
    assert kinds == ["corner", "interior", "landing", "landing"]
    inner = next(v for v in p.vertices if v.kind == "interior")
    assert inner.point == vector(0, 0)
    assert set(inner.faces) == {"1.f1", "1.f2"}


def test_corner_region_analysis() -> None:
    p = load_built_polytope("compdelt.poly")
    assert is_compact_2d(p)
    assert delzant_check(p)
    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (1, 0, 1)
    assert (top.singular_faces, top.log_faces, top.interior_faces) == (2, 2, 0)
    assert polytope_moduli(p) == 1
    with pytest.raises(SingularFaceError):
        regularized_volume(p)


def test_corner_region_face_lemmas() -> None:
    p = load_built_polytope("compdelt.poly")
    report = check_face_lemmas(p)
    assert report.ok and not report.violations
    relations = sorted((c.face, c.edge_label, c.relation) for c in report.checks)
    assert relations == [
        ("1.f1", "1.a", "zero"),
        ("1.f1", "1.b", "negative"),
        ("1.f2", "1.a", "negative"),
        ("1.f2", "1.b", "zero"),
    ]
    assert all(c.ok for c in report.checks)


def test_dropping_one_constraint_loses_compactness() -> None:
    p = load_built_polytope("compdelt_nof2.poly")
    assert not p.compact
    assert not is_compact_2d(p)
    with pytest.raises(NonCompactError):
        polytope_topology(p)
    with pytest.raises(NonCompactError):
        polytope_moduli(p)


# ------------------------------------------------- two-domain half plane


def test_half_plane_model_census() -> None:
    p = load_built_polytope("figmodel.poly")
    assert p.feasible == (1, 2)
    assert not p.elementary
    assert len(p.singular_faces) == 1
    assert set(p.singular_faces[0].edges) == {"1.b", "2.b"}
    assert not p.singular_faces[0].closed
    assert {f.label for f in p.log_faces} == {"N", "1.e", "2.w"}
    assert {f.label for f in p.interior_faces} == {"1.q"}
    n_face = p.face("N")
    assert set(n_face.members) == {(1, "n"), (2, "n")}
    assert n_face.edges == ("k1",)

    chord = p.trace("k1")
    assert (chord.kind, chord.lower, chord.upper) == ("divisor", None, F(0))
    assert [t.label for t in p.trace_components] == ["t1"]
    assert not p.trace_components[0].closed
    assert p.boundary_corner_meetings == 1

    crossing_vertex = p.vertex(chord.upper_vertex)
    assert crossing_vertex.kind == "landing"
    assert crossing_vertex.faces == ("N",)

    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (1, 0, 1)


def test_half_plane_model_counts_cells() -> None:
    p = load_built_polytope("figmodel.poly")
    assert len(p.segments) == 5
    assert len(p.traces) == 3
    assert len(p.vertices) == 7
    with pytest.raises(GeometryError, match="single domain"):
        is_compact_2d(p)


# ----------------------------------------------------- genus-one polytope


def test_genus_one_polytope() -> None:
    p = load_built_polytope("gen1.poly")
    assert p.feasible == (1, 2, 3, 4)
    assert p.compact and p.orientable
    assert not p.singular_faces
    assert [f.label for f in p.log_faces] == ["H"]
    face = p.face("H")
    assert len(face.members) == 4 and face.closed

    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (-1, 1, 1)
    assert top.orientable

    full = [t for t in p.traces if t.lower is None and t.upper is None]
    half = [t for t in p.traces if (t.lower is None) != (t.upper is None)]
    assert len(full) == 4 and len(half) == 4
    assert all(t.kind == "divisor" for t in p.traces)

    closed = [t for t in p.trace_components if t.closed]
    open_arcs = [t for t in p.trace_components if not t.closed]
    assert len(closed) == 2 and len(open_arcs) == 2
    assert all(len(t.edges) == 2 for t in p.trace_components)
    assert len(p.crossings_inside) == 3
    assert polytope_moduli(p) == 5
    assert delzant_check(p)
    assert regularized_volume(p) == 0


def test_a_face_landing_at_both_ends_on_two_edges_is_not_closed() -> None:
    # each landing holds one segment end: an arc between two strata, not a circle
    welding = make_welding_spec({1: load_fan("halfplane3.fan")}, [])
    spec = make_polytope_spec(welding, [((1, "n"), fn(0, -1, c=1))])
    p = build_polytope(build_welded_space(welding), spec)
    (s,) = p.segments
    assert [p.vertex(v).kind for v in (s.lower_vertex, s.upper_vertex)] == ["landing"] * 2
    face = p.face("1.n")
    assert (face.kind, face.edges, face.closed) == ("log", ("1.a", "1.c"), False)


# ------------------------------------------------------- welded rectangle


def test_rectangle_volume_and_landings() -> None:
    p = load_built_polytope("rect.poly")
    assert regularized_volume(p) == 1
    assert {f.label for f in p.log_faces} == {"E", "N", "S", "W"}
    assert delzant_check(p)

    landings = {
        (v.edge_label, v.position): v.faces
        for v in p.vertices
        if v.kind == "landing"
    }
    assert landings[("w1", F(1))] == ("N",)
    assert landings[("w2", F(-1))] == ("E",)

    assert p.crossings_inside == ("c1",)
    assert len(p.trace_components) == 2
    assert all(not t.closed for t in p.trace_components)
    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (1, 0, 1)


def test_rectangle_orientation_flips_volume_sign() -> None:
    pf = load_polytope("rect.poly")
    flipped = replace(pf.spec, orientation=-1)
    space = build_welded_space(pf.spec.welding)
    assert regularized_volume(build_polytope(space, flipped)) == -1


# ------------------------------------------------------------ unit square


def test_unit_square() -> None:
    p = load_built_polytope("unitsquare.poly")
    assert all(f.kind == "interior" for f in p.faces)
    assert len(p.faces) == 4
    assert len(p.vertices) == 4
    assert all(v.kind == "interior" for v in p.vertices)
    assert delzant_check(p)
    assert is_compact_2d(p)
    assert regularized_volume(p) == 1
    assert polytope_moduli(p) == 0
    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (1, 0, 1)


def test_unit_square_volume_matches_eps_choice() -> None:
    p = load_built_polytope("unitsquare.poly")
    assert regularized_volume(p, eps=F(1, 100)) == 1
    with pytest.raises(GeometryError, match="excision"):
        regularized_volume(p, eps=F(2))


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 10**9), F(1, 10**25)])
def test_volume_far_from_the_strata_is_exact_at_every_eps(eps) -> None:
    pf = parse_polytope_text(FAR_RECTANGLE, base=FIXTURES)
    p = build_polytope(build_welded_space(pf.spec.welding), pf.spec)
    assert regularized_volume(p, eps=eps) == 11 * 8


def _without_singular_faces(name: str):
    p = load_built_polytope(name)
    return replace(p, faces=p.nonsingular_faces)


VOLUME_FIXTURES = [
    "delzfail.poly",
    "gen1.poly",
    "line1d.poly",
    "rect.poly",
    "symm1d.poly",
    "unitsquare.poly",
]


@pytest.mark.parametrize("name", VOLUME_FIXTURES + ["figmodel.poly"])
def test_volume_matches_the_doubling_fit_oracle(name) -> None:
    """The exact limit equals the old quadratic fit in ``T``, started
    past every constraint constant so that its samples see the
    large-``T`` regions, and the symbolic oracle, which clips every
    line by every half-plane on the old polynomial kernel."""
    p = _without_singular_faces(name)
    assert not p.singular_faces
    t0 = volume_oracle.past_every_constant(p)
    volume = regularized_volume(p)
    assert volume == volume_oracle.symbolic_volume(p) == volume_oracle.doubling_fit(p, t0)


def test_volume_fixture_list_is_every_fixture_with_a_volume() -> None:
    with_volume = []
    for path in sorted(FIXTURES.glob("*.poly")):
        try:
            regularized_volume(load_built_polytope(path.name))
        except GeometryError:
            continue
        with_volume.append(path.name)
    assert with_volume == VOLUME_FIXTURES
    assert regularized_volume(_without_singular_faces("figmodel.poly")) == F(-1, 2)


@pytest.mark.parametrize("name", VOLUME_FIXTURES)
def test_the_volume_reflects_no_operation_onto_a_tpoly(monkeypatch, name) -> None:
    """Every operand the volume mixes with a ``_TPoly`` is one itself or
    sits on its right, so no ``Fraction`` operator is tried first."""
    p = load_built_polytope(name)
    expected = regularized_volume(p)
    calls = []
    for method in ("__radd__", "__rmul__", "__rsub__"):
        original = getattr(polytopes._TPoly, method)

        def counting(self, other, method=method, original=original):
            calls.append(method)
            return original(self, other)

        monkeypatch.setattr(polytopes._TPoly, method, counting)
    assert regularized_volume(p) == expected
    assert calls == []


def test_divergent_volume_names_its_growth_in_the_cutoff() -> None:
    """Stripping the singular faces of ``compdelt.poly`` skips the
    singular-face check; the clipped area then grows as ``T^2 / 2``."""
    p = _without_singular_faces("compdelt.poly")
    with pytest.raises(GeometryError, match="diverges") as info:
        regularized_volume(p)
    assert "T^2: 1/2" in str(info.value)
    assert "T^1" not in str(info.value)
    with pytest.raises(GeometryError, match="does not stabilize"):
        volume_oracle.doubling_fit(p, volume_oracle.past_every_constant(p))


# -------------------------------------------------------- lattice failure


def test_sheared_square_fails_lattice_check() -> None:
    p = load_built_polytope("delzfail.poly")
    result = delzant_check(p)
    assert not result
    (witness_id, rows), = result.witnesses
    vertex = p.vertex(witness_id)
    assert vertex.point == vector(0, 0)
    assert set(rows) == {vector(1, 0), vector(1, 2)}


def test_lattice_check_rejects_non_integer_covector() -> None:
    p = load_built_polytope("unitsquare.poly")
    doctored_constraints = tuple(
        (ref, AffineFunctional(vector(F(1, 2), 1), f.constant))
        if ref == (1, "x0")
        else (ref, f)
        for ref, f in p.spec.constraints
    )
    doctored = replace(p.spec, constraints=doctored_constraints)
    with pytest.raises(NonIntegerEntryError):
        delzant_check(replace(p, spec=doctored))


@settings(max_examples=40, deadline=None)
@given(
    dx=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    dy=st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_lattice_check_is_translation_invariant(dx: Fraction, dy: Fraction) -> None:
    space = load_space("plane.weld")
    for name, expected in (("unitsquare.poly", True), ("delzfail.poly", False)):
        pf = load_polytope(name)
        shift = vector(dx, dy)
        moved = make_polytope_spec(
            pf.spec.welding,
            [
                (ref, AffineFunctional(f.linear, f.constant + sum(
                    a * t for a, t in zip(f.linear, shift)
                )))
                for ref, f in pf.spec.constraints
            ],
            pf.spec.groups,
            pf.spec.orientation,
        )
        assert delzant_check(build_polytope(space, moved)).ok is expected


# ------------------------------------------------------------ 1d polytopes


def test_interval_through_divisor_point() -> None:
    p = load_built_polytope("line1d.poly")
    assert p.dim == 1
    assert p.feasible == (1, 2)
    assert len(p.interior_faces) == 2 and not p.singular_faces
    assert [t.kind for t in p.traces] == ["divisor"]
    assert len(p.trace_components) == 1
    assert regularized_volume(p) == 1


def test_symmetric_interval_has_zero_volume() -> None:
    p = load_built_polytope("symm1d.poly")
    assert regularized_volume(p) == 0


def test_one_dimensional_groups_cannot_continue() -> None:
    welding = load_welding("line1d.weld").spec
    spec = make_polytope_spec(
        welding,
        [((1, "f"), fn(-1, c=1)), ((2, "f"), fn(-1, c=0))],
        [("X", ((1, "f"), (2, "f")))],
    )
    with pytest.raises(ContinuationError, match="dimension 1"):
        build_polytope(load_space("line1d.weld"), spec)


def test_two_constraints_at_one_point_are_rejected() -> None:
    """Two constraints tied on one covector cut at the same point; the
    first in spec order is named first."""
    welding = load_welding("line1d.weld").spec
    spec = make_polytope_spec(welding, [((1, "b"), fn(1, c=1)), ((1, "a"), fn(1, c=1))])
    with pytest.raises(GeometryError) as err:
        build_polytope(load_space("line1d.weld"), spec)
    assert str(err.value) == "constraints 1.b and 1.a cut at the same point"


def test_one_dimensional_topology_is_unsupported() -> None:
    p = load_built_polytope("line1d.poly")
    with pytest.raises(UnsupportedDimensionError):
        polytope_topology(p)
    with pytest.raises(UnsupportedDimensionError):
        polytope_moduli(p)
    with pytest.raises(UnsupportedDimensionError):
        is_compact_2d(p)


def test_three_dimensional_polytopes_are_unsupported() -> None:
    with pytest.raises(UnsupportedDimensionError):
        load_built_polytope("dim3.poly")


# ------------------------------------------------------ whole-space slabs


@pytest.mark.parametrize(
    "weld_name, euler, genus, moduli",
    [("sphere.weld", 2, 0, 10), ("torus.weld", 0, 1, 9), ("genus2.weld", -2, 2, 13)],
)
def test_whole_space_polytopes(weld_name: str, euler: int, genus: int, moduli: int) -> None:
    p = whole_space_polytope(weld_name)
    assert not p.faces
    assert all(t.kind == "divisor" for t in p.traces)
    top = polytope_topology(p)
    assert (top.euler, top.genus, top.boundary_circles) == (euler, genus, 0)
    assert polytope_moduli(p) == moduli


def test_whole_nonorientable_space_has_no_volume() -> None:
    p = whole_space_polytope("mobius.weld")
    assert not p.orientable
    with pytest.raises(NonOrientableError):
        regularized_volume(p)


# ------------------------------------------------------- build-time errors


def test_mismatched_traces_are_rejected() -> None:
    pf = load_polytope("figmodel.poly")
    space = build_welded_space(pf.spec.welding)
    skewed = make_polytope_spec(
        pf.spec.welding,
        [
            (ref, fn(0, -1, c=1)) if ref == (2, "n") else (ref, f)
            for ref, f in pf.spec.constraints
        ],
        pf.spec.groups,
    )
    with pytest.raises(ContinuationError, match="disagree"):
        build_polytope(space, skewed)


def test_undeclared_continuation_is_rejected() -> None:
    pf = load_polytope("figmodel.poly")
    space = build_welded_space(pf.spec.welding)
    ungrouped = replace(pf.spec, groups=())
    with pytest.raises(ContinuationError, match="not declared"):
        build_polytope(space, ungrouped)


def test_group_of_unrelated_faces_is_rejected() -> None:
    welding = load_welding("plane.weld").spec
    spec = make_polytope_spec(
        welding,
        [((1, "x0"), fn(1, 0)), ((1, "x1"), fn(-1, 0, c=1))],
        [("A", ((1, "x0"), (1, "x1")))],
    )
    with pytest.raises(ContinuationError, match="do not continue"):
        build_polytope(load_space("plane.weld"), spec)


def test_face_running_into_a_corner_is_rejected() -> None:
    welding = load_welding("compdelt.weld").spec
    spec = make_polytope_spec(welding, [((1, "t"), fn(1, -2))])
    with pytest.raises(TransversalityError, match="corner"):
        build_polytope(load_space("compdelt.weld"), spec)


def test_three_concurrent_faces_are_rejected() -> None:
    pf = load_polytope("unitsquare.poly")
    space = build_welded_space(pf.spec.welding)
    spec = make_polytope_spec(
        pf.spec.welding,
        list(pf.spec.constraints) + [((1, "diag"), fn(-1, -1, c=2))],
    )
    with pytest.raises(DegenerateVertexError):
        build_polytope(space, spec)


@pytest.mark.parametrize(
    "constraints, fan_name",
    [
        ([fn(1, 0), fn(-1, 0)], "emptyfan.fan"),
        # the zero-width slab y >= 0, -y >= 0 over a fan with rays
        ([fn(0, 1), fn(0, -1)], "square.fan"),
    ],
    ids=["empty-fan", "square-fan"],
)
def test_empty_interior_is_rejected(constraints, fan_name: str) -> None:
    built = single_domain_polytope(constraints, load_fan(fan_name))
    assert isinstance(built, GeometryError)
    assert "empty interior" in str(built)


def test_everywhere_empty_polytope_is_rejected() -> None:
    with pytest.raises(GeometryError, match="empty in every domain"):
        plane_polytope([((1, "lo"), fn(1, 0, c=-1)), ((1, "hi"), fn(-1, 0))])


def test_coincident_constraint_lines_are_rejected() -> None:
    with pytest.raises(GeometryError, match="same line"):
        plane_polytope([((1, "f"), fn(1, 0)), ((1, "g"), fn(1, 0))])


def test_wrong_space_is_rejected() -> None:
    pf = load_polytope("unitsquare.poly")
    with pytest.raises(GeometryError, match="different welding"):
        build_polytope(load_space("compdelt.weld"), pf.spec)


def test_noncompact_region_has_no_volume() -> None:
    p = plane_polytope([((1, "f"), fn(1, 0))])
    assert not p.compact
    with pytest.raises(NonCompactError):
        regularized_volume(p)


def test_four_singular_traces_at_one_corner_are_not_a_1_manifold() -> None:
    # domain 1 of the Mobius welding is cut to a triangle (f3 is loose),
    # domains 2 and 3 are whole: the singular traces m1, 3.a, 2.c and m3
    # all run into the corner cluster c2
    welding = load_welding("mobius.weld").spec
    spec = make_polytope_spec(
        welding,
        [
            ((1, "f1"), fn(0, 1, c=F(1, 2))),
            ((1, "f2"), fn(1, -1, c=-1)),
            ((1, "f3"), fn(1, -1, c=5)),
            ((1, "f4"), fn(-1, -2, c=3)),
        ],
    )
    p = build_polytope(load_space("mobius.weld"), spec)
    assert p.compact
    v5 = p.vertex("v5")
    assert (v5.kind, v5.cluster_id) == ("corner", "c2")
    ends = {e.label: (e.tail, e.head) for e in p.space.edges}
    singular = [t.edge_label for t in p.traces if t.kind == "singular"]
    assert sorted(e for e in singular if "c2" in ends[e]) == ["2.c", "3.a", "m1", "m3"]
    with pytest.raises(GeometryError) as raised:
        polytope_topology(p)
    assert str(raised.value) == "the polytope boundary is not a 1-manifold at v5"


# ----------------------------------------------------------- face lemmas


def test_face_lemmas_flag_doctored_covectors() -> None:
    p = load_built_polytope("compdelt.poly")
    doctored_constraints = tuple(
        (ref, AffineFunctional(vector(1, -1), f.constant))
        if ref == (1, "f1")
        else (ref, f)
        for ref, f in p.spec.constraints
    )
    doctored = replace(p.spec, constraints=doctored_constraints)
    report = check_face_lemmas(replace(p, spec=doctored))
    assert not report.ok
    broken = {(c.relation, c.edge_label) for c in report.violations}
    assert ("zero", "1.a") in broken
    assert ("negative", "1.b") in broken


# ------------------------------------------------------ volume additivity


def test_interval_volume_is_additive_under_splitting() -> None:
    welding = load_welding("line1d.weld").spec
    space = load_space("line1d.weld")
    left = make_polytope_spec(
        welding,
        [((1, "f"), fn(-1, c=F(1, 2))), ((2, "f"), fn(-1, c=0))],
    )
    right = make_polytope_spec(
        welding,
        [
            ((1, "lo"), fn(1, c=F(-1, 2))),
            ((1, "hi"), fn(-1, c=1)),
            ((2, "lo"), fn(1, c=-1)),
            ((2, "hi"), fn(-1, c=0)),
        ],
    )
    total = load_built_polytope("line1d.poly")
    vol_left = regularized_volume(build_polytope(space, left))
    vol_right = regularized_volume(build_polytope(space, right))
    assert vol_left == F(1, 2) and vol_right == F(1, 2)
    assert vol_left + vol_right == regularized_volume(total)


def test_rectangle_volume_is_additive_across_a_welded_split() -> None:
    welding = load_welding("quadrants.weld").spec
    space = load_space("quadrants.weld")
    right = make_polytope_spec(
        welding,
        [
            ((1, "x"), fn(1, 0, c=F(-1, 2))),
            ((1, "e"), fn(-1, 0, c=1)),
            ((1, "n"), fn(0, -1, c=1)),
            ((4, "x"), fn(1, 0, c=F(-1, 2))),
            ((4, "e"), fn(-1, 0, c=1)),
            ((4, "s"), fn(0, -1, c=0)),
            ((2, "z0"), fn(1, 0, c=0)),
            ((2, "z1"), fn(-1, 0, c=-1)),
            ((3, "z0"), fn(1, 0, c=0)),
            ((3, "z1"), fn(-1, 0, c=-1)),
        ],
        [("X", ((1, "x"), (4, "x"))), ("E", ((1, "e"), (4, "e")))],
    )
    left = make_polytope_spec(
        welding,
        [
            ((1, "x"), fn(-1, 0, c=F(1, 2))),
            ((1, "n"), fn(0, -1, c=1)),
            ((2, "w"), fn(-1, 0, c=0)),
            ((2, "n"), fn(0, -1, c=1)),
            ((3, "w"), fn(-1, 0, c=0)),
            ((3, "s"), fn(0, -1, c=0)),
            ((4, "x"), fn(-1, 0, c=F(1, 2))),
            ((4, "s"), fn(0, -1, c=0)),
        ],
        [
            ("X", ((1, "x"), (4, "x"))),
            ("N", ((1, "n"), (2, "n"))),
            ("W", ((2, "w"), (3, "w"))),
            ("S", ((3, "s"), (4, "s"))),
        ],
    )
    p_right = build_polytope(space, right)
    assert p_right.feasible == (1, 4)
    vol_right = regularized_volume(p_right)
    vol_left = regularized_volume(build_polytope(space, left))
    assert vol_right == F(1, 2) and vol_left == F(1, 2)
    assert vol_left + vol_right == regularized_volume(load_built_polytope("rect.poly"))


@settings(max_examples=25, deadline=None)
@given(split=st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12))
def test_square_volume_is_additive_at_any_split(split: Fraction) -> None:
    left = plane_polytope(
        [
            ((1, "x0"), fn(1, 0)),
            ((1, "cut"), fn(-1, 0, c=split)),
            ((1, "y0"), fn(0, 1)),
            ((1, "y1"), fn(0, -1, c=1)),
        ]
    )
    right = plane_polytope(
        [
            ((1, "cut"), fn(1, 0, c=-split)),
            ((1, "x1"), fn(-1, 0, c=1)),
            ((1, "y0"), fn(0, 1)),
            ((1, "y1"), fn(0, -1, c=1)),
        ]
    )
    assert regularized_volume(left) + regularized_volume(right) == 1


# ----------------------------------------- coverage criterion invariance


def _unimodular(k: int, swap: bool) -> tuple[tuple[int, int], tuple[int, int]]:
    rows = ((1, k), (0, 1))
    if swap:
        rows = (rows[1], rows[0])
    return rows


def _apply_matrix(m, v):
    return vector(
        m[0][0] * v[0] + m[0][1] * v[1],
        m[1][0] * v[0] + m[1][1] * v[1],
    )


def _inverse_transpose(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        (m[1][1] / det, -m[1][0] / det),
        (-m[0][1] / det, m[0][0] / det),
    )


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=-4, max_value=4), swap=st.booleans())
def test_coverage_criterion_is_unimodular_invariant(k: int, swap: bool) -> None:
    from logaffine.fans import make_fan
    from logaffine.welding import make_welding_spec

    m = _unimodular(k, swap)
    mit = _inverse_transpose(m)
    for name, expected in (("compdelt.poly", True), ("compdelt_nof2.poly", False)):
        pf = load_polytope(name)
        fan = pf.spec.welding.fan(1)
        new_fan = make_fan(
            [_apply_matrix(m, v) for v in fan.vectors],
            [sorted(c) for c in fan.cones],
            labels=fan.labels,
        )
        new_welding = make_welding_spec({1: new_fan}, [])
        new_spec = make_polytope_spec(
            new_welding,
            [
                (ref, AffineFunctional(_apply_matrix(mit, f.linear), f.constant))
                for ref, f in pf.spec.constraints
            ],
        )
        p = build_polytope(build_welded_space(new_welding), new_spec)
        assert is_compact_2d(p) is expected


def test_coverage_criterion_is_relabeling_invariant() -> None:
    from logaffine.fans import make_fan
    from logaffine.welding import make_welding_spec

    pf = load_polytope("compdelt.poly")
    fan = pf.spec.welding.fan(1)
    renamed = make_fan(
        fan.vectors, [sorted(c) for c in fan.cones], labels=("q", "p")
    )
    welding = make_welding_spec({1: renamed}, [])
    spec = make_polytope_spec(
        welding, [((1, f"c_{ref[1]}"), f) for ref, f in pf.spec.constraints]
    )
    assert is_compact_2d(build_polytope(build_welded_space(welding), spec))


def test_full_plane_without_constraints_is_covered() -> None:
    welding = load_welding("compdelt.weld").spec
    spec = make_polytope_spec(welding, [])
    p = build_polytope(load_space("compdelt.weld"), spec)
    assert not is_compact_2d(p)

    from logaffine.fans import make_fan
    from logaffine.welding import make_welding_spec

    complete = make_fan(
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [3, 0]],
        labels=["e", "n", "w", "s"],
    )
    full_welding = make_welding_spec({1: complete}, [])
    full = build_polytope(
        build_welded_space(full_welding), make_polytope_spec(full_welding, [])
    )
    assert is_compact_2d(full)


# ------------------------------- the line clip against slow exact oracles


def fm_nonempty(rows) -> bool:
    """Fourier-Motzkin: does a point satisfy every row ``a.u + c >= 0``
    (``> 0`` where the strict flag is set)?"""
    if not rows:
        return True
    n = len(rows[0][0])
    if n == 0:
        return all((c > 0 if strict else c >= 0) for _, c, strict in rows)
    lowers, uppers, rest = [], [], []
    for a, c, strict in rows:
        k = a[-1]
        red = a[:-1]
        if k == 0:
            rest.append((red, c, strict))
        elif k > 0:
            lowers.append((tuple(x / k for x in red), c / k, strict))
        else:
            uppers.append((tuple(x / -k for x in red), c / -k, strict))
    combined = list(rest)
    for al, cl, sl in lowers:
        for au, cu, su in uppers:
            combined.append((tuple(x + y for x, y in zip(al, au)), cl + cu, sl or su))
    return fm_nonempty(combined)


def region_rows(fns, strict: bool):
    return [(tuple(F(x) for x in f.linear), F(f.constant), strict) for f in fns]


def is_unbounded(fns) -> bool:
    """A nonempty region is unbounded iff its recession cone
    ``{x : a.x >= 0}`` holds a point with some coordinate at +-1."""
    cone = [(tuple(F(x) for x in f.linear), F(0), False) for f in fns]
    dim = len(fns[0].linear)
    return any(
        fm_nonempty(cone + [(tuple(F(sign * (i == j)) for j in range(dim)), F(-1), False)])
        for i in range(dim)
        for sign in (1, -1)
    )


def pairwise_vertex_area(halfplanes) -> Fraction:
    """Every pair of lines tried as a vertex, the feasible ones sorted
    by angle around their centroid, then the shoelace sum."""
    points = []
    n = len(halfplanes)
    for i in range(n):
        ai, ci = halfplanes[i].linear, F(halfplanes[i].constant)
        for j in range(i + 1, n):
            aj, cj = halfplanes[j].linear, F(halfplanes[j].constant)
            det = cross2(ai, aj)
            if det == 0:
                continue
            x = ((-ci) * aj[1] - (-cj) * ai[1]) / det
            y = (ai[0] * (-cj) - aj[0] * (-ci)) / det
            pt = (x, y)
            if all(g(pt) >= 0 for g in halfplanes) and pt not in points:
                points.append(pt)
    if len(points) < 3:
        return F(0)
    cx = sum(pt[0] for pt in points) / len(points)
    cy = sum(pt[1] for pt in points) / len(points)
    centered = [(pt, (pt[0] - cx, pt[1] - cy)) for pt in points]
    centered.sort(key=functools.cmp_to_key(lambda u, v: _direction_cmp(u[1], v[1])))
    ordered = [pt for pt, _ in centered]
    twice = sum(
        cross2(ordered[i], ordered[(i + 1) % len(ordered)]) for i in range(len(ordered))
    )
    return abs(twice) / 2


def interval_length(halflines) -> Fraction:
    lower = max(-F(g.constant) / g.linear[0] for g in halflines if g.linear[0] > 0)
    upper = min(-F(g.constant) / g.linear[0] for g in halflines if g.linear[0] < 0)
    return max(F(0), upper - lower)


COVECTORS = {
    1: [(1,), (-1,)],
    2: [(a, b) for a in range(-2, 3) for b in range(-2, 3) if math.gcd(a, b) == 1],
}


BOUNDS = {1: [((1,), 20), ((-1,), 20)], 2: [((1, 0), 20), ((0, 1), 20), ((-1, -1), 20)]}


@st.composite
def systems(draw, dim: int):
    """A few random half-planes (half-lines in dimension 1), half the
    time inside a large bounding triangle (interval), then some of them
    repeated or negated onto the same line."""
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(COVECTORS[dim]), st.integers(-4, 4)),
            min_size=1,
            max_size=6,
        )
    )
    if draw(st.booleans()):
        rows += BOUNDS[dim]
    copies = st.tuples(st.integers(0, len(rows) - 1), st.booleans())
    for i, flip in draw(st.lists(copies, max_size=2)):
        a, c = rows[i]
        rows.append((tuple(-x for x in a), -c) if flip else (a, c))
    return [fn(*a, c=c) for a, c in rows]


def single_domain_polytope(fns, fan=None):
    """Build the region of ``fns`` in one domain over ``fan`` (by
    default the fan without strata), or return the error the build
    raised."""
    if fan is None:
        fan = make_fan([], [[]], labels=[], dim=len(fns[0].linear))
    welding = make_welding_spec({1: fan}, [])
    spec = make_polytope_spec(welding, [((1, f"c{i}"), f) for i, f in enumerate(fns)])
    try:
        return build_polytope(build_welded_space(welding), spec)
    except GeometryError as err:
        return err


EMPTY_ERRORS = (
    "the polytope is empty in every domain",
    "the region in domain 1 has an empty interior",
)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_build_matches_fourier_motzkin_and_vertex_area(dim: int, data) -> None:
    """The build rejects a region as empty or without interior exactly
    when Fourier-Motzkin does, a compact region's volume is its
    brute-force area (length in dimension 1), and a planar region the
    build finds not compact is unbounded and has no volume."""
    fns = data.draw(systems(dim))
    built = single_domain_polytope(fns)
    if not fm_nonempty(region_rows(fns, strict=False)):
        expected = EMPTY_ERRORS[0]
    elif not fm_nonempty(region_rows(fns, strict=True)):
        expected = EMPTY_ERRORS[1]
    else:
        expected = None
    found = str(built) if isinstance(built, GeometryError) else None
    assert (found if found in EMPTY_ERRORS else None) == expected
    if not isinstance(built, GeometryError) and built.compact:
        oracle = pairwise_vertex_area(fns) if dim == 2 else interval_length(fns)
        assert regularized_volume(built) == oracle
    elif not isinstance(built, GeometryError) and dim == 2:
        assert is_unbounded(fns)
        with pytest.raises(NonCompactError):
            regularized_volume(built)


@pytest.mark.parametrize(
    "fns",
    [
        [fn(1, 0, c=100), fn(0, 1, c=1), fn(-1, 0, c=1), fn(1, -1, c=1)],
        # two redundant first lines: the front loses two vertices
        [
            fn(1, 0, c=100),
            fn(1, 2, c=100),
            fn(0, 1, c=1),
            fn(-1, 0, c=1),
            fn(1, -1, c=1),
            fn(1, -2, c=5),
        ],
    ],
    ids=["one", "two"],
)
def test_a_redundant_first_line_leaves_the_cycle_from_its_front(fns) -> None:
    """The first lines counterclockwise are redundant, and only a later
    line cuts their vertices off the front of the cycle."""
    assert fm_nonempty(region_rows(fns, strict=True))
    built = single_domain_polytope(fns)
    assert built.compact and len(built.segments) == 3
    assert regularized_volume(built) == pairwise_vertex_area(fns) == F(9, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fns=systems(1), fan_name=st.sampled_from([None, "halfline.fan"]))
def test_the_interval_build_matches_the_per_point_clip(fns, fan_name) -> None:
    """The 1-D build, which reads each domain's tightest-constraint
    table, finds the feasible domains, the faces, their points and the
    faults that clipping each constraint point by the others finds."""
    fan = load_fan(fan_name) if fan_name else make_fan([], [[]], labels=[], dim=1)
    built = single_domain_polytope(fns, fan)
    welding = make_welding_spec({1: fan}, [])
    spec = make_polytope_spec(welding, [((1, f"c{i}"), f) for i, f in enumerate(fns)])
    try:
        expected = faces_1d(build_welded_space(welding), spec)
    except GeometryError as err:
        assert isinstance(built, GeometryError) and str(built) == str(err)
        return
    assert not isinstance(built, GeometryError), built
    interior = [f for f in built.faces if f.kind == "interior"]
    assert list(built.feasible) == expected[0]
    assert len(interior) == len(built.vertices)
    assert [(f.members[0], v.point) for f, v in zip(interior, built.vertices)] == expected[1]


@settings(max_examples=100, deadline=None)
@given(fns=systems(2))
def test_clipped_area_matches_vertex_oracle(fns) -> None:
    """The volume oracle's clipped area, which reads the constraints
    from the spec, on systems the build would reject: repeated lines,
    opposite lines, empty and unbounded regions."""
    square = load_built_polytope("unitsquare.poly")
    constraints = tuple(((1, f"c{i}"), f) for i, f in enumerate(fns))
    doctored = replace(square, spec=replace(square.spec, constraints=constraints))
    if fm_nonempty(region_rows(fns, strict=False)) and is_unbounded(fns):
        with pytest.raises(GeometryError, match="unbounded after the cutoffs"):
            volume_oracle.symbolic_volume(doctored)
    else:
        assert volume_oracle.symbolic_volume(doctored) == pairwise_vertex_area(fns)


# ----------------------------- the volume from the build's face segments


gen = benchmark_module("generators")
oracles = benchmark_module("oracles")

RAY_FANS = [
    "quadrant.fan",
    "halfplane3.fan",
    "square.fan",
    "hexagon.fan",
    "corner.fan",
    "wedge.fan",
    "triangle.fan",
    "skew2.fan",
    "skew3.fan",
    "skew4.fan",
    "skew6.fan",
    "skew7.fan",
]


@st.composite
def systems_around_the_origin(draw, bounded: bool | None = None):
    """Half-planes on distinct covectors that hold strictly at the
    origin, so the region always has interior; inside the bounding
    triangle when ``bounded``, by default half the time."""
    covectors = draw(
        st.lists(st.sampled_from(COVECTORS[2]), min_size=1, max_size=6, unique=True)
    )
    rows = [(a, draw(st.integers(1, 6))) for a in covectors]
    if draw(st.booleans()) if bounded is None else bounded:
        rows += BOUNDS[2]
    return [fn(*a, c=c) for a, c in rows]


def polygon_functionals(polygon) -> list[AffineFunctional]:
    return [fn(*n, c=c) for n, c in polygon.sides + polygon.redundant]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=4, max_value=24),
    with_redundant=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_polygon_volume_matches_the_symbolic_oracle(k, with_redundant, seed) -> None:
    """Delzant polygons (a chopped square has at least four sides), with
    and without constraints that never bind."""
    polygon = gen.delzant_polygon(random.Random(seed), k, k // 2 if with_redundant else 0)
    p = single_domain_polytope(polygon_functionals(polygon))
    assert regularized_volume(p) == volume_oracle.symbolic_volume(p)


@settings(max_examples=100, deadline=None)
@given(fan_name=st.sampled_from(RAY_FANS), fns=systems_around_the_origin(bounded=True))
def test_volume_on_fans_with_rays_matches_the_symbolic_oracle(fan_name, fns) -> None:
    p = single_domain_polytope(fns, load_fan(fan_name))
    assume(not isinstance(p, GeometryError) and p.compact and not p.singular_faces)
    assert regularized_volume(p) == volume_oracle.symbolic_volume(p)


def test_the_build_clips_no_line_and_the_volume_only_by_the_cutoffs(
    monkeypatch, tmp_path
) -> None:
    """The build reads each face and edge trace from its domain's vertex
    cycle, or in dimension 1 from its tightest-constraint table: it
    calls ``_clip`` never, also for the strips of the ``polygon``
    benchmark beside their rays, and ``_line_of`` once per face
    segment.  The volume reads the build's face segments and clips each
    only by the cutoffs, of which the empty fan has none."""
    k = 16
    lines, clipped = [], []
    line_of, clip = polytopes._line_of, polytopes._clip

    def counting_line_of(f):
        lines.append(f)
        return line_of(f)

    def recording_clip(base, direction, named_fns, *bounds):
        named_fns = list(named_fns)
        clipped.append(named_fns)
        return clip(base, direction, named_fns, *bounds)

    monkeypatch.setattr(polytopes, "_line_of", counting_line_of)
    monkeypatch.setattr(polytopes, "_clip", recording_clip)
    for name, text in gen.LIBRARY.items():
        (tmp_path / name).write_text(text)
    for text in gen.strip_texts(3):
        pf = parse_polytope_text(text, "strip.poly", base=tmp_path)
        strip = build_polytope(build_welded_space(pf.spec.welding), pf.spec)
        assert len(strip.traces) == 2
    assert clipped == []
    lines.clear()
    polygon = gen.delzant_polygon(random.Random(k), k, k // 2)
    p = single_domain_polytope(polygon_functionals(polygon))
    assert clipped == []
    assert len(lines) == len(p.segments) == k
    lines.clear()
    assert regularized_volume(p) == oracles.polygon_area(polygon)
    assert lines == []
    assert clipped == [[]] * k
    clipped.clear()
    pf = load_polytope("line1d.poly")
    assert len(build_polytope(build_welded_space(pf.spec.welding), pf.spec).faces) == 2
    assert clipped == []


# ---------------------------------------- the kernel of the symbolic cutoff


COEFFICIENTS = st.one_of(
    st.sampled_from([0, F(0)]), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
)
# a polynomial of degree 0 to 2 in T as its coefficients, or a scalar
TERMS = st.one_of(st.lists(COEFFICIENTS, min_size=1, max_size=3), COEFFICIENTS)


def coefficients(x) -> tuple:
    return x.coefs if isinstance(x, (polytopes._TPoly, volume_oracle.TPoly)) else (x,)


@settings(max_examples=300, deadline=None)
@given(x=TERMS, y=TERMS)
def test_the_cutoff_kernel_computes_as_the_old_one(x, y) -> None:
    """Sums, differences, products, quotients by a scalar, negation and
    comparison give the coefficients and the order that the zero-filling
    kernel the volume oracle measures with gives."""
    assume(isinstance(x, list) or isinstance(y, list))
    kernels = [
        [k(*v) if isinstance(v, list) else v for v in (x, y)]
        for k in (polytopes._TPoly, volume_oracle.TPoly)
    ]
    (a, b), (c, d) = kernels
    for op in (
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: -u,
        lambda u, v: -v,
    ):
        assert coefficients(op(a, b)) == coefficients(op(c, d))
    if not isinstance(y, list) and y:
        assert coefficients(a / y) == coefficients(c / y)
    for compare in (
        lambda u, v: u == v,
        lambda u, v: u != v,
        lambda u, v: u < v,
        lambda u, v: u <= v,
        lambda u, v: u > v,
        lambda u, v: u >= v,
    ):
        assert compare(a, b) == compare(c, d)


# ------------------------------------------- the polytope oracles at large


# A strip between two opposite covectors: unbounded both ways.
STRIP = [fn(-1, -1, c=1), fn(1, 1, c=2)]


@settings(max_examples=100, deadline=None)
@given(fns=systems_around_the_origin())
@example(fns=STRIP)
def test_empty_fan_compactness_agrees_with_the_coverage_oracle(fns) -> None:
    p = single_domain_polytope(fns)
    assume(not isinstance(p, GeometryError))
    assert is_compact_2d(p) == p.compact == (not is_unbounded(fns))


@settings(max_examples=200, deadline=None)
@given(fan_name=st.sampled_from(RAY_FANS), fns=systems_around_the_origin())
# the complete square fan covers a half-plane's every recession direction
@example(fan_name="square.fan", fns=[fn(-1, 0, c=5)])
@example(fan_name="hexagon.fan", fns=[fn(-1, 0, c=4), fn(-1, 1, c=-1)])
def test_compactness_over_fans_agrees_with_the_coverage_oracle(fan_name, fns) -> None:
    p = single_domain_polytope(fns, load_fan(fan_name))
    assume(not isinstance(p, GeometryError))
    assert is_compact_2d(p) == p.compact


@settings(max_examples=150, deadline=None)
@given(fan_name=st.sampled_from(RAY_FANS + ["emptyfan.fan"]), fns=systems_around_the_origin())
def test_every_single_domain_build_passes_the_face_lemmas(fan_name, fns) -> None:
    p = single_domain_polytope(fns, load_fan(fan_name))
    assume(not isinstance(p, GeometryError))
    report = check_face_lemmas(p)
    assert report.ok, report.violations


# ------------------------------------ the vertex cycle against the k^2 clip


def assert_built_alike(fns, fan=None) -> None:
    """The build reading vertex cycles and the build reading the k^2
    clip and the circle sweep give equal polytopes, or errors of one
    class and message."""
    built = single_domain_polytope(fns, fan)
    with mock.patch.object(polytopes, "_feasible", clip_regions):
        clipped = single_domain_polytope(fns, fan)
    if isinstance(clipped, GeometryError):
        assert (type(built), str(built)) == (type(clipped), str(clipped))
        if "empty in every domain" in str(clipped) and fan is not None:
            # the build reads no trace where the region is empty: none is there
            named = {f"c{i}": f for i, f in enumerate(fns)}
            assert all(_side_trace(r, named) is None for r in fan.vectors)
    else:
        assert built == clipped


# The bounding triangle of ``systems``, as functionals.
TRIANGLE = [fn(*a, c=c) for a, c in BOUNDS[2]]


@settings(max_examples=200, deadline=None)
@given(fns=systems(2))
# three lines through one vertex
@example(fns=[fn(1, 0), fn(0, 1), fn(1, 1)] + TRIANGLE)
# a line the region only touches, at the vertex of two others
@example(fns=[fn(1, 1), fn(1, 0), fn(0, 1), fn(-1, 0, c=1), fn(0, -1, c=1)])
# a line on a same-sign constraint's line, outside the region
@example(fns=[fn(1, 0), fn(1, 0), fn(1, 0, c=-1)] + TRIANGLE)
@example(fns=STRIP)
def test_cycle_build_matches_the_clip_oracle(fns) -> None:
    assert_built_alike(fns)


@settings(max_examples=200, deadline=None)
@given(
    fan_name=st.sampled_from(RAY_FANS + ["emptyfan.fan"]),
    fns=st.one_of(systems_around_the_origin(), systems(2)),
)
# one half-plane over the fan of genus2.weld, as gen1.poly cuts it
@example(fan_name="hexagon.fan", fns=[fn(0, -1)])
@example(fan_name="square.fan", fns=STRIP)
# a half-strip receding along the quadrant's diagonal, away from its corner
@example(fan_name="quadrant.fan", fns=[fn(1, -1, c=1), fn(-1, 1, c=1), fn(1, 1, c=1)])
def test_cycle_build_matches_the_clip_oracle_over_fans(fan_name, fns) -> None:
    assert_built_alike(fns, load_fan(fan_name))


# ------------------------------------------- the cone test of the fan support


CONES = [
    (name, cone) for name in RAY_FANS for cone in sorted(load_fan(name).cones, key=sorted) if cone
]


@settings(max_examples=300, deadline=None)
@given(
    fan_cone=st.sampled_from(CONES),
    x=st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any),
)
def test_the_arc_of_a_cone_holds_what_cone_contains_does(fan_cone, x) -> None:
    fan_name, cone = fan_cone
    fan = load_fan(fan_name)
    gens = [fan.vectors[i] for i in sorted(cone)]
    x = vector(*x)
    assert fans._holds(fan.arcs[cone], x) == cone_contains(gens, x)


DIRECTIONS = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)


@st.composite
def arcs_of_directions(draw) -> tuple:
    """A closed arc of integer directions, counterclockwise from its
    start to its end: a single direction, a half turn or less."""
    start = draw(DIRECTIONS)
    kind = draw(st.sampled_from(["single", "half turn", "less"]))
    if kind == "single":
        return start, start
    if kind == "half turn":
        return start, (-start[0], -start[1])
    return start, draw(DIRECTIONS.filter(lambda d: cross2(start, d) > 0))


@settings(max_examples=500, deadline=None)
@given(fan_name=st.sampled_from(RAY_FANS + ["emptyfan.fan"]), arc=arcs_of_directions())
@example(fan_name="skew2.fan", arc=((1, 0), (0, 1)))  # across the gap of a 3/4-turn support
@example(fan_name="wedge.fan", arc=((1, 0), (1, 1)))  # from a lone ray into a 2-cone
@example(fan_name="halfplane3.fan", arc=((1, 0), (-1, 0)))
def test_the_merged_support_covers_what_the_sampling_does(fan_name, arc) -> None:
    fan = load_fan(fan_name)
    assert polytopes._covered(fan, *arc) == covered_by_samples(fan, *arc)


# ------------------------------------- what the planar build leaves unchecked

# The planar fixture weldings and the square-fan grids at m = 1, 2.
PLANAR_WELDINGS = {
    **{
        name: load_welding(name).spec
        for name in (
            "compdelt.weld",
            "corgl.weld",
            "genus2.weld",
            "mobius.weld",
            "plane.weld",
            "quadrants.weld",
            "skewlines.weld",
            "sphere.weld",
            "torus.weld",
            "upperhalf.weld",
        )
    },
    **{
        f"{variant}-{m}": parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
        for variant in ("torus", "comb", "cylinder", "disc")
        for m in (1, 2)
    },
}
PLANAR_SPACES = {name: build_welded_space(spec) for name, spec in PLANAR_WELDINGS.items()}

CONTINUES = re.compile(r"constraints (\d+)\.(\w+) and (\d+)\.(\w+) continue across edge")

# Every half-plane the systems draw from, made once.
HALF_PLANES = [fn(*a, c=F(c, 2)) for a in COVECTORS[2] for c in range(-6, 13)]


@st.composite
def welded_systems(draw):
    """A planar welding and 0-4 constraints per domain (none in 3 of 7,
    so that whole domains and compact polytopes come up often), each on
    a primitive covector in [-2, 2]^2 with a constant in [-3, 6] in
    halves.  The constraints come from one drawn seed: drawn one by one,
    a 16-domain grid's take longer to draw than to build."""
    name = draw(st.sampled_from(sorted(PLANAR_WELDINGS)))
    rng = draw(st.randoms(use_true_random=True))
    constraints = [
        ((d, f"f{k}"), rng.choice(HALF_PLANES))
        for d in PLANAR_WELDINGS[name].domain_ids
        for k in range(max(0, rng.randint(-2, 4)))
    ]
    return name, constraints


def build_declaring_faces(name: str, constraints):
    """Build the polytope, declaring as one face every two constraints
    the build reports as continuing into each other; return the
    polytope or the error the build raised."""
    faces: list[set] = []
    while True:
        groups = [(f"g{k}", sorted(face)) for k, face in enumerate(faces)]
        spec = make_polytope_spec(PLANAR_WELDINGS[name], constraints, groups)
        try:
            return build_polytope(PLANAR_SPACES[name], spec)
        except GeometryError as e:
            continues = CONTINUES.match(str(e))
            if continues is None:
                return e
            pair = {(int(continues[1]), continues[2]), (int(continues[3]), continues[4])}
            joined = [f for f in faces if f & pair]
            faces = [f for f in faces if not f & pair] + [pair.union(*joined)]


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(system=welded_systems())
def test_the_planar_build_keeps_the_invariants_it_does_not_check(system) -> None:
    """Each trace end has its landing, every corner the region recedes
    into is a corner some trace runs into, and a compact polytope has
    no open end, neither on its boundary nor after the volume's
    cutoffs."""
    p = build_declaring_faces(*system)
    if isinstance(p, GeometryError):
        return
    for t in p.traces:
        for bound, vid in ((t.lower, t.lower_vertex), (t.upper, t.upper_vertex)):
            assert (bound is None) == (vid is None)
            if vid is not None:
                v = p.vertex(vid)
                assert (v.kind, v.edge_label, v.position) == ("landing", t.edge_label, bound)
                assert v.faces
    corners = {v.cluster_id for v in p.vertices if v.kind == "corner"}
    for c in p.space.clusters:
        for d, labels in c.quadrants:
            if d not in p.feasible:
                continue
            fan = p.space.fan(d)
            v, w = (fan.vectors[fan.index_of_label(x)] for x in sorted(labels))
            covectors = [g.linear for g in p.spec.domain_constraints(d).values()]
            if _quadrant_reaches_corner(*((w, v) if cross2(v, w) < 0 else (v, w)), covectors):
                assert c.cluster_id in corners
    if not p.compact:
        return
    assert all(s.lower_vertex and s.upper_vertex for s in p.segments)
    for t in p.traces:
        e = p.space.edge(t.edge_label)
        ends = ((t.lower, e.tail), (t.upper, e.head))
        assert all(cid in corners for bound, cid in ends if bound is None)
    try:
        polytope_topology(p)
    except GeometryError as e:
        assert "is not a 1-manifold" in str(e)
    clipped, real_clip = [], polytopes._clip

    def clip(*args):
        clipped.append(real_clip(*args))
        return clipped[-1]

    with mock.patch.object(polytopes, "_clip", clip):
        try:
            regularized_volume(p)
        except GeometryError:
            pass
    assert all(lo is not None and hi is not None for lo, hi in filter(None, clipped))


# ------------------------------------------------- field-for-field guard

# The first 8 hex digits of the SHA-256 of ``repr`` of each field of the
# built ``LogPolytope`` but its spec and space, in ``DIGEST_FIELDS``
# order, for every fixture ``.poly`` (or its build error) and the whole
# space of every grid welding at m = 1, 2, 3.  Vertex numbering, landing
# positions and segment bounds all show here, and the CLI output shows
# few of them.
DIGEST_FIELDS = [
    f.name for f in dataclasses.fields(LogPolytope) if f.name not in ("spec", "space")
]
FIELD_DIGESTS = {
    "compdelt.poly": (
        "d4735e3a 28cb03b0 62d1cf74 a34877da ebd1ee57 a9424e6c "
        "2e38e77b 2e38e77b 6b86b273 3cbc87c7 3cbc87c7 3cbc87c7"
    ),
    "compdelt_nof2.poly": (
        "d4735e3a 28cb03b0 7cea3d81 d2b51c2c 51f35c36 535a8c23 "
        "2e38e77b 2e38e77b 6b86b273 60a33e6c 3cbc87c7 3cbc87c7"
    ),
    "delzfail.poly": (
        "d4735e3a 28cb03b0 2e38e77b d08eb25b 41e9e690 75e50fd1 "
        "2e38e77b 2e38e77b 5feceb66 3cbc87c7 3cbc87c7 3cbc87c7"
    ),
    "dim3.poly": (
        "UnsupportedDimensionError: polytopes are supported in dimensions 1 and 2, not 3"
    ),
    "figmodel.poly": (
        "d4735e3a cf4dabed f1c2e99b aac07011 a99d566f e0424914 "
        "b019935b 2e38e77b 6b86b273 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "gen1.poly": (
        "d4735e3a d22b0938 72bc9a43 776b59c1 6ad90fae cb7520b0 "
        "3d68ba34 da650639 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "line1d.poly": (
        "6b86b273 cf4dabed b831de7b 2e38e77b 28db37c3 c4052226 "
        "65d27658 2e38e77b 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "rect.poly": (
        "d4735e3a d22b0938 27e7bea0 86b8a0e4 93d61616 dc027e14 "
        "6d0b9a5a f03615e1 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "symm1d.poly": (
        "6b86b273 cf4dabed b831de7b 2e38e77b 28db37c3 62d4c632 "
        "65d27658 2e38e77b 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "unitsquare.poly": (
        "d4735e3a 28cb03b0 2e38e77b 60bcc1c9 5cf1205d 642b3b41 "
        "2e38e77b 2e38e77b 5feceb66 3cbc87c7 3cbc87c7 3cbc87c7"
    ),
    "torus-1": (
        "d4735e3a d22b0938 51be4f9c 2e38e77b 2e38e77b 9adcffbd "
        "748d53c9 3e093359 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "torus-2": (
        "d4735e3a c8b8f6aa 25dcbf7b 2e38e77b 2e38e77b 6637f679 "
        "68bf12ea 893111a5 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "torus-3": (
        "d4735e3a fa580b9b 4764a404 2e38e77b 2e38e77b 1e65b85d "
        "9707a366 5bb07ccf 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "comb-1": (
        "d4735e3a d22b0938 47be3ff4 2e38e77b 2e38e77b 9adcffbd "
        "8ebf8fbd 3e093359 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "comb-2": (
        "d4735e3a c8b8f6aa db321f92 2e38e77b 2e38e77b 6637f679 "
        "fe638aa9 893111a5 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "comb-3": (
        "d4735e3a fa580b9b e2f3a797 2e38e77b 2e38e77b 1e65b85d "
        "5a0f83c2 5bb07ccf 5feceb66 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "cylinder-1": (
        "d4735e3a d22b0938 875a68ea 2e38e77b 46789b17 b81f9d24 "
        "d57b3bf9 6505fe02 4b227777 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "cylinder-2": (
        "d4735e3a c8b8f6aa a3269b0e 2e38e77b 4650603b 6e3d68bf "
        "8e14e1f1 23c25834 2c624232 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "cylinder-3": (
        "d4735e3a fa580b9b e9a8df1f 2e38e77b 3fe0f320 d9f9e672 "
        "35cd634c 0c06b805 6b51d431 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "disc-1": (
        "d4735e3a d22b0938 135d69c3 2e38e77b ca0965ca 05e52b72 "
        "c506ef3f f03615e1 2c624232 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "disc-2": (
        "d4735e3a c8b8f6aa 028903c8 2e38e77b 2145ae7f 7be443f3 "
        "c1ba5ef7 94fc4ad2 b17ef6d1 3cbc87c7 3cbc87c7 60a33e6c"
    ),
    "disc-3": (
        "d4735e3a fa580b9b b292579a 2e38e77b e6daeaaf 4c18ca35 "
        "f2f53ef8 c51e4057 c2356069 3cbc87c7 3cbc87c7 60a33e6c"
    ),
}


def _built(case: str):
    if case.endswith(".poly"):
        return load_built_polytope(case)
    variant, m = case.split("-")
    spec = parse_welding_text(grid_text(variant, int(m)), base=FIXTURES).spec
    return build_polytope(build_welded_space(spec), make_polytope_spec(spec, []))


def test_the_field_guard_covers_every_fixture_polytope() -> None:
    poly = sorted(p.name for p in FIXTURES.glob("*.poly"))
    assert sorted(c for c in FIELD_DIGESTS if c.endswith(".poly")) == poly


@pytest.mark.parametrize("case", sorted(FIELD_DIGESTS))
def test_every_field_of_the_build_is_pinned(case: str) -> None:
    expected = FIELD_DIGESTS[case]
    try:
        p = _built(case)
    except GeometryError as e:
        assert f"{type(e).__name__}: {e}" == expected
        return
    got = {
        f: hashlib.sha256(repr(getattr(p, f)).encode()).hexdigest()[:8] for f in DIGEST_FIELDS
    }
    assert got == dict(zip(DIGEST_FIELDS, expected.split()))
