"""Log affine polytopes: construction, faces, compactness, lattice
condition, topology and regularized volume."""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from logaffine.polytopes import (
    build_polytope,
    check_face_lemmas,
    delzant_check,
    is_compact_2d,
    make_polytope_spec,
    polytope_moduli,
    polytope_topology,
    regularized_volume,
)
from logaffine.fans import _direction_cmp, make_fan
from logaffine.fileio import parse_polytope_text
from logaffine.rational import AffineFunctional, cross2, vector
from logaffine.welding import build_welded_space, make_welding_spec

import volume_oracle
from conftest import (
    FAR_RECTANGLE,
    FIXTURES,
    load_built_polytope,
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
    large-``T`` regions."""
    p = _without_singular_faces(name)
    assert not p.singular_faces
    t0 = volume_oracle.past_every_constant(p)
    assert regularized_volume(p) == volume_oracle.doubling_fit(p, t0)


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


def test_empty_interior_is_rejected() -> None:
    with pytest.raises(GeometryError, match="empty interior"):
        plane_polytope([((1, "lo"), fn(1, 0)), ((1, "hi"), fn(-1, 0))])


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
        fan = pf.spec.welding.domain(1).fan
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
    fan = pf.spec.welding.domain(1).fan
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


def empty_fan_polytope(fns):
    """Build the region of ``fns`` in one domain without strata, or
    return the error the build raised."""
    dim = len(fns[0].linear)
    welding = make_welding_spec({1: make_fan([], [[]], labels=[], dim=dim)}, [])
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
    when Fourier-Motzkin does, and a compact region's volume is its
    brute-force area (length in dimension 1)."""
    fns = data.draw(systems(dim))
    built = empty_fan_polytope(fns)
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


@settings(max_examples=100, deadline=None)
@given(fns=systems(2))
def test_clipped_area_matches_vertex_oracle(fns) -> None:
    """The clipped area alone, on systems the build would reject:
    repeated lines, opposite lines, empty and unbounded regions."""
    square = load_built_polytope("unitsquare.poly")
    constraints = tuple(((1, f"c{i}"), f) for i, f in enumerate(fns))
    doctored = replace(square, spec=replace(square.spec, constraints=constraints))
    if fm_nonempty(region_rows(fns, strict=False)) and is_unbounded(fns):
        with pytest.raises(GeometryError, match="unbounded after the cutoffs"):
            regularized_volume(doctored)
    else:
        assert regularized_volume(doctored) == pairwise_vertex_area(fns)
