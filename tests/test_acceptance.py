"""Release acceptance suite.

One test per acceptance criterion; each prints a single
``PASS criterion N`` / ``FAIL criterion N`` line.  Integer results are
checked with exact equality, volumes at the tolerances stated inline,
and every derived number is recomputed here by an independent route
(brute-force lattice search, rational-rank homology oracle) rather
than copied from the library under test.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from logaffine.classification import cut_report, make_bundle
from logaffine.cli import main
from logaffine.polytopes import (
    build_polytope,
    delzant_check,
    make_polytope_spec,
    polytope_topology,
    regularized_volume,
)
from logaffine.rational import AffineFunctional, vector
from logaffine.topology import (
    betti_numbers,
    classify_closed_surface,
    euler_characteristic,
    log_cohomology_dims,
)
from logaffine.welding import (
    build_welded_space,
    coerced_pairs,
    is_locally_obstructed,
    is_matched_pair,
    make_welding_spec,
)

from polytope_oracle import is_compact_2d
from rational_oracle import is_saturated_lattice_basis
from conftest import (
    fixture_path,
    load_built_polytope,
    load_space,
    load_welding,
    oracle_betti,
)

F = Fraction

SURFACE_FIXTURES = ("sphere.weld", "torus.weld", "genus2.weld", "skewlines.weld")


def criterion(number: int, title: str):
    """Print one PASS/FAIL line for the criterion this test certifies."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return wrapper

    return decorate


def fn(*linear, c=0) -> AffineFunctional:
    return AffineFunctional(vector(*linear), Fraction(c))


# ------------------------------------------------------------ criterion 1


@criterion(1, "log cohomology moduli dimensions (h2_log = 10 and 13)")
def test_criterion_1_log_cohomology_dimensions(tmp_path) -> None:
    for name, expected in (("sphere.weld", 10), ("genus2.weld", 13)):
        out = tmp_path / f"{name}.report"
        assert main(["cohomology", str(fixture_path(name)), "--out", str(out)]) == 0
        assert f"h2_log = {expected}" in out.read_text().splitlines()
        assert log_cohomology_dims(load_space(name))[2] == expected


# ------------------------------------------------------------ criterion 2


@criterion(2, "welded-space topology of the four surface fixtures")
def test_criterion_2_welded_surface_topology() -> None:
    sphere = load_space("sphere.weld")
    assert euler_characteristic(sphere) == 2
    assert classify_closed_surface(sphere).genus == 0
    assert sum(1 for c in sphere.divisor_components if c.closed) == 3
    assert len(sphere.crossings) == 6

    torus = load_space("torus.weld")
    assert euler_characteristic(torus) == 0
    assert classify_closed_surface(torus).genus == 1
    assert sum(1 for c in torus.divisor_components if c.closed) == 4
    assert len(torus.crossings) == 4

    genus2 = load_space("genus2.weld")
    assert euler_characteristic(genus2) == -2
    assert genus2.orientable
    assert classify_closed_surface(genus2).genus == 2
    assert len(genus2.divisor_components) == 6
    assert len(genus2.crossings) == 6

    skew = load_space("skewlines.weld")
    assert euler_characteristic(skew) == 1
    assert sum(1 for c in skew.divisor_components if not c.closed) == 3
    assert len(skew.crossings) == 3


# ------------------------------------------------------------ criterion 3


def space_signature(space):
    """Isomorphism invariant of a welded space: all labels dropped,
    everything keyed by the underlying (domain, ray) face references."""

    def quad_key(quad):
        domain_id, labels = quad
        return (domain_id, tuple(sorted(labels)))

    edges = tuple(
        sorted((tuple(sorted(e.faces)), e.kind, e.residue) for e in space.edges)
    )
    clusters = tuple(
        sorted(
            (
                tuple(sorted(c.position)),
                tuple(sorted(quad_key(q) for q in c.quadrants)),
                c.closed,
            )
            for c in space.clusters
        )
    )
    components = tuple(
        sorted(
            (
                tuple(sorted(tuple(sorted(space.edge(l).faces)) for l in comp.edge_labels)),
                comp.residue,
                comp.closed,
            )
            for comp in space.divisor_components
        )
    )
    return (
        space.dim,
        space.orientable,
        space.compact,
        space.has_boundary,
        betti_numbers(space),
        edges,
        clusters,
        components,
    )


@criterion(3, "welding calculus: matching, coercion, obstruction, order")
def test_criterion_3_welding_calculus() -> None:
    # every listed pair of the four surface fixtures is a matched pair
    for name in SURFACE_FIXTURES:
        spec = load_welding(name).spec
        for pair in spec.pairs:
            assert is_matched_pair(spec, pair).ok, (name, pair.describe())

    # the three-pair corner configuration forces exactly one extra pair
    base = load_welding("corgl.weld").spec
    domains = {i: base.fan(i) for i in base.domain_ids}
    reduced = make_welding_spec(domains, base.pairs[:2])
    forced = coerced_pairs(reduced, base.pairs[2])
    assert [p.key() for p in forced] == [frozenset({(3, "b"), (4, "b")})]

    # a weld closing a two-quadrant corner cycle is rejected
    bad1 = load_welding("cond1.weld").spec
    spec1 = make_welding_spec(
        {i: bad1.fan(i) for i in bad1.domain_ids}, bad1.pairs[:1]
    )
    result = is_locally_obstructed(spec1, bad1.pairs[1])
    assert result.obstructed and "2-quadrant cycle" in result.reason
    assert [w.key() for w in result.witnesses] == [frozenset({(1, "b"), (2, "b")})]

    # a weld gathering five quadrants at a corner is rejected, and the
    # witnesses are exactly the three earlier welds that crowd it
    bad2 = load_welding("cond2.weld").spec
    spec2 = make_welding_spec(
        {i: bad2.fan(i) for i in bad2.domain_ids}, bad2.pairs[:3]
    )
    result = is_locally_obstructed(spec2, bad2.pairs[3])
    assert result.obstructed and "5 quadrants" in result.reason
    assert {w.key() for w in result.witnesses} == {
        frozenset({(1, "b"), (3, "b")}),
        frozenset({(3, "a"), (4, "a")}),
        frozenset({(2, "b"), (5, "b")}),
    }

    # welding the pair list in any order gives an isomorphic space
    rng = random.Random(94301)
    names = SURFACE_FIXTURES + ("quadrants.weld", "compdelt.weld")
    permutations_checked = 0
    for name in names:
        spec = load_welding(name).spec
        reference = space_signature(build_welded_space(spec))
        fan_of = {i: spec.fan(i) for i in spec.domain_ids}
        for _ in range(20):
            shuffled = list(spec.pairs)
            rng.shuffle(shuffled)
            space = build_welded_space(make_welding_spec(fan_of, shuffled))
            assert space_signature(space) == reference, name
            permutations_checked += 1
    assert permutations_checked >= 20


# ------------------------------------------------------------ criterion 4


@criterion(4, "polytope face census, compactness, and the genus-1 cut")
def test_criterion_4_polytope_criteria() -> None:
    comp = load_built_polytope("compdelt.poly")
    assert is_compact_2d(comp)
    assert len(comp.singular_faces) == 2
    assert len(comp.log_faces) == 2

    without_f2 = load_built_polytope("compdelt_nof2.poly")
    assert not is_compact_2d(without_f2)

    gen1 = load_built_polytope("gen1.poly")
    topo = polytope_topology(gen1)
    assert topo.genus == 1
    assert len(gen1.log_faces) == 1
    assert len(gen1.singular_faces) == 0
    assert delzant_check(gen1).ok
    bundle = make_bundle(2, [(0,), (0,)])
    report = cut_report(gen1, bundle)
    assert report.euler == 0
    assert report.smooth_closed is True


# ------------------------------------------------------------ criterion 5


def generates_full_plane_lattice(row_a, row_b) -> bool:
    """Brute force: do integer combinations of the two rows reach both
    unit vectors?  Coefficient range [-4, 4] is exhaustive for entries
    in [-3, 3]: if the rows span the lattice their matrix is invertible
    over the integers, so the coefficients are (signed) entries of the
    inverse, which divides the adjugate entries, all of size <= 3."""

    def reachable(target) -> bool:
        return any(
            a * row_a[0] + b * row_b[0] == target[0]
            and a * row_a[1] + b * row_b[1] == target[1]
            for a in range(-4, 5)
            for b in range(-4, 5)
        )

    return reachable((1, 0)) and reachable((0, 1))


@criterion(5, "lattice (Delzant) condition against brute-force search")
def test_criterion_5_lattice_condition() -> None:
    assert delzant_check(load_built_polytope("unitsquare.poly")).ok

    failing = delzant_check(load_built_polytope("delzfail.poly"))
    assert not failing.ok
    (where, rows), = failing.witnesses
    assert set(rows) == {(1, 0), (1, 2)}, where

    for entries in product(range(-3, 4), repeat=4):
        rows = (entries[:2], entries[2:])
        expected = generates_full_plane_lattice(*rows)
        assert is_saturated_lattice_basis(rows) == expected, rows


# ------------------------------------------------------------ criterion 6


def rectangle_volume(west, east, south, north) -> Fraction:
    """Volume of the rectangle with the given chart bounds on the
    four-quadrant welded plane (bounds are the constraint constants)."""
    welding = load_welding("quadrants.weld").spec
    space = load_space("quadrants.weld")
    spec = make_polytope_spec(
        welding,
        [
            ((1, "e"), fn(-1, 0, c=east)),
            ((1, "n"), fn(0, -1, c=north)),
            ((2, "n"), fn(0, -1, c=north)),
            ((2, "w"), fn(-1, 0, c=west)),
            ((3, "s"), fn(0, -1, c=south)),
            ((3, "w"), fn(-1, 0, c=west)),
            ((4, "e"), fn(-1, 0, c=east)),
            ((4, "s"), fn(0, -1, c=south)),
        ],
        [
            ("E", ((1, "e"), (4, "e"))),
            ("N", ((1, "n"), (2, "n"))),
            ("S", ((3, "s"), (4, "s"))),
            ("W", ((2, "w"), (3, "w"))),
        ],
    )
    return regularized_volume(build_polytope(space, spec))


@criterion(6, "regularized volumes: interval, symmetry, rectangles, additivity")
def test_criterion_6_regularized_volume() -> None:
    # interval reaching one unit past the singular point on each scale
    assert abs(float(regularized_volume(load_built_polytope("line1d.poly"))) - 1.0) <= 1e-9
    # symmetric interval: the principal value cancels exactly
    assert abs(float(regularized_volume(load_built_polytope("symm1d.poly")))) <= 1e-12

    # five rational rectangles; expected area is the product of the side
    # lengths measured in the welded charts
    choices = [
        (F(0), F(1), F(0), F(1)),
        (F(-1, 2), F(3, 2), F(0), F(2)),
        (F(1, 3), F(7, 3), F(-1), F(1, 2)),
        (F(-2), F(-1, 2), F(1, 4), F(9, 4)),
        (F(2, 5), F(12, 5), F(-7, 3), F(5, 3)),
    ]
    for west, east, south, north in choices:
        expected = (east - west) * (north - south)
        got = rectangle_volume(west, east, south, north)
        assert abs(float(got) - float(expected)) <= 1e-9, (west, east, south, north)

    # additivity under subdivision: split the standard rectangle at the
    # welded coordinate 1/2 and compare the two pieces with the whole
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
    pieces = regularized_volume(build_polytope(space, right)) + regularized_volume(
        build_polytope(space, left)
    )
    whole = regularized_volume(load_built_polytope("rect.poly"))
    assert abs(float(pieces) - float(whole)) <= 1e-8


SIDE = st.fractions(min_value=-60, max_value=60, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(west=SIDE, east=SIDE, south=SIDE, north=SIDE)
def test_rectangle_volume_is_its_closed_form_at_any_distance(west, east, south, north):
    """Sides far from the strata, or crossing them, leave the principal
    value the signed product of the side lengths."""
    assert rectangle_volume(west, east, south, north) == (east - west) * (north - south)


# ------------------------------------------------------------ criterion 7


@criterion(7, "Betti numbers against the rational-rank incidence oracle")
def test_criterion_7_homology_oracle() -> None:
    buildable = (
        "sphere.weld",
        "torus.weld",
        "genus2.weld",
        "skewlines.weld",
        "quadrants.weld",
        "compdelt.weld",
        "plane.weld",
        "upperhalf.weld",
        "mobius.weld",
        "corgl.weld",
        "line1d.weld",
    )
    for name in buildable:
        space = load_space(name)
        assert oracle_betti(space) == betti_numbers(space), name

    # Euler-characteristic consistency of the genus-1 cut
    gen1 = load_built_polytope("gen1.poly")
    assert cut_report(gen1, make_bundle(2, [(0,), (0,)])).euler == 0
