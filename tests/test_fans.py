"""Simplicial rational fans: validation, stars, completeness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import FIXTURES
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logaffine.errors import UnsupportedDimensionError
from logaffine.fans import Fan, is_complete, make_fan, star, validate_fan
from logaffine.fileio import parse_fan_file
from logaffine.rational import vector
from polytope_oracle import cyclic_order, is_complete_2d
from rational_oracle import cone_violations, primitive


def wedge_fan() -> Fan:
    """Rays (1,0), (1,1), (0,1) with the single 2-cone {(1,1),(0,1)}."""
    return make_fan(
        [(1, 0), (1, 1), (0, 1)],
        [[], [0], [1], [2], [1, 2]],
        labels=["a", "b", "c"],
    )


def triangle_fan() -> Fan:
    return make_fan(
        [(1, 0), (0, 1), (-1, -1)],
        [[], [0], [1], [2], [0, 1], [1, 2], [0, 2]],
        labels=["a", "b", "c"],
    )


def hexagon_fan() -> Fan:
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    cones = [[], [0], [1], [2], [3], [4], [5]]
    cones += [[i, (i + 1) % 6] for i in range(6)]
    return make_fan(rays, cones, labels=list("abcdef"))


# -------------------------------------------------------------- validate


def test_validate_accepts_good_fans() -> None:
    for fan in (wedge_fan(), triangle_fan(), hexagon_fan()):
        report = validate_fan(fan)
        assert report.ok, report.violations


def test_validate_accepts_empty_fan() -> None:
    report = validate_fan(make_fan([], [[]], labels=[], dim=2))
    assert report.ok


def test_validate_rejects_zero_vector() -> None:
    fan = make_fan([(0, 0)], [[], [0]], labels=["a"])
    report = validate_fan(fan)
    assert not report.ok
    assert any("zero" in v for v in report.violations)


def test_validate_rejects_duplicate_vectors() -> None:
    fan = make_fan([(1, 0), (1, 0)], [[], [0], [1]], labels=["a", "b"])
    assert not validate_fan(fan).ok


def test_validate_rejects_dependent_cone() -> None:
    fan = make_fan([(1, 0), (2, 0)], [[], [0], [1], [0, 1]], labels=["a", "b"])
    report = validate_fan(fan)
    assert not report.ok


def test_validate_rejects_missing_subset() -> None:
    fan = make_fan([(1, 0), (0, 1)], [[], [0], [0, 1]], labels=["a", "b"])
    report = validate_fan(fan)
    assert not report.ok
    assert any("closed under" in v for v in report.violations)


def test_validate_rejects_hull_violation() -> None:
    # (1,1) lies inside the positive hull of {(1,0),(0,1)}.
    fan = make_fan(
        [(1, 0), (0, 1), (1, 1)],
        [[], [0], [1], [2], [0, 1]],
        labels=["a", "b", "c"],
    )
    report = validate_fan(fan)
    assert not report.ok
    assert any("hull" in v for v in report.violations)


def test_validate_rejects_vector_on_cone_boundary() -> None:
    # A duplicate direction (2,0) sits on the closed hull of the ray (1,0).
    fan = make_fan([(1, 0), (2, 0)], [[], [0], [1]], labels=["a", "b"])
    assert not validate_fan(fan).ok


@st.composite
def fans_with_valid_vectors(draw) -> Fan:
    """Distinct nonzero vectors in dimension 1 to 3 with entries of
    numerator in [-2, 2] and denominator at most 6, so that their
    integer rows scale by different denominators, and random cones of
    up to three indices, the last index out of range, half the time
    with their faces added: every cone violation shows up."""
    dim = draw(st.integers(1, 3))
    number = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 6))
    entry = st.tuples(*[number] * dim).filter(any)
    vectors = draw(st.lists(entry, max_size=5, unique=True))
    index = st.integers(0, len(vectors))
    cones = draw(st.lists(st.frozensets(index, max_size=3), max_size=6))
    if draw(st.booleans()):
        cones += [cone - {i} for cone in cones for i in cone]
    return make_fan(vectors, cones, dim=dim)


# (1/2, 0) and (1, 0) are distinct rays with one integer row, (1, 0):
# each lies in the hull of the other's 1-cone, and the 2-cone is dependent.
SHARED_ROW = make_fan([(Fraction(1, 2), 0), (1, 0)], [[], [0], [1], [0, 1]])


@settings(max_examples=200, deadline=None)
@given(fan=fans_with_valid_vectors())
@example(fan=SHARED_ROW)
def test_one_elimination_per_cone_matches_one_solve_per_ray(fan: Fan) -> None:
    assert validate_fan(fan).violations == tuple(cone_violations(fan))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.fan")), ids=lambda p: p.name)
def test_fixture_fans_validate_as_by_one_solve_per_ray(path) -> None:
    fan = parse_fan_file(path)
    report = validate_fan(fan)
    assert report.violations == tuple(cone_violations(fan))
    assert report.ok == (path.name != "badfan.fan")


# ------------------------------------------------------------------ star


def test_star_resolves_cones_to_vector_sets() -> None:
    fan = wedge_fan()
    got = star(fan, vector(0, 1))
    expected = {
        frozenset({vector(0, 1)}),
        frozenset({vector(0, 1), vector(1, 1)}),
    }
    assert got == expected
    assert star(fan, vector(1, 0)) == {frozenset({vector(1, 0)})}


def test_star_accepts_labels_and_rejects_unknown() -> None:
    fan = wedge_fan()
    assert star(fan, "c") == star(fan, vector(0, 1))
    with pytest.raises(KeyError):
        star(fan, vector(5, 5))


# ---------------------------------------------------------- completeness


def test_is_complete_2d_examples() -> None:
    assert is_complete(triangle_fan())
    assert is_complete(hexagon_fan())
    assert not is_complete(wedge_fan())
    assert not is_complete(make_fan([], [[]], labels=[], dim=2))
    # Four rays but one missing quadrant cone.
    fan = make_fan(
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3]],
        labels=list("abcd"),
    )
    assert not is_complete(fan)


def test_is_complete_1d_needs_rays_of_both_signs() -> None:
    line = make_fan([(1,), (-2,)], [[], [0], [1]], labels=["a", "b"])
    half = make_fan([(1,), (2,)], [[], [0], [1]], labels=["a", "b"])
    assert is_complete(line)
    assert not is_complete(half)
    assert not is_complete(make_fan([], [[]], labels=[], dim=1))


def test_is_complete_rejects_dim_3() -> None:
    fan = make_fan([(1, 0, 0)], [[], [0]], labels=["a"])
    with pytest.raises(UnsupportedDimensionError, match="dim 3"):
        is_complete(fan)


def test_fixture_fans_are_complete_as_by_the_cyclic_order() -> None:
    fans = [parse_fan_file(path) for path in sorted(FIXTURES.glob("*.fan"))]
    plane = [fan for fan in fans if fan.dim == 2 and validate_fan(fan).ok]
    assert len(plane) == 13
    assert sum(map(is_complete_2d, plane)) == 3
    for fan in plane:
        assert is_complete(fan) == is_complete_2d(fan)


@st.composite
def valid_plane_fans(draw) -> Fan:
    """Up to six rays in distinct directions, their 1-cones and, for
    each pair of rays next to each other counterclockwise, maybe the
    2-cone between them (all of them half the time); a pair more than a
    half turn apart spans the other way round, over the other rays, so
    only valid fans are kept."""
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    vectors = draw(st.lists(entry, max_size=6, unique_by=primitive))
    order = cyclic_order(make_fan(vectors, [], dim=2))
    every = draw(st.booleans())
    cones = [[]] + [[i] for i in order]
    for k, i in enumerate(order):
        if every or draw(st.booleans()):
            cones.append([i, order[(k + 1) % len(order)]])
    fan = make_fan(vectors, cones, dim=2)
    assume(validate_fan(fan).ok)
    return fan


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fan=valid_plane_fans())
def test_completeness_from_turns_matches_the_cyclic_order(fan: Fan) -> None:
    assert is_complete(fan) == is_complete_2d(fan)


def test_completeness_invariant_under_relabelling() -> None:
    rng = random.Random(7)
    base = hexagon_fan()
    order = list(range(6))
    for _ in range(10):
        rng.shuffle(order)
        vectors = [base.vectors[i] for i in order]
        inverse = {old: new for new, old in enumerate(order)}
        cones = [[inverse[i] for i in cone] for cone in map(sorted, base.cones)]
        shuffled = make_fan(vectors, cones, labels=[base.labels[i] for i in order])
        assert validate_fan(shuffled).ok
        assert is_complete(shuffled)
