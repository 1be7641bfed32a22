"""Cell complexes, Betti numbers, surface types, divisor topology."""

from dataclasses import replace

import pytest
from conftest import fraction_rank, grid_pairs, load_fan, load_space, load_welding, oracle_betti
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logaffine.errors import GeometryError, UnsupportedDimensionError
from logaffine.fans import make_fan
from logaffine.topology import (
    _incidence_rank,
    betti_numbers,
    cell_complex,
    classify_closed_surface,
    divisor_topology,
    euler_characteristic,
    log_cohomology_dims,
)
from logaffine.welding import MatchedPair, build_welded_space, make_welding_spec

# (fixture, cell counts, euler, betti, divisor (comps, closed, crossings), log dims)
EXPECTED = [
    ("sphere.weld", (6, 12, 8), 2, (1, 0, 1), (3, 3, 6), (1, 3, 10, 0)),
    ("torus.weld", (4, 8, 4), 0, (1, 2, 1), (4, 4, 4), (1, 6, 9, 0)),
    ("genus2.weld", (6, 12, 4), -2, (1, 4, 1), (6, 6, 6), (1, 10, 13, 0)),
    ("skewlines.weld", (3, 9, 7), 1, (0, 0, 1), (3, 0, 3), (0, 3, 4, 0)),
    ("quadrants.weld", (1, 4, 4), 1, (0, 0, 1), (2, 0, 1), (0, 2, 2, 0)),
    ("corgl.weld", (1, 4, 4), 1, (0, 0, 1), (2, 0, 1), (0, 2, 2, 0)),
    ("upperhalf.weld", (1, 3, 2), 0, (0, 0, 0), (1, 0, 0), (0, 1, 0, 0)),
    ("mobius.weld", (3, 6, 3), 0, (1, 1, 0), (3, 0, 0), (1, 4, 0, 0)),
    ("compdelt.weld", (1, 2, 1), 0, (0, 0, 0), (0, 0, 0), (0, 0, 0, 0)),
    ("plane.weld", (0, 0, 1), 1, (0, 0, 1), (0, 0, 0), (0, 0, 1, 0)),
]


@pytest.mark.parametrize("name,counts,euler,betti,divisor,logdims", EXPECTED)
def test_frozen_topology(name, counts, euler, betti, divisor, logdims):
    space = load_space(name)
    complex_ = cell_complex(space)
    assert complex_.counts == counts
    assert euler_characteristic(space) == euler
    assert betti_numbers(space) == betti
    report = divisor_topology(space)
    assert (
        report.component_count,
        report.closed_count,
        report.crossing_count,
    ) == divisor
    assert log_cohomology_dims(space) == logdims


@pytest.mark.parametrize("name,counts,euler,betti,divisor,logdims", EXPECTED)
def test_boundary_of_boundary_vanishes(name, counts, euler, betti, divisor, logdims):
    complex_ = cell_complex(load_space(name))
    d1, d2 = complex_.incidences
    n0, n1, n2 = complex_.counts
    # both maps are kept as one sparse line per edge: d1's columns, d2's rows
    assert (d1.by_row, d2.by_row) == (False, True)
    assert len(d1.lines) == len(d2.lines) == n1
    product = [[0] * n2 for _ in range(n0)]
    for column, row in zip(d1.lines, d2.lines):
        for i, a in column:
            for k, b in row:
                product[i][k] += a * b
    assert product == [[0] * n2 for _ in range(n0)]


@pytest.mark.parametrize("name,counts,euler,betti,divisor,logdims", EXPECTED)
def test_euler_equals_alternating_betti_sum(
    name, counts, euler, betti, divisor, logdims
):
    space = load_space(name)
    assert euler_characteristic(space) == betti[0] - betti[1] + betti[2]


SURFACES = [
    ("sphere.weld", True, 0, None, "sphere"),
    ("torus.weld", True, 1, None, "torus"),
    ("genus2.weld", True, 2, None, "genus-2 surface"),
]


@pytest.mark.parametrize("name,orientable,genus,crosscaps,label", SURFACES)
def test_closed_surface_classification(name, orientable, genus, crosscaps, label):
    surface = classify_closed_surface(load_space(name))
    assert surface.orientable is orientable
    assert surface.genus == genus
    assert surface.crosscaps == crosscaps
    assert surface.name == label


def test_classification_rejects_noncompact_and_boundary():
    with pytest.raises(GeometryError):
        classify_closed_surface(load_space("skewlines.weld"))
    with pytest.raises(GeometryError):
        classify_closed_surface(load_space("mobius.weld"))


def test_divisor_betti_pairs():
    report = divisor_topology(load_space("sphere.weld"))
    assert report.betti == ((1, 1), (1, 1), (1, 1))
    report = divisor_topology(load_space("skewlines.weld"))
    assert report.betti == ((1, 0), (1, 0), (1, 0))


def test_one_dimensional_space():
    space = load_space("line1d.weld")
    complex_ = cell_complex(space)
    assert complex_.counts == (1, 2)
    assert euler_characteristic(space) == -1
    assert betti_numbers(space) == (0, 1)
    assert log_cohomology_dims(space) == (0, 2, 0)


def test_dimension_three_is_unsupported():
    space = load_space("dim3.weld")
    with pytest.raises(UnsupportedDimensionError):
        cell_complex(space)
    with pytest.raises(UnsupportedDimensionError):
        log_cohomology_dims(space)


# ------------------------------------------------ ranks against the oracle


@st.composite
def incidence_matrices(draw):
    """``(n, lines, dense)``: lines of at most two entries over ``n`` indices.

    Most lines join two random indices with random signs; a few hold
    one entry of +-1 or +-2.  A join of an index to itself sums to a
    +-2 singleton or to an all-zero line, and lines may repeat.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    index = st.integers(min_value=0, max_value=n - 1)
    sign = st.sampled_from((1, -1))
    entry = st.tuples(index, sign)
    joins = draw(st.lists(st.tuples(entry, entry), max_size=9))
    single = st.tuples(index, st.sampled_from((1, -1, 2, -2)))
    singles = draw(st.lists(st.tuples(single), max_size=2))
    entries = draw(st.permutations(joins + singles))
    dense = []
    for line in entries:
        row = [0] * n
        for i, c in line:
            row[i] += c
        dense.append(row)
    lines = [tuple((i, c) for i, c in enumerate(row) if c) for row in dense]
    return n, lines, dense


@settings(max_examples=100, deadline=None)
@given(incidence_matrices())
@example((2, [((0, 1), (1, 1)), ((0, 1), (1, -1))], [[1, 1], [1, -1]]))
@example((2, [((0, 2),)], [[2, 0]]))
def test_incidence_rank_matches_fraction_rank(matrix):
    n, lines, dense = matrix
    # the lines as the rows of a matrix, and as the columns of one
    columns = [list(column) for column in zip(*dense)] or [[]] * n
    assert _incidence_rank(n, lines) == fraction_rank(dense) == fraction_rank(columns)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_betti_numbers_match_oracle_on_random_weldings(data):
    m = data.draw(st.sampled_from((1, 2)))
    pairs = data.draw(st.permutations(grid_pairs("torus", m)))
    pairs = pairs[: data.draw(st.integers(min_value=0, max_value=len(pairs)))]
    square = load_fan("square.fan")
    spec = make_welding_spec(
        {i: square for i in range(1, 4 * m * m + 1)},
        [
            MatchedPair((d1, r1), (d2, r2)) if data.draw(st.booleans())
            else MatchedPair((d2, r2), (d1, r1))
            for d1, r1, d2, r2 in pairs
        ],
    )
    space = build_welded_space(spec)
    assert betti_numbers(space) == oracle_betti(space)


@pytest.mark.parametrize("variant", ["torus", "disc", None])
def test_each_space_builds_one_complex_and_one_set_of_ranks(variant, monkeypatch):
    """A closed grid, an open grid and ``line1d.weld``: every report on
    one space shares its complex and its Betti ranks."""
    from logaffine import topology

    if variant is None:
        spec = load_welding("line1d.weld").spec
    else:
        square = load_fan("square.fan")
        spec = make_welding_spec(
            {i: square for i in range(1, 17)},
            [MatchedPair((d1, r1), (d2, r2)) for d1, r1, d2, r2 in grid_pairs(variant, 2)],
        )
    space, fresh = build_welded_space(spec), build_welded_space(spec)
    calls = {"_complex_2d": 0, "_complex_1d": 0, "_incidence_rank": 0}
    for name in calls:
        original = getattr(topology, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(topology, name, counting)
    for _ in range(2):
        euler_characteristic(space)
        betti_numbers(space)
        if variant == "torus":
            classify_closed_surface(space)
        divisor_topology(space)
        log_cohomology_dims(space)
    assert calls == {
        "_complex_2d": int(space.dim == 2),
        "_complex_1d": int(space.dim == 1),
        "_incidence_rank": space.dim,
    }
    # the complex is kept outside the fields: equality, repr and replace
    # see the space alone
    assert space == fresh and repr(space) == repr(fresh)
    assert cell_complex(replace(space)) is not cell_complex(space)
    assert calls["_complex_2d"] + calls["_complex_1d"] == 2


def test_segment_welded_to_itself_is_a_circle():
    segment = make_fan([(1,), (-1,)], [[], [0], [1]], labels=["r", "l"])
    space = build_welded_space(make_welding_spec({1: segment}, []))
    (end, _) = space.edges
    circle = replace(space, edges=(replace(end, faces=((1, "r"), (1, "l"))),))
    assert oracle_betti(circle) == betti_numbers(circle) == (1, 1)
