"""Exact rational linear algebra: frozen examples plus randomized oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logaffine.errors import DimensionMismatchError, NonIntegerEntryError
from logaffine.rational import AffineFunctional, cross2, rot90, vector
from rational_oracle import (
    DependentGeneratorsError,
    cone_contains,
    is_saturated_lattice_basis,
    linear_independent,
    primitive,
    rank,
    smith_normal_form,
    solve_in_basis,
)


# ---------------------------------------------------------------- helpers


def _det_rank(rows: list[tuple[Fraction, ...]]) -> int:
    """Rank via exhaustive minor expansion (independent oracle)."""
    if not rows:
        return 0
    n = len(rows[0])

    def det(mat: list[list[Fraction]]) -> Fraction:
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            sign = Fraction(-1) ** j
            total += sign * mat[0][j] * det(minor)
        return total

    best = 0
    for k in range(1, min(len(rows), n) + 1):
        for ridx in itertools.combinations(range(len(rows)), k):
            for cidx in itertools.combinations(range(n), k):
                mat = [[rows[i][j] for j in cidx] for i in ridx]
                if det(mat) != 0:
                    best = max(best, k)
    return best


def _determinantal_divisor(rows: list[list[int]], k: int) -> int:
    """gcd of all k x k minors (independent oracle for Smith divisors)."""
    import math

    def det(mat: list[list[int]]) -> int:
        if len(mat) == 1:
            return mat[0][0]
        total = 0
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total

    n = len(rows[0])
    g = 0
    for ridx in itertools.combinations(range(len(rows)), k):
        for cidx in itertools.combinations(range(n), k):
            g = math.gcd(g, abs(det([[rows[i][j] for j in cidx] for i in ridx])))
    return g


# ---------------------------------------------------------------- vectors


def test_vector_coercion() -> None:
    assert vector(1, 0) == (Fraction(1), Fraction(0))
    assert vector("1/2", 3) == (Fraction(1, 2), Fraction(3))


def test_rot90_and_cross() -> None:
    assert rot90(vector(1, 0)) == vector(0, 1)
    assert rot90(vector(0, 1)) == vector(-1, 0)
    assert cross2(vector(1, 0), vector(0, 1)) == 1
    assert cross2(vector(0, 1), vector(1, 0)) == -1


def test_primitive() -> None:
    assert primitive(vector(2, 4)) == (1, 2)
    assert primitive(vector("-1/2", "3/2")) == (-1, 3)
    assert primitive(vector(0, -5)) == (0, -1)


def test_affine_functional_evaluates() -> None:
    f = AffineFunctional(vector(0, -1), Fraction(1))
    assert f(vector(3, 1)) == 0
    assert f(vector(0, 0)) == 1
    assert f(vector(0, 2)) == -1


# ---------------------------------------------------- linear independence


def test_linear_independent_examples() -> None:
    assert linear_independent([vector(1, 0), vector(1, 1)])
    assert not linear_independent([vector(1, 1), vector(2, 2)])
    assert not linear_independent([vector(1, 0), vector(0, 1), vector(1, 1)])
    assert linear_independent([])
    assert not linear_independent([vector(0, 0)])


def test_linear_independent_dimension_mismatch() -> None:
    with pytest.raises(DimensionMismatchError):
        linear_independent([vector(1, 0), vector(1, 1, 0)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_linear_independent_matches_minor_oracle(mat: list[list[int]]) -> None:
    rows = [vector(*r) for r in mat]
    expected = _det_rank(list(rows))
    assert rank(rows) == expected
    assert linear_independent(rows) == (expected == len(rows))


# ------------------------------------------------------------- solving


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        min_size=0,
        max_size=4,
    ),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_solve_in_basis_round_trip(
    mat: list[list[int]], coeffs: list[int], other: list[int]
) -> None:
    basis = [vector(*r) for r in mat]
    coords = tuple(Fraction(c) for c in coeffs[: len(basis)])
    inside = tuple(
        sum((c * b[i] for c, b in zip(coords, basis)), Fraction(0)) for i in range(3)
    )
    outside = vector(*other)
    if _det_rank(basis) < len(basis):
        with pytest.raises(DependentGeneratorsError):
            solve_in_basis(basis, inside)
        return
    assert solve_in_basis(basis, inside) == coords
    solved = solve_in_basis(basis, outside)
    if _det_rank(basis + [outside]) > len(basis):
        assert solved is None
    else:
        assert solved is not None
        assert tuple(
            sum((c * b[i] for c, b in zip(solved, basis)), Fraction(0))
            for i in range(3)
        ) == outside


# ------------------------------------------------------- cone membership


def test_cone_contains_examples() -> None:
    gens = [vector(1, 0), vector(0, 1)]
    assert cone_contains(gens, vector(2, 3))
    assert cone_contains(gens, vector(2, 3), strict=True)
    assert cone_contains(gens, vector(1, 0))
    assert not cone_contains(gens, vector(1, 0), strict=True)
    assert not cone_contains(gens, vector(-1, 1))
    assert cone_contains([vector(1, 1)], vector(2, 2))
    assert not cone_contains([vector(1, 1)], vector(1, 2))
    # The empty cone is the origin alone.
    assert cone_contains([], vector(0, 0))
    assert not cone_contains([], vector(1, 0))


def test_cone_contains_rejects_dependent_generators() -> None:
    with pytest.raises(DependentGeneratorsError):
        cone_contains([vector(1, 1), vector(2, 2)], vector(1, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_cone_contains_nonnegative_combinations(
    c1: int, c2: int, s1: int, s2: int
) -> None:
    gens = [vector(1, 0), vector(s1, s2)]
    point = vector(c1 + c2 * s1, c2 * s2)
    assert cone_contains(gens, point)
    assert cone_contains(gens, point, strict=True) == (c1 > 0 and c2 > 0)


# ----------------------------------------------------- lattice saturation


def test_smith_normal_form_examples() -> None:
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[2, 4], [0, 0]]) == (2, 0)
    assert smith_normal_form([[1, 2]]) == (1,)
    assert smith_normal_form([[4, 6]]) == (2,)


def test_is_saturated_lattice_basis_examples() -> None:
    assert is_saturated_lattice_basis([[1, 0]])
    assert not is_saturated_lattice_basis([[2, 0]])
    assert is_saturated_lattice_basis([[1, 0], [1, 1]])
    assert not is_saturated_lattice_basis([[1, 0], [1, 2]])
    assert not is_saturated_lattice_basis([[1, 1], [1, -1]])
    assert is_saturated_lattice_basis([[0, -1], [-1, 1]])
    # ints are read as they are; integral Fractions and strings are read through Fraction
    assert is_saturated_lattice_basis([[Fraction(1), "0"], [True, Fraction(4, 2) - 1]])
    assert not is_saturated_lattice_basis([[Fraction(2), "0"]])


def test_is_saturated_rejects_bad_input() -> None:
    with pytest.raises(NonIntegerEntryError):
        is_saturated_lattice_basis([[Fraction(1, 2), 0]])
    with pytest.raises(NonIntegerEntryError, match="non-integer entry 1.5"):
        is_saturated_lattice_basis([[1, 1.5]])
    with pytest.raises(DimensionMismatchError, match="more rows"):
        is_saturated_lattice_basis([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(DimensionMismatchError, match="ragged"):
        is_saturated_lattice_basis([[1, 0], [1]])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.tuples(st.integers(0, 4), st.integers(1, 3)).flatmap(
        lambda nb: st.lists(
            st.lists(st.integers(-nb[1], nb[1]), min_size=nb[0], max_size=nb[0]),
            max_size=nb[0],
        )
    )
)
@example([[1, 1, 0], [0, 1, 1], [1, 0, 0]])
@example([[1, 2, 0, -1], [0, 1, 3, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
@example([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 1], [0, 0, 0, 2]])
def test_the_minor_gcd_agrees_with_the_smith_form(mat: list[list[int]]) -> None:
    """Rows extend to a lattice basis exactly when every Smith divisor
    of the k x n matrix (k <= n <= 4) is one."""
    expected = all(d == 1 for d in smith_normal_form(mat))
    assert is_saturated_lattice_basis(mat) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_smith_divisors_match_determinantal_oracle(mat: list[list[int]]) -> None:
    divisors = smith_normal_form(mat)
    prev = 1
    for k, d in enumerate(divisors, start=1):
        dk = _determinantal_divisor(mat, k)
        assert prev * d == dk
        if dk == 0:
            break
        prev = dk
    # Divisibility chain (zeros only at the tail).
    nonzero = [d for d in divisors if d != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(d == 0 for d in divisors[len(nonzero) :])
