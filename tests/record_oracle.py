"""Two oracles for ``logaffine.classification.records_equivalent``.

``exact_records_equivalent`` is the package's Fraction path before it
moved to ints: the same rank split, on the rational columns themselves.
It is exact in dimension at most 2, so the integer test must agree with
it on every pair of records, in both argument orders.

``records_equivalent`` is record equivalence as it was before the rank
split: the one-sided oracle.  It solves for the lattice automorphism by
row reduction and, when the equations leave T free, searches every
integer matrix with entries in [-3, 3].  A ``True`` from it comes with
a checked witness, so wherever it says ``True`` the exact test in
``logaffine.classification`` must say ``True`` as well; its ``False``
proves nothing, since the search is bounded.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from logaffine.classification import InvariantRecord
from logaffine.errors import UnsupportedDimensionError
from logaffine.rational import Vector, cross2, dot, is_zero, rot90
from rational_oracle import gauss_jordan, primitive, vec_scale


def _solve_affine(rows, rhs, unknowns):
    """Row-reduce ``rows . x = rhs``; returns (particular, pivot columns)
    with zeros in the free coordinates, or None when inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = gauss_jordan(aug, unknowns)
    if any(row[unknowns] != 0 for row in aug[len(pivots):]):
        return None
    particular = [Fraction(0)] * unknowns
    for row, col in zip(aug, pivots):
        particular[col] = row[unknowns]
    return particular, pivots


def _determinant(matrix) -> Fraction:
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


_SEARCH_BOUND = 3


def _find_lattice_automorphism(n, vector_pairs, covector_pairs, chern_pairs):
    """An integer matrix T with |det T| = 1 sending the second member of
    every pair to the first: vectors by T, covectors by the inverse
    transpose, Chern rows by T.  Returns None when there is none (the
    search over underdetermined systems is bounded to entries in
    [-3, 3])."""
    unknowns = n * n
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def entry_rows(pairs, build):
        for second, first in pairs:
            for row, value in build(second, first):
                rows.append(row)
                rhs.append(value)

    def vector_equations(second, first):
        # first[i] = sum_j T[i][j] second[j]
        for i in range(n):
            row = [Fraction(0)] * unknowns
            for j in range(n):
                row[i * n + j] = Fraction(second[j])
            yield row, Fraction(first[i])

    def covector_equations(second, first):
        # second[j] = sum_i T[i][j] first[i]  (covectors move dually)
        for j in range(n):
            row = [Fraction(0)] * unknowns
            for i in range(n):
                row[i * n + j] = Fraction(first[i])
            yield row, Fraction(second[j])

    entry_rows(vector_pairs, vector_equations)
    entry_rows(covector_pairs, covector_equations)
    # Each degree-2 coordinate of the Chern family is a lattice vector
    # (one entry per circle factor), so it transforms like a ray vector.
    entry_rows(chern_pairs, vector_equations)

    solution = _solve_affine(rows, rhs, unknowns)
    if solution is None:
        return None
    particular, pivots = solution

    def as_matrix(flat):
        return tuple(
            tuple(flat[i * n + j] for j in range(n)) for i in range(n)
        )

    def admissible(flat):
        if any(x.denominator != 1 for x in flat):
            return False
        return abs(_determinant(as_matrix(flat))) == 1

    if len(pivots) == unknowns:
        return as_matrix(particular) if admissible(particular) else None

    def satisfies(flat):
        return all(
            sum(c * x for c, x in zip(row, flat)) == b
            for row, b in zip(rows, rhs)
        )

    span = range(-_SEARCH_BOUND, _SEARCH_BOUND + 1)
    for values in itertools.product(span, repeat=unknowns):
        flat = [Fraction(v) for v in values]
        if admissible(flat) and satisfies(flat):
            return as_matrix(flat)
    return None


def records_equivalent(first, second) -> bool:
    """The old ``logaffine.classification.records_equivalent``: exact
    when the equations pin T down, a bounded search otherwise."""
    if first.moduli_dim != second.moduli_dim:
        return False
    if first.chern.rank != second.chern.rank:
        return False
    if {len(v) for v in first.chern.chern} != {len(v) for v in second.chern.chern}:
        return False
    if first.polytope.skeleton() != second.polytope.skeleton():
        return False
    n = first.polytope.dim
    vector_pairs = list(
        zip(second.polytope.ray_vectors(), first.polytope.ray_vectors())
    )
    covector_pairs = list(
        zip(second.polytope.covectors(), first.polytope.covectors())
    )
    if first.chern.rank == n:
        width = len(first.chern.chern[0]) if first.chern.chern else 0
        chern_pairs = [
            (
                tuple(second.chern.chern[k][m] for k in range(n)),
                tuple(first.chern.chern[k][m] for k in range(n)),
            )
            for m in range(width)
        ]
    elif first.chern == second.chern:
        chern_pairs = []
    else:
        return False
    return (
        _find_lattice_automorphism(n, vector_pairs, covector_pairs, chern_pairs)
        is not None
    )


# ------------------------------------------- the exact Fraction path


def _lattice_columns(record: InvariantRecord, det: int) -> list[Vector]:
    """The vectors one lattice automorphism T moves together: the ray
    vectors, the Chern columns and the covectors.

    In the plane T^{-T} = J T J^{-1} / det T for the quarter turn J, so
    a covector turned by J moves by T up to the sign det T, which is
    folded in here; on a line T = T^{-T} and nothing is turned.
    """
    shape, chern = record.polytope, record.chern.chern
    columns = list(shape.ray_vectors())
    if record.chern.rank == shape.dim:
        columns += zip(*chern)
    if shape.dim == 2:
        return columns + [vec_scale(det, rot90(c)) for c in shape.covectors()]
    return columns + list(shape.covectors())


def _along_one_line(columns: list[Vector]) -> tuple[Fraction, ...] | None:
    """The coefficients of every column along the primitive vector of
    the first nonzero one, or None when the columns span the plane."""
    line = next((primitive(c) for c in columns if not is_zero(c)), None)
    if line is None:
        return (Fraction(0),) * len(columns)
    coefficients = tuple(dot(c, line) / dot(line, line) for c in columns)
    if any(vec_scale(t, line) != c for t, c in zip(coefficients, columns)):
        return None
    return coefficients


def _moved_by_unimodular(source: list[Vector], target: list[Vector], det: int) -> bool:
    """Whether an integer T with det T = det sends every source column
    to its target, given source columns that span the plane: the first
    independent pair u, v forces T = [a b] [u v]^{-1}."""
    i = next(k for k, c in enumerate(source) if not is_zero(c))
    j = next(k for k, c in enumerate(source) if cross2(source[i], c))
    (u, v), (a, b) = (source[i], source[j]), (target[i], target[j])
    d = cross2(u, v)
    if cross2(a, b) != det * d:
        return False
    e0 = tuple((v[1] * x - u[1] * y) / d for x, y in zip(a, b))
    e1 = tuple((u[0] * y - v[0] * x) / d for x, y in zip(a, b))
    if any(t.denominator != 1 for t in e0 + e1):
        return False
    return all(
        tuple(w[0] * x + w[1] * y for x, y in zip(e0, e1)) == t
        for w, t in zip(source, target)
    )


def exact_records_equivalent(first: InvariantRecord, second: InvariantRecord) -> bool:
    """Whether two invariant records describe the same structure.

    True when the combinatorial skeletons coincide, the moduli
    dimensions agree, and one lattice automorphism carries every ray
    vector, constraint covector and Chern vector of the second record
    onto the first; Chern vectors are compared entry by entry in their
    given order, not merely by span.

    Exact in dimension at most 2, split on the rank of the second
    record's data: data spanning the plane forces T, and data on one
    line leaves the second basis vector free, so that either sign of
    det T is reachable.  Higher dimensions raise
    ``UnsupportedDimensionError``.
    """
    if first.moduli_dim != second.moduli_dim:
        return False
    if first.chern.rank != second.chern.rank:
        return False
    if {len(v) for v in first.chern.chern} != {len(v) for v in second.chern.chern}:
        return False
    if first.polytope.skeleton() != second.polytope.skeleton():
        return False
    n = first.polytope.dim
    if n > 2:
        raise UnsupportedDimensionError(
            f"record equivalence is decided in dimension at most 2, not {n}"
        )
    if first.chern.rank != n and first.chern != second.chern:
        return False
    source = _lattice_columns(second, 1)
    coefficients = _along_one_line(source)
    for det in (1, -1) if n == 2 else (1,):
        target = _lattice_columns(first, det)
        if coefficients is None:
            if _moved_by_unimodular(source, target, det):
                return True
        elif _along_one_line(target) == coefficients:
            return True
    return False
