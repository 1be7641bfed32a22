"""Record equivalence as it was before the rank split: the one-sided oracle.

``records_equivalent`` here solves for the lattice automorphism by
row reduction and, when the equations leave T free, searches every
integer matrix with entries in [-3, 3].  A ``True`` from it comes with
a checked witness, so wherever it says ``True`` the exact test in
``logaffine.classification`` must say ``True`` as well; its ``False``
proves nothing, since the search is bounded.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from logaffine.rational import gauss_jordan


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
