"""Exact linear algebra over the rationals.

Everything in this package reduces to small exact computations:
Gauss-Jordan elimination on rational rows (ranks, solving and cone
membership) and the gcd of the maximal minors of an integer matrix for
lattice-saturation tests.  Vectors are plain tuples of
``fractions.Fraction`` so they hash and compare structurally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DependentGeneratorsError,
    DimensionMismatchError,
    NonIntegerEntryError,
)

Vector = tuple[Fraction, ...]


def vector(*components) -> Vector:
    """Build a rational vector from ints, strings, or Fractions."""
    return tuple(Fraction(c) for c in components)


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(c) for c in values)


def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def vec_neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def rot90(v: Vector) -> Vector:
    """Rotate a plane vector a quarter turn counterclockwise."""
    if len(v) != 2:
        raise DimensionMismatchError("rot90 needs a 2-vector")
    return (-v[1], v[0])


def cross2(u: Vector, v: Vector) -> Fraction:
    """Scalar cross product of two plane vectors."""
    if len(u) != 2 or len(v) != 2:
        raise DimensionMismatchError("cross2 needs 2-vectors")
    return u[0] * v[1] - u[1] * v[0]


def primitive(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (direction preserved)."""
    w = as_vector(v)
    if is_zero(w):
        raise DependentGeneratorsError("zero vector has no primitive direction")
    denom = math.lcm(*(c.denominator for c in w))
    ints = [int(c * denom) for c in w]
    g = math.gcd(*(abs(c) for c in ints))
    return tuple(c // g for c in ints)


@dataclass(frozen=True)
class AffineFunctional:
    """An affine-linear function ``u -> linear . u + constant``."""

    linear: Vector
    constant: Fraction

    def __call__(self, point: Sequence) -> Fraction:
        return dot(self.linear, as_vector(point)) + self.constant

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.linear)
        sign = "-" if self.constant < 0 else "+"
        return f"({body}) {sign} {abs(self.constant)}"


# ------------------------------------------------------- elimination


def gauss_jordan(rows: list[list[Fraction]], columns: int) -> list[int]:
    """Reduce ``rows`` in place over their first ``columns`` columns.

    Gauss-Jordan elimination: pivot rows move to the top in order, each
    scaled to a leading one with zeros above and below it; entries past
    ``columns`` (an augmented right-hand side) are carried along.
    Returns the pivot columns, so ``rows[len(pivots):]`` are the rows
    reduced to zero in the first ``columns`` columns.
    """
    pivots: list[int] = []
    r = 0
    for col in range(columns):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


# ------------------------------------------------------- lattice test


def _as_int_matrix(rows: Sequence[Sequence]) -> list[list[int]]:
    out: list[list[int]] = []
    for row in rows:
        cur: list[int] = []
        for entry in row:
            f = Fraction(entry)
            if f.denominator != 1:
                raise NonIntegerEntryError(f"non-integer entry {entry}")
            cur.append(int(f))
        out.append(cur)
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise DimensionMismatchError("ragged integer matrix")
    return out


def _det(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by cofactors of its first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, x in enumerate(mat[0])
        if x
    )


def is_saturated_lattice_basis(rows: Sequence[Sequence]) -> bool:
    """Whether integer row vectors extend to a basis of the full lattice.

    True exactly when the ``k x k`` minors of the ``k x n`` matrix
    (``k <= n``) have gcd one, i.e. the rows span a saturated rank-``k``
    sublattice (the gcd is the product of the Smith divisors).
    """
    mat = _as_int_matrix(rows)
    if mat and len(mat) > len(mat[0]):
        raise DimensionMismatchError("more rows than columns")
    columns = range(len(mat[0]) if mat else 0)
    minors = (
        _det([[row[j] for j in cols] for row in mat])
        for cols in itertools.combinations(columns, len(mat))
    )
    return math.gcd(*minors) == 1
