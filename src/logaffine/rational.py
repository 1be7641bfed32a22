"""Exact linear algebra over the rationals.

Everything in this package reduces to small exact computations:
Gauss-Jordan elimination on rational rows (ranks, solving and cone
membership) and Smith normal form over the integers for
lattice-saturation tests.  Vectors are plain tuples of
``fractions.Fraction`` so they hash and compare structurally.
"""

from __future__ import annotations

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


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


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


# ------------------------------------------------------------ Smith form


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


def smith_normal_form(rows: Sequence[Sequence]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns ``min(k, n)`` non-negative integers ``d1 | d2 | ...`` with
    zeros at the tail when the matrix drops rank.
    """
    mat = _as_int_matrix(rows)
    k = len(mat)
    n = len(mat[0]) if mat else 0
    size = min(k, n)
    divisors: list[int] = []
    top = 0
    while top < size:
        # Find the entry of smallest nonzero magnitude in the working block.
        best = None
        for i in range(top, k):
            for j in range(top, n):
                if mat[i][j] != 0 and (best is None or abs(mat[i][j]) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            divisors.extend([0] * (size - top))
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[top], row[bj] = row[bj], row[top]
        pivot = mat[top][top]
        # Reduce the pivot row and column; restart when a remainder appears.
        dirty = False
        for i in range(top + 1, k):
            q = mat[i][top] // pivot
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[top])]
            if mat[i][top] != 0:
                dirty = True
        for j in range(top + 1, n):
            q = mat[top][j] // pivot
            if q:
                for row in mat:
                    row[j] -= q * row[top]
            if mat[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry; if not, absorb a bad row.
        offender = None
        for i in range(top + 1, k):
            for j in range(top + 1, n):
                if mat[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            mat[top] = [x + y for x, y in zip(mat[top], mat[offender])]
            continue
        divisors.append(abs(pivot))
        top += 1
    while len(divisors) < size:
        divisors.append(0)
    return tuple(divisors)


def is_saturated_lattice_basis(rows: Sequence[Sequence]) -> bool:
    """Whether integer row vectors extend to a basis of the full lattice.

    True exactly when the Smith normal form of the ``k x n`` matrix
    (``k <= n``) has every divisor equal to one, i.e. the rows span a
    saturated rank-``k`` sublattice.
    """
    mat = _as_int_matrix(rows)
    if mat and len(mat) > len(mat[0]):
        raise DimensionMismatchError("more rows than columns")
    divisors = smith_normal_form(mat)
    return all(d == 1 for d in divisors)
