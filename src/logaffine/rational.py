"""Exact rational vectors, affine functionals and the lattice test.

Vectors are plain tuples of ``fractions.Fraction`` so they hash and
compare structurally.  The decisions on them run on integers: the
lattice-saturation test reads the gcd of the maximal minors of an
integer matrix, and fan validation (``fans.validate_fan``) eliminates
its rays' integer rows without fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, NonIntegerEntryError

Vector = tuple[Fraction, ...]


def vector(*components) -> Vector:
    """Build a rational vector from ints, strings, or Fractions."""
    return tuple(Fraction(c) for c in components)


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(c) for c in values)


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


# ------------------------------------------------------- lattice test


def _as_int(entry) -> int:
    f = Fraction(entry)
    if f.denominator != 1:
        raise NonIntegerEntryError(f"non-integer entry {entry}")
    return f.numerator


def _as_int_matrix(rows: Sequence[Sequence]) -> list[list[int]]:
    out = [[x if type(x) is int else _as_int(x) for x in row] for row in rows]
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise DimensionMismatchError("ragged integer matrix")
    return out


def _det(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by cofactors of its first row."""
    if len(mat) < 2:
        return mat[0][0] if mat else 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, x in enumerate(mat[0])
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
