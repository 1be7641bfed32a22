"""Exact rational vectors and affine functionals.

Vectors are plain tuples of ``fractions.Fraction`` so they hash and
compare structurally.  The decisions on them run on integers: fan
validation (``fans.validate_fan``) eliminates its rays' integer rows
without fractions, and the lattice test at a polytope's vertex
(``polytopes.delzant_check``) is a 2 x 2 determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

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
