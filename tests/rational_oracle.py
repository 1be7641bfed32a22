"""Rank, solving and cone membership by one elimination per question.

``gauss_jordan`` is the package's old elimination on ``Fraction`` rows.
``rank``, ``linear_independent``, ``solve_in_basis`` and
``cone_contains`` answer one question each with their own run of it;
``cone_violations`` checks the cone axioms of a fan with them, one solve
per (cone, ray) pair.  ``fans.validate_fan`` instead runs one
fraction-free integer elimination per cone, on the rays' integer rows
with every other ray as a carried column, and must give the same
violations in the same order.

``smith_normal_form`` is the package's old integer elimination.
``is_saturated_lattice_basis``, the package's old lattice test, reads
the gcd of the maximal minors, which must be one exactly when every
Smith divisor is; ``polytopes.delzant_check`` now tests two rows of two
by their determinant, which must be a unit exactly when the minors' gcd
is one.  ``DependentGeneratorsError`` and ``ObstructionUnknownError``
are the package's old error classes that nothing there raises any more.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from logaffine.errors import DimensionMismatchError, GeometryError, NonIntegerEntryError
from logaffine.fans import Fan
from logaffine.rational import Vector, as_vector, is_zero


class DependentGeneratorsError(GeometryError):
    """A cone operation received linearly dependent generators."""


class ObstructionUnknownError(GeometryError):
    """A construction needs the bundle lifting obstruction to vanish."""


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


# the package's old scaling and primitive direction: the record and
# polytope oracles read them, no package code does any more
def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def primitive(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (direction preserved)."""
    w = as_vector(v)
    if is_zero(w):
        raise DependentGeneratorsError("zero vector has no primitive direction")
    denom = math.lcm(*(c.denominator for c in w))
    ints = [int(c * denom) for c in w]
    g = math.gcd(*(abs(c) for c in ints))
    return tuple(c // g for c in ints)


def _check_same_length(vectors: Sequence[Vector]) -> int:
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise DimensionMismatchError(f"mixed vector lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the list of rational vectors, by Gaussian elimination."""
    rows = [list(as_vector(v)) for v in vectors]
    return len(gauss_jordan(rows, _check_same_length(rows)))


def linear_independent(vectors: Sequence[Sequence]) -> bool:
    """Whether the rational vectors are linearly independent."""
    vs = [as_vector(v) for v in vectors]
    _check_same_length(vs)
    return rank(vs) == len(vs)


def solve_in_basis(basis: Sequence[Vector], target: Vector) -> tuple[Fraction, ...] | None:
    """Coordinates of ``target`` in the independent ``basis``, or None.

    Returns None when the target lies outside the span.  Raises
    ``DependentGeneratorsError`` when the basis is dependent.
    """
    k = len(basis)
    if k == 0:
        return () if is_zero(target) else None
    n = _check_same_length(list(basis) + [target])
    # Solve the n x k system basis^T . x = target by elimination on the
    # augmented matrix.
    aug = [[basis[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    if len(gauss_jordan(aug, k)) < k:
        raise DependentGeneratorsError("basis vectors are dependent")
    # Consistency: rows past the pivots must have zero right-hand side.
    if any(row[k] != 0 for row in aug[k:]):
        return None
    return tuple(row[k] for row in aug[:k])


def cone_contains(generators: Sequence[Sequence], point: Sequence, *, strict: bool = False) -> bool:
    """Membership of ``point`` in the cone spanned by independent generators.

    With ``strict=True`` tests membership in the relative interior
    (all coefficients positive).  The empty generator list denotes the
    origin cone.  Raises ``DependentGeneratorsError`` on dependent
    generators.
    """
    coords = solve_in_basis([as_vector(g) for g in generators], as_vector(point))
    if coords is None:
        return False
    if strict:
        return all(c > 0 for c in coords)
    return all(c >= 0 for c in coords)


def cone_violations(fan: Fan) -> list[str]:
    """The cone axioms' violations of a fan whose vectors are valid, in
    the order ``validate_fan`` reports them, by one rank test per cone
    and one solve per (cone, ray) pair."""
    violations: list[str] = []
    n = len(fan.vectors)

    def name(cone: frozenset[int]) -> str:
        return "{" + " ".join(fan.labels[i] for i in sorted(cone)) + "}"

    if frozenset() not in fan.cones:
        violations.append("the empty cone is missing")
    for cone in sorted(fan.cones, key=lambda c: (len(c), sorted(c))):
        if any(i < 0 or i >= n for i in cone):
            violations.append(f"cone with out-of-range generator index {sorted(cone)}")
            continue
        gens = [fan.vectors[i] for i in cone]
        if not linear_independent(gens):
            violations.append(f"cone {name(cone)} has dependent generators")
            continue
        for i in cone:
            sub = cone - {i}
            if sub not in fan.cones:
                violations.append(f"cones are not closed under subsets: {name(sub)} missing")
        for j in range(n):
            if j not in cone and cone_contains(gens, fan.vectors[j]):
                violations.append(
                    f"vector {fan.labels[j]} lies in the closed hull of cone {name(cone)}"
                )
    return violations


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
