"""The regularized volume as it was before the symbolic cutoff: the slow path.

``doubling_fit`` evaluates the signed clipped measure at the numeric
cutoffs ``T = t0 ... t0 + 3``, fits a quadratic through the first three
and accepts it once its quadratic and linear parts vanish and the
fourth value agrees; otherwise it doubles ``t0``, at most seven times.
Started past the scale of every constraint, the clipped regions have
their large-``T`` shape at every sampled cutoff, so the fit is the
exact limit there; started too close, it can accept a wrong constant.
"""

from __future__ import annotations

from fractions import Fraction

from logaffine.errors import GeometryError
from logaffine.polytopes import _clipped_measure, _crossing_signs


def doubling_fit(p, t0: int) -> Fraction:
    signs = _crossing_signs(p.space, p.feasible, p.traces)
    assert signs is not None
    norm = signs[min(p.feasible)] * p.spec.orientation

    def total(T: Fraction) -> Fraction:
        return sum(
            (signs[d] * norm) * _clipped_measure(p, d, T) for d in p.feasible
        )

    for _ in range(7):
        f0, f1, f2 = (total(Fraction(t0 + k)) for k in range(3))
        quad = (f2 - 2 * f1 + f0) / 2
        lin = (f1 - f0) - quad * (2 * t0 + 1)
        const = f0 - quad * t0 * t0 - lin * t0
        if quad == 0 and lin == 0 and total(Fraction(t0 + 3)) == const:
            return const
        t0 *= 2
    raise GeometryError("the regularized volume does not stabilize")


def past_every_constant(p) -> int:
    """A start ``t0`` beyond every constraint constant of ``p``."""
    return 1 + sum(int(abs(fn.constant)) + 1 for _, fn in p.spec.constraints)
