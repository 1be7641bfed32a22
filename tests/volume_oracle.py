"""The regularized volume by slow, independent paths.

``clipped_measure`` clips every constraint line of a domain and every
cutoff line by all of the domain's half-planes, counting a line shared
by two constraints of the same sign once.  It reads the constraints
from the spec, not the build's face segments, so it also measures
regions that the build rejects, and it takes the cutoff ``T`` either
as a number or, by default, as the symbol.

``TPoly`` is the polynomial in ``T`` the volume was first computed
with: every sum zero-fills the shorter coefficient list, every product
multiplies each pair of coefficients and negation multiplies by -1.
The oracle measures with it in the symbol ``T``, which the package
takes as one int past a bound on the coefficients.

``segment_measure`` is the volume's earlier per-domain measure: the
build's face segments clipped by the cutoff lines only, and each cutoff
line clipped by every half-plane, each edge adding ``c (u - l)`` to the
shoelace sum.  It reads the build's face segments, so it checks the
volume's cutoff-clipped vertex cycle against them, domain by domain.

``symbolic_volume`` is the constant term of the signed sum at the
symbolic cutoff.  ``doubling_fit`` evaluates the signed sum at the
numeric cutoffs ``T = t0 ... t0 + 3``, fits a quadratic through the
first three and accepts it once its quadratic and linear parts vanish
and the fourth value agrees; otherwise it doubles ``t0``, at most
seven times.  Started past the scale of every constraint, the clipped
regions have their large-``T`` shape at every sampled cutoff, so the
fit is the exact limit there; started too close, it can accept a
wrong constant.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product, zip_longest

from logaffine.errors import GeometryError
from logaffine.polytopes import _crossing_signs, _line_of
from logaffine.rational import AffineFunctional, cross2, dot, rot90

from polytope_oracle import _bounded, _clip


@functools.total_ordering
class TPoly:
    """A polynomial in the cutoff ``T`` with exact coefficients, constant
    first, ordered as its values are for every large ``T``: by the sign
    of the leading coefficient of a difference."""

    __slots__ = ("coefs",)

    def __init__(self, *coefs) -> None:
        self.coefs = coefs

    def __add__(self, other) -> TPoly:
        b = other.coefs if isinstance(other, TPoly) else (other,)
        return TPoly(*map(sum, zip_longest(self.coefs, b, fillvalue=0)))

    def __mul__(self, other) -> TPoly:
        b = other.coefs if isinstance(other, TPoly) else (other,)
        out = [0] * (len(self.coefs) + len(b) - 1)
        for (i, x), (j, y) in product(enumerate(self.coefs), enumerate(b)):
            out[i + j] += x * y
        return TPoly(*out)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> TPoly:
        return self * -1

    def __sub__(self, other) -> TPoly:
        return self + -other

    def __rsub__(self, other) -> TPoly:
        return -self + other

    def __truediv__(self, q) -> TPoly:
        return self * (1 / Fraction(q))

    def _lead(self, other):
        return next((c for c in reversed((self - other).coefs) if c), 0)

    def __eq__(self, other) -> bool:
        return self._lead(other) == 0

    def __lt__(self, other) -> bool:
        return self._lead(other) < 0


def clipped_measure(p, domain_id: int, T=TPoly(0, 1)) -> Fraction | TPoly:
    """Length or area of the domain region cut off at ``r.u + T|r|^2 = 0``
    for each ray ``r``, ``T`` a number or by default the symbol.  The
    length is the clip of the axis; the area is a shoelace sum over the
    clipped constraint lines, each edge taken counterclockwise, and a
    line shared with an earlier constraint of the same sign is counted
    once."""
    own = list(p.spec.domain_constraints(domain_id).values())
    rays = p.space.fan(domain_id).vectors
    fns = own + [AffineFunctional(r, T * dot(r, r)) for r in rays]
    named = list(enumerate(fns))
    cutoffs = (((-T * r[0], -T * r[1]), rot90(r)) for r in rays)
    lines = [((Fraction(0),), (Fraction(1),))] if p.dim == 1 else [*map(_line_of, own), *cutoffs]
    twice = Fraction(0)
    for i, (base, t) in enumerate(lines):
        raw = _clip(base, t, named)
        if raw is None or (_bounded(raw) and raw.lower > raw.upper):
            continue
        if not _bounded(raw):
            raise GeometryError("a region stays unbounded after the cutoffs")
        if p.dim == 1:
            return raw.upper - raw.lower
        if not any(j < i and dot(fns[j].linear, fns[i].linear) > 0 for j in raw.along):
            ends = (tuple(b + s * x for b, x in zip(base, t)) for s in (raw.upper, raw.lower))
            twice += cross2(*ends)
    return twice / 2


def segment_measure(p, domain_id: int) -> TPoly:
    """Length or area of the domain region cut off at ``r.u + T|r|^2 = 0``
    for each ray ``r``, ``T`` the symbolic cutoff.  The length is the
    clip of the axis; the area is a shoelace sum over the boundary, each
    edge taken counterclockwise: the build's face segments clipped by
    the cutoffs, and the cutoff lines clipped by every half-plane.  An
    edge on the line of ``a.u + c = 0``, from ``l`` to ``u`` along
    ``base + s t`` with ``base = -c a / |a|^2`` and ``t = rot90(a)``,
    adds ``cross2(base + u t, base + l t) = c (u - l)``, so the sum
    needs no end points."""
    T = TPoly(0, 1)
    rays = p.space.fan(domain_id).vectors
    cutoffs = [AffineFunctional(r, T * dot(r, r)) for r in rays]
    constraints = p.spec.domain_constraints(domain_id).values()
    walls = [*(AffineFunctional(g.linear, TPoly(g.constant)) for g in constraints), *cutoffs]

    def end(x):
        return TPoly(x) if cutoffs and x is not None else x

    if p.dim == 1:
        pieces = [((Fraction(0),), (Fraction(1),), None, None, walls, None)]
    else:
        pieces = [
            (s.base, s.direction, s.lower, s.upper, cutoffs, p.spec.constraint(s.ref).constant)
            for s in p.segments
            if s.ref[0] == domain_id
        ]
        pieces += [
            ((-T * f.linear[0], -T * f.linear[1]), rot90(f.linear), None, None, walls, f.constant)
            for f in cutoffs
        ]
    twice = TPoly(0)
    for base, t, lower, upper, fns, c in pieces:
        raw = _clip(base, t, enumerate(fns), end(lower), end(upper))
        if raw is None or (_bounded(raw) and raw.lower > raw.upper):
            continue
        lo, hi = raw.lower, raw.upper  # compact: some ray's cutoff bounds each recession direction
        if p.dim == 1:
            return hi - lo
        twice += (hi - lo) * c
    return twice / 2


def signed_total(p, T=TPoly(0, 1)) -> Fraction | TPoly:
    """The clipped measures of the feasible domains, summed with the
    signs ``regularized_volume`` gives them."""
    signs = _crossing_signs(p.space, p.feasible, p.traces)
    assert signs is not None
    norm = signs[min(p.feasible)] * p.spec.orientation
    return sum((signs[d] * norm * clipped_measure(p, d, T) for d in p.feasible), TPoly(0))


def symbolic_volume(p) -> Fraction:
    """The constant term of the signed total at the symbolic cutoff,
    once its terms in ``T`` and ``T^2`` vanish."""
    const, *growth = signed_total(p).coefs
    if any(growth):
        raise GeometryError("the regularized volume diverges")
    return Fraction(const)


def doubling_fit(p, t0: int) -> Fraction:
    def total(T: Fraction) -> Fraction:
        return signed_total(p, T).coefs[0]

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
