"""Tropical domains: affine space partially compactified along a fan.

A domain attaches one boundary stratum at infinity for each nonempty
cone of its fan; the stratum for a cone of k independent generators
has codimension k and sits at infinity in the direction opposite the
cone (a path escaping in direction d converges onto the stratum of
the cone containing -d).  The closure partial order on strata is
therefore reverse inclusion of cones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeometryError, InvalidFanError
from .fans import Fan, validate_fan
from .rational import Vector


@dataclass(frozen=True)
class Stratum:
    """A boundary stratum, keyed by the index set of its fan cone."""

    cone: frozenset[int]

    @property
    def codim(self) -> int:
        return len(self.cone)


@dataclass(frozen=True)
class TropicalDomain:
    """A validated fan together with its stratum poset."""

    fan: Fan
    strata: tuple[Stratum, ...]

    def stratum(self, cone: frozenset[int]) -> Stratum:
        for s in self.strata:
            if s.cone == cone:
                return s
        raise KeyError(f"no stratum for cone {sorted(cone)}")

    def in_closure(self, s: Stratum, t: Stratum) -> bool:
        """Whether ``t`` lies in the closure of ``s`` (cone reverse order)."""
        return s.cone <= t.cone


def build_domain(fan: Fan) -> TropicalDomain:
    """Validate the fan and assemble its domain.

    Raises ``InvalidFanError`` carrying the violation list when the
    fan does not satisfy the axioms.
    """
    report = validate_fan(fan)
    if not report.ok:
        raise InvalidFanError(list(report.violations))
    strata = tuple(
        Stratum(cone)
        for cone in sorted(fan.cones, key=lambda c: (len(c), sorted(c)))
    )
    return TropicalDomain(fan=fan, strata=strata)


def residue(domain: TropicalDomain, stratum: Stratum) -> Vector:
    """The residue vector of a codimension-1 stratum (its fan ray)."""
    if stratum.codim != 1:
        raise GeometryError(
            f"residue needs a codimension-1 stratum, got codimension {stratum.codim}"
        )
    (index,) = stratum.cone
    return domain.fan.vectors[index]
