"""Tropical domains: strata, closure order, residues."""

from __future__ import annotations

import pytest

from logaffine.domains import build_domain, residue
from logaffine.errors import GeometryError, InvalidFanError
from logaffine.fans import make_fan
from logaffine.rational import vector

from test_fans import hexagon_fan, triangle_fan, wedge_fan


def test_build_domain_stratum_counts() -> None:
    dom = build_domain(wedge_fan())
    assert len(dom.strata) == 5
    assert len(build_domain(make_fan([(1, 0)], [[], [0]], labels=["a"])).strata) == 2
    assert len(build_domain(make_fan([], [[]], labels=[], dim=2)).strata) == 1
    assert len(build_domain(triangle_fan()).strata) == 7


def test_build_domain_rejects_invalid_fan() -> None:
    bad = make_fan([(1, 0), (2, 0)], [[], [0], [1]], labels=["a", "b"])
    with pytest.raises(InvalidFanError):
        build_domain(bad)


def test_stratum_codimension_and_closure() -> None:
    dom = build_domain(wedge_fan())
    open_stratum = dom.stratum(frozenset())
    corner = dom.stratum(frozenset({1, 2}))
    edge = dom.stratum(frozenset({2}))
    assert open_stratum.codim == 0
    assert edge.codim == 1
    assert corner.codim == 2
    # Closure order is reverse inclusion of cones.
    assert dom.in_closure(open_stratum, corner)
    assert dom.in_closure(edge, corner)
    assert not dom.in_closure(corner, edge)
    assert dom.in_closure(open_stratum, open_stratum)
    other_edge = dom.stratum(frozenset({0}))
    assert not dom.in_closure(other_edge, corner)


def test_residue() -> None:
    dom = build_domain(wedge_fan())
    assert residue(dom, dom.stratum(frozenset({0}))) == vector(1, 0)
    assert residue(dom, dom.stratum(frozenset({2}))) == vector(0, 1)
    with pytest.raises(GeometryError):
        residue(dom, dom.stratum(frozenset({1, 2})))
    with pytest.raises(GeometryError):
        residue(dom, dom.stratum(frozenset()))


def test_strata_count_matches_cone_count() -> None:
    for fan in (wedge_fan(), triangle_fan(), hexagon_fan()):
        dom = build_domain(fan)
        assert len(dom.strata) == len(fan.cones)
        # Codimension-1 strata are in bijection with the rays.
        rays = [s for s in dom.strata if s.codim == 1]
        assert {residue(dom, s) for s in rays} == set(fan.vectors)
