"""Shared fixture-corpus loaders and the homology oracle for the test suite."""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from logaffine.fileio import (
    parse_bundle_file,
    parse_fan_file,
    parse_polytope_file,
    parse_welding_file,
)
from logaffine.polytopes import build_polytope
from logaffine.welding import build_welded_space

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


@lru_cache(maxsize=None)
def load_fan(name: str):
    return parse_fan_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_welding(name: str):
    return parse_welding_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_space(name: str):
    return build_welded_space(load_welding(name).spec)


@lru_cache(maxsize=None)
def load_polytope(name: str):
    return parse_polytope_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_bundle(name: str):
    return parse_bundle_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_built_polytope(name: str):
    pf = load_polytope(name)
    return build_polytope(build_welded_space(pf.spec.welding), pf.spec)


def grid_pairs(variant: str, m: int) -> list[tuple[int, str, int, str]]:
    """Face pairs ``(domain, ray, domain, ray)`` of a 2m x 2m square-fan grid.

    Domain ``(r, c)`` has id ``r * 2m + c + 1``; column neighbours share
    ray ``a`` after an even column and ``c`` after an odd one, row
    neighbours ``b`` and ``d`` the same way.  A torus wraps both ways, a
    cylinder the columns only, a disc neither; a comb lists the torus
    rows and column 0's rungs and leaves the other rungs to closure.
    """
    n = 2 * m
    wrap_rows = variant in ("torus", "comb")
    pairs = [
        (r * n + c + 1, "ac"[c % 2], r * n + (c + 1) % n + 1, "ac"[c % 2])
        for r in range(n)
        for c in range(n)
        if c + 1 < n or variant != "disc"
    ]
    pairs += [
        (r * n + c + 1, "bd"[r % 2], (r + 1) % n * n + c + 1, "bd"[r % 2])
        for c in range(1 if variant == "comb" else n)
        for r in range(n)
        if r + 1 < n or wrap_rows
    ]
    return pairs


# ---------------------------------------------------------- homology oracle


def fraction_rank(matrix) -> int:
    """Exact rational rank by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank_found = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next(
            (r for r in range(rank_found, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank_found], rows[pivot] = rows[pivot], rows[rank_found]
        lead = rows[rank_found][col]
        for r in range(len(rows)):
            if r != rank_found and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank_found])]
        rank_found += 1
    return rank_found


def oracle_betti(space) -> tuple[int, ...]:
    """Betti numbers straight from incidence boundary matrices."""
    if space.dim == 1:
        points = [e.label for e in space.edges]
        segments = list(space.domain_ids)
        d1 = [[0] * len(segments) for _ in points]
        for i, e in enumerate(space.edges):
            for domain_id, label in e.faces:
                fan = space.domain(domain_id).fan
                ray = fan.vectors[fan.index_of_label(label)]
                d1[i][segments.index(domain_id)] += -1 if ray[0] > 0 else 1
        r1 = fraction_rank(d1)
        return (len(points) - r1, len(segments) - r1)

    vertex_index = {c.cluster_id: i for i, c in enumerate(space.clusters)}
    edge_index = {e.label: i for i, e in enumerate(space.edges)}
    face_index = {d: i for i, d in enumerate(space.domain_ids)}
    d1 = [[0] * len(edge_index) for _ in vertex_index]
    for e in space.edges:
        if e.head is not None:
            d1[vertex_index[e.head]][edge_index[e.label]] += 1
        if e.tail is not None:
            d1[vertex_index[e.tail]][edge_index[e.label]] -= 1
    d2 = [[0] * len(face_index) for _ in edge_index]
    for e in space.edges:
        for domain_id, _ in e.faces:
            d2[edge_index[e.label]][face_index[domain_id]] -= 1
    r1, r2 = fraction_rank(d1), fraction_rank(d2)
    return (
        len(vertex_index) - r1,
        len(edge_index) - r1 - r2,
        len(face_index) - r2,
    )
