"""Cellular topology of welded spaces and their divisors.

A welded space decomposes into finitely many open cells: one plane
cell per domain, one line cell per codimension-1 stratum, and one
point per corner cluster.  Chain groups over the rationals with one
generator per (generally noncompact) cell compute locally finite
Betti numbers, which agree with the singular ones whenever the space
is compact; a cell end that escapes to infinity simply contributes
nothing to the boundary map.

Boundary conventions.  Every domain carries the standard orientation
of its coordinate plane and every codimension-1 cell the direction of
its increasing induced coordinate.  Welding glues two domains along a
stratum so that both induce the same boundary orientation on it, so
the top boundary map records each incidence with one fixed
coefficient; a global sign flip making the two sides cancel exists
exactly when the adjacency graph is two-colorable, which is the
orientability test used during welding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeometryError, UnsupportedDimensionError
from .rational import rank
from .welding import WeldedSpace

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CellComplex:
    """Cells per dimension plus rational boundary matrices.

    ``boundaries[k - 1]`` is the matrix of the boundary map from
    k-cells to (k-1)-cells, rows indexed like ``cells[k - 1]`` and
    columns like ``cells[k]``.
    """

    dim: int
    cells: tuple[tuple[str, ...], ...]
    boundaries: tuple[Matrix, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.counts))

    def betti_numbers(self) -> tuple[int, ...]:
        ranks = [rank(matrix) for matrix in self.boundaries]
        ranks = [0] + ranks + [0]
        return tuple(
            n - ranks[k] - ranks[k + 1] for k, n in enumerate(self.counts)
        )


def _complex_2d(space: WeldedSpace) -> CellComplex:
    vertices = tuple(c.cluster_id for c in space.clusters)
    edges = tuple(e.label for e in space.edges)
    faces = tuple(str(i) for i in space.domain_ids)
    vertex_index = {v: i for i, v in enumerate(vertices)}
    edge_index = {e: i for i, e in enumerate(edges)}

    d1 = [[0] * len(edges) for _ in vertices]
    for j, e in enumerate(space.edges):
        if e.head is not None:
            d1[vertex_index[e.head]][j] += 1
        if e.tail is not None:
            d1[vertex_index[e.tail]][j] -= 1

    d2 = [[0] * len(faces) for _ in edges]
    for e in space.edges:
        for domain_id, _ in e.faces:
            d2[edge_index[e.label]][space.domain_ids.index(domain_id)] -= 1

    return CellComplex(
        dim=2,
        cells=(vertices, edges, faces),
        boundaries=(
            tuple(tuple(row) for row in d1),
            tuple(tuple(row) for row in d2),
        ),
    )


def _complex_1d(space: WeldedSpace) -> CellComplex:
    points = tuple(e.label for e in space.edges)
    segments = tuple(str(i) for i in space.domain_ids)
    d1 = [[0] * len(segments) for _ in points]
    for i, e in enumerate(space.edges):
        for domain_id, label in e.faces:
            fan = space.domain(domain_id).fan
            ray = fan.vectors[fan.index_of_label(label)]
            # the point stratum of an outward ray sits at the domain's
            # negative end, of an inward ray at its positive end
            d1[i][space.domain_ids.index(domain_id)] += -1 if ray[0] > 0 else 1
    return CellComplex(
        dim=1,
        cells=(points, segments),
        boundaries=(tuple(tuple(row) for row in d1),),
    )


def cell_complex(space: WeldedSpace) -> CellComplex:
    """The canonical cell decomposition of a welded space."""
    if space.dim == 2:
        return _complex_2d(space)
    if space.dim == 1:
        return _complex_1d(space)
    raise UnsupportedDimensionError(
        f"cell decomposition is implemented for dimensions 1 and 2, not {space.dim}"
    )


def euler_characteristic(space: WeldedSpace) -> int:
    return cell_complex(space).euler_characteristic()


def betti_numbers(space: WeldedSpace) -> tuple[int, ...]:
    """Locally finite Betti numbers of the welded space over the rationals."""
    return cell_complex(space).betti_numbers()


# --------------------------------------------------------------- surfaces


@dataclass(frozen=True)
class SurfaceClass:
    """Classification of a connected closed surface."""

    orientable: bool
    euler: int
    genus: int | None
    crosscaps: int | None
    name: str


def classify_closed_surface(space: WeldedSpace) -> SurfaceClass:
    """Identify a compact connected boundaryless welded surface."""
    if space.dim != 2:
        raise UnsupportedDimensionError(
            f"surface classification needs dimension 2, not {space.dim}"
        )
    if space.compact is not True:
        raise GeometryError("surface classification needs a compact space")
    if space.has_boundary:
        raise GeometryError("surface classification needs an empty boundary")
    chi = euler_characteristic(space)
    if betti_numbers(space)[0] != 1:
        raise GeometryError("surface classification needs a connected space")
    if space.orientable:
        genus = (2 - chi) // 2
        name = {0: "sphere", 1: "torus"}.get(genus, f"genus-{genus} surface")
        return SurfaceClass(True, chi, genus, None, name)
    crosscaps = 2 - chi
    name = {1: "projective plane", 2: "Klein bottle"}.get(
        crosscaps, f"non-orientable surface with {crosscaps} crosscaps"
    )
    return SurfaceClass(False, chi, None, crosscaps, name)


# ---------------------------------------------------------------- divisor


@dataclass(frozen=True)
class DivisorTopology:
    """Component count, closed-component count, crossings, Betti pairs."""

    component_count: int
    closed_count: int
    crossing_count: int
    betti: tuple[tuple[int, int], ...]


def divisor_topology(space: WeldedSpace) -> DivisorTopology:
    """Topology of the welded divisor, one (b0, b1) pair per component."""
    betti = tuple(
        (1, 1 if comp.closed else 0) for comp in space.divisor_components
    )
    return DivisorTopology(
        component_count=len(space.divisor_components),
        closed_count=sum(1 for comp in space.divisor_components if comp.closed),
        crossing_count=len(space.crossings),
        betti=betti,
    )


# ---------------------------------------------------- logarithmic de Rham


def log_cohomology_dims(space: WeldedSpace) -> tuple[int, ...]:
    """Dimensions of cohomology with logarithmic poles on the divisor.

    Each degree receives the cohomology of the space itself, one copy
    of the divisor components' cohomology one degree down (residues
    along the components), and one class per k-fold crossing in degree
    k.  The top degree (3 on a surface, 2 on a line) is zero: there
    are no cells of that dimension, no divisor component has cohomology
    one degree below it (no curve has H^2, no point has H^1), and there
    are no crossings of that order (no triple crossings on a surface).
    """
    if space.dim == 2:
        b = betti_numbers(space)
        components = divisor_topology(space).betti
        crossings = len(space.crossings)
        h0 = b[0]
        h1 = b[1] + sum(b0 for b0, _ in components)
        h2 = b[2] + sum(b1 for _, b1 in components) + crossings
        return (h0, h1, h2, 0)
    if space.dim == 1:
        b = betti_numbers(space)
        h0 = b[0]
        h1 = b[1] + len(space.divisor_components)
        return (h0, h1, 0)
    raise UnsupportedDimensionError(
        f"logarithmic cohomology is implemented for dimensions 1 and 2, not {space.dim}"
    )
