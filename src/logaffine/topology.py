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

Ranks.  Every boundary matrix here has at most two nonzeros per line:
per column of the 1-dimensional map of a surface (an edge's head and
tail), per row of its top map (the one or two domains an edge bounds)
and per row of the map of a curve.  A line with two nonzeros has
entries +-1; a line with one holds +-1, or +-2 where a cell meets a
single neighbour twice; a line whose entries cancel (an edge whose
head is its tail) is empty and is skipped.  The rank is read off the
signed walk of ``welding.two_colour`` over the n indices along a line.
A kernel vector x satisfies ``a x_i + b x_j = 0``, so a two-entry line
joins i to j with the sign ``-ab`` (``x_j = -ab x_i``), and a one-entry
line joins its index to itself with the sign -1 (``x_i = -x_i``).  x
is zero on a connected run exactly when one of its joins fails; each
run whose joins all hold carries one kernel vector, unique up to
scale, so over the rationals

    rank = n - #(runs whose joins all hold).

This is exact: no elimination and no division takes place.

Derived once.  ``cell_complex`` builds a space's complex on its first
call and keeps it in the space's instance ``__dict__``, as
``cached_property`` does, so the dataclass fields, ``==`` and ``repr``
are those of the space alone and ``dataclasses.replace`` gives a space
with no complex yet.  The complex computes its Betti numbers once, so
``euler_characteristic``, ``betti_numbers``, ``classify_closed_surface``
and ``log_cohomology_dims`` of one space share one complex and one set
of ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import GeometryError, UnsupportedDimensionError
from .welding import WeldedSpace, two_colour

Line = tuple[tuple[int, int], ...]


def _line(entries: Iterable[tuple[int, int]]) -> Line:
    """The ``(index, coefficient)`` entries summed per index, zeros dropped."""
    merged: dict[int, int] = {}
    for index, coefficient in entries:
        merged[index] = merged.get(index, 0) + coefficient
    return tuple((i, c) for i, c in merged.items() if c)


def _incidence_rank(n: int, lines: Iterable[Line]) -> int:
    """Rank over the rationals of a matrix given by sparse lines.

    The lines are all rows or all columns of the matrix and ``n`` is
    the length of each.  A line holds at most two nonzeros: ``(i, a),
    (j, b)`` with ``a, b = +-1``, or one entry of any value.  Each run
    of the signed walk whose joins all hold adds one kernel vector (see
    Ranks in the module docstring).
    """

    def joins():
        for line in lines:
            if len(line) == 2:
                (i, a), (j, b) = line
                yield i, j, -a * b
            elif line:
                yield line[0][0], line[0][0], -1

    return n - sum(two_colour(range(n), joins())[1])


@dataclass(frozen=True)
class _Incidence:
    """A boundary matrix kept as its sparse lines (see ``_line``).

    The lines are the matrix's rows when ``by_row`` holds, else its
    columns; each has at most two nonzeros, as ``_incidence_rank``
    needs.
    """

    lines: tuple[Line, ...]
    by_row: bool


@dataclass(frozen=True)
class CellComplex:
    """Cells per dimension plus rational boundary maps.

    ``incidences[k - 1]`` holds the boundary map from k-cells to
    (k-1)-cells as sparse lines, with rows indexed like ``cells[k - 1]``
    and columns like ``cells[k]``.
    """

    dim: int
    cells: tuple[tuple[str, ...], ...]
    incidences: tuple[_Incidence, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.counts))

    def betti_numbers(self) -> tuple[int, ...]:
        return self._betti

    @cached_property
    def _betti(self) -> tuple[int, ...]:
        ranks = [
            _incidence_rank(
                len(self.cells[k if incidence.by_row else k - 1]), incidence.lines
            )
            for k, incidence in enumerate(self.incidences, start=1)
        ]
        ranks = [0] + ranks + [0]
        return tuple(
            n - ranks[k] - ranks[k + 1] for k, n in enumerate(self.counts)
        )


def _complex_2d(space: WeldedSpace) -> CellComplex:
    vertices = tuple(c.cluster_id for c in space.clusters)
    edges = tuple(e.label for e in space.edges)
    faces = tuple(str(i) for i in space.domain_ids)
    vertex_index = {v: i for i, v in enumerate(vertices)}
    face_index = {d: i for i, d in enumerate(space.domain_ids)}
    # a column of d1 per edge: +1 at its head, -1 at its tail
    d1 = tuple(
        _line(
            (vertex_index[end], sign)
            for end, sign in ((e.head, 1), (e.tail, -1))
            if end is not None
        )
        for e in space.edges
    )
    # a row of d2 per edge: -1 at each domain it bounds
    d2 = tuple(
        _line((face_index[domain_id], -1) for domain_id, _ in e.faces)
        for e in space.edges
    )
    return CellComplex(
        dim=2,
        cells=(vertices, edges, faces),
        incidences=(_Incidence(d1, by_row=False), _Incidence(d2, by_row=True)),
    )


def _complex_1d(space: WeldedSpace) -> CellComplex:
    points = tuple(e.label for e in space.edges)
    segments = tuple(str(i) for i in space.domain_ids)
    segment_index = {d: i for i, d in enumerate(space.domain_ids)}
    d1 = []
    for e in space.edges:
        entries = []
        for domain_id, label in e.faces:
            fan = space.fan(domain_id)
            ray = fan.vectors[fan.index_of_label(label)]
            # the point stratum of an outward ray sits at the domain's
            # negative end, of an inward ray at its positive end
            entries.append((segment_index[domain_id], -1 if ray[0] > 0 else 1))
        d1.append(_line(entries))
    return CellComplex(
        dim=1,
        cells=(points, segments),
        incidences=(_Incidence(tuple(d1), by_row=True),),
    )


def cell_complex(space: WeldedSpace) -> CellComplex:
    """The canonical cell decomposition of a welded space, built once per space."""
    cached = space.__dict__.get("_cell_complex")
    if cached is not None:
        return cached
    if space.dim == 2:
        built = _complex_2d(space)
    elif space.dim == 1:
        built = _complex_1d(space)
    else:
        raise UnsupportedDimensionError(
            f"cell decomposition is implemented for dimensions 1 and 2, not {space.dim}"
        )
    space.__dict__["_cell_complex"] = built
    return built


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
