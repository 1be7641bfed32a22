"""Welding tropical domains along matched codimension-1 faces.

Two faces form a *matched pair* when they carry the same ray vector
and the stars of that ray agree on both sides.  Welds at a shared
corner position chain the local quadrants of the participating
domains together; a corner is smooth exactly when its chain closes
into a cycle of four quadrants.  Welding a new pair therefore either
closes a chain (legal only at length four), overfills a corner
(obstructed), or leaves a four-quadrant chain whose two free end
faces are *coerced* into a weld of their own.  ``weld_pair`` takes
the transitive closure of this coercion and fails atomically when
any coerced pair is itself obstructed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .domains import TropicalDomain, build_domain
from .errors import (
    DimensionMismatchError,
    FaceInUseError,
    GeometryError,
    GloballyObstructedError,
    NotMatchedError,
    WeldingError,
)
from .fans import Fan, is_complete, star
from .rational import Vector, cross2

FaceRef = tuple[int, str]
Quadrant = tuple[int, frozenset[str]]


@dataclass(frozen=True)
class MatchedPair:
    """An unordered pair of faces to weld, with an optional label."""

    left: FaceRef
    right: FaceRef
    label: str | None = None

    def key(self) -> frozenset[FaceRef]:
        return frozenset((self.left, self.right))

    def faces(self) -> tuple[FaceRef, FaceRef]:
        return (self.left, self.right)

    def describe(self) -> str:
        a, b = sorted(self.faces())
        body = f"{a[0]}.{a[1]} ~ {b[0]}.{b[1]}"
        return f"{self.label} ({body})" if self.label else body


@dataclass(frozen=True)
class WeldingSpec:
    """Domains indexed by id plus an ordered list of welded pairs."""

    dim: int
    domain_items: tuple[tuple[int, TropicalDomain], ...]
    pairs: tuple[MatchedPair, ...]

    @property
    def domain_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.domain_items)

    def domain(self, domain_id: int) -> TropicalDomain:
        for i, dom in self.domain_items:
            if i == domain_id:
                return dom
        raise KeyError(f"no domain {domain_id}")

    def face_vector(self, face: FaceRef) -> Vector:
        dom = self.domain(face[0])
        return dom.fan.vectors[dom.fan.index_of_label(face[1])]


@dataclass(frozen=True)
class MatchResult:
    ok: bool
    reason: str | None
    correspondence: dict[FaceRef, FaceRef] | None


@dataclass(frozen=True)
class ObstructionResult:
    obstructed: bool
    reason: str | None
    witnesses: tuple[MatchedPair, ...]


@dataclass(frozen=True)
class WeldResult:
    spec: WeldingSpec
    added: tuple[MatchedPair, ...]


def make_welding_spec(
    domains: Mapping[int, Fan | TropicalDomain],
    pairs: Sequence[MatchedPair],
) -> WeldingSpec:
    """Validate and assemble a welding specification.

    Domains are validated fans; every pair must reference existing
    free faces and be a matched pair.
    """
    items: list[tuple[int, TropicalDomain]] = []
    built: dict[Fan, TropicalDomain] = {}
    for domain_id in sorted(domains):
        if not isinstance(domain_id, int) or domain_id < 1:
            raise GeometryError(f"domain ids must be positive integers, got {domain_id!r}")
        dom = domains[domain_id]
        if isinstance(dom, Fan):
            if dom not in built:
                built[dom] = build_domain(dom)
            dom = built[dom]
        items.append((domain_id, dom))
    dims = {dom.fan.dim for _, dom in items}
    if len(dims) > 1:
        raise DimensionMismatchError(f"domains of mixed dimensions {sorted(dims)}")
    dim = dims.pop() if dims else 2
    spec = WeldingSpec(dim=dim, domain_items=tuple(items), pairs=())
    for pair in pairs:
        spec = _append_pair(spec, pair)
    return spec


def _append_pair(spec: WeldingSpec, pair: MatchedPair) -> WeldingSpec:
    _require_free_matched(spec, pair)
    return replace(spec, pairs=spec.pairs + (pair,))


def is_matched_pair(spec: WeldingSpec, pair: MatchedPair) -> MatchResult:
    """Check the matching conditions and build the face correspondence.

    The correspondence maps every face adjacent to the welded ray on
    the left side to the face of the same adjacent vector on the
    right side.
    """
    for face in pair.faces():
        try:
            dom = spec.domain(face[0])
        except KeyError:
            return MatchResult(False, f"unknown domain {face[0]}", None)
        if face[1] not in dom.fan.labels:
            return MatchResult(False, f"domain {face[0]} has no ray {face[1]!r}", None)
    if pair.left[0] == pair.right[0]:
        return MatchResult(False, "both faces belong to the same domain", None)
    v_left = spec.face_vector(pair.left)
    v_right = spec.face_vector(pair.right)
    if v_left != v_right:
        return MatchResult(
            False,
            f"face vectors differ: {tuple(map(str, v_left))} vs {tuple(map(str, v_right))}",
            None,
        )
    left_dom = spec.domain(pair.left[0])
    right_dom = spec.domain(pair.right[0])
    star_left = star(left_dom.fan, v_left)
    star_right = star(right_dom.fan, v_right)
    if star_left != star_right:
        return MatchResult(False, "the stars of the welded ray differ", None)
    correspondence: dict[FaceRef, FaceRef] = {}
    adjacent = set().union(*star_left) - {v_left} if star_left else set()
    for w in adjacent:
        l_label = left_dom.fan.labels[left_dom.fan.index_of_vector(w)]
        r_label = right_dom.fan.labels[right_dom.fan.index_of_vector(w)]
        correspondence[(pair.left[0], l_label)] = (pair.right[0], r_label)
    return MatchResult(True, None, correspondence)


# ------------------------------------------------------- quadrant chains


def _weld_maps(pairs: Sequence[MatchedPair]):
    face_to_face: dict[FaceRef, FaceRef] = {}
    face_to_pair: dict[FaceRef, MatchedPair] = {}
    for p in pairs:
        face_to_face[p.left] = p.right
        face_to_face[p.right] = p.left
        face_to_pair[p.left] = p
        face_to_pair[p.right] = p
    return face_to_face, face_to_pair


def _other_label(corner: frozenset[str], label: str) -> str:
    (other,) = corner - {label}
    return other


@dataclass
class _Chain:
    quads: list[Quadrant]
    links: list[MatchedPair]
    closed: bool
    end_face: FaceRef | None  # free face at the far end (open chains)


def _walk(spec: WeldingSpec, pairs: Sequence[MatchedPair], start: Quadrant, exit_label: str) -> _Chain:
    """Follow welds from ``start`` leaving through ``exit_label``."""
    face_to_face, face_to_pair = _weld_maps(pairs)
    quads = [start]
    links: list[MatchedPair] = []
    current = start
    label = exit_label
    while True:
        face = (current[0], label)
        partner = face_to_face.get(face)
        if partner is None:
            return _Chain(quads, links, closed=False, end_face=face)
        links.append(face_to_pair[face])
        other = _other_label(current[1], label)
        other_vec = spec.face_vector((current[0], other))
        d2 = partner[0]
        dom2 = spec.domain(d2)
        lab2_other = dom2.fan.labels[dom2.fan.index_of_vector(other_vec)]
        nxt: Quadrant = (d2, frozenset({partner[1], lab2_other}))
        if nxt == start:
            return _Chain(quads, links, closed=True, end_face=None)
        quads.append(nxt)
        current = nxt
        label = lab2_other


def _corner_positions(
    spec: WeldingSpec, pair: MatchedPair
) -> list[tuple[Quadrant, str, Quadrant, str, tuple[Vector, Vector]]]:
    """Quadrants at each 2-cone of the welded ray, with their exit faces.

    The exit face of a quadrant is the one *not* being welded: chains
    of already-welded quadrants extend through it.
    """
    v = spec.face_vector(pair.left)
    left_dom = spec.domain(pair.left[0])
    right_dom = spec.domain(pair.right[0])
    out = []
    for cone in sorted(star(left_dom.fan, v), key=sorted):
        if len(cone) != 2:
            continue
        (w,) = set(cone) - {v}
        l_w = left_dom.fan.labels[left_dom.fan.index_of_vector(w)]
        r_w = right_dom.fan.labels[right_dom.fan.index_of_vector(w)]
        ql: Quadrant = (pair.left[0], frozenset({pair.left[1], l_w}))
        qr: Quadrant = (pair.right[0], frozenset({pair.right[1], r_w}))
        out.append((ql, l_w, qr, r_w, (v, w)))
    return out


def _require_free_matched(spec: WeldingSpec, pair: MatchedPair) -> None:
    result = is_matched_pair(spec, pair)
    if not result.ok:
        raise NotMatchedError(f"pair {pair.describe()}: {result.reason}")
    used = {f for p in spec.pairs for f in p.faces()}
    for face in pair.faces():
        if face in used:
            raise FaceInUseError(f"face {face[0]}.{face[1]} is already welded")


def is_locally_obstructed(spec: WeldingSpec, pair: MatchedPair) -> ObstructionResult:
    """Whether welding ``pair`` would break a corner of the space.

    The weld is obstructed when, at some shared corner position, it
    would close a quadrant cycle of length other than four or chain
    more than four quadrants together.
    """
    _require_free_matched(spec, pair)
    for ql, exit_l, qr, exit_r, (v, w) in _corner_positions(spec, pair):
        corner_name = f"corner {{{tuple(map(str, v))}, {tuple(map(str, w))}}}"
        chain_l = _walk(spec, spec.pairs, ql, exit_l)
        if qr in chain_l.quads:
            length = len(chain_l.quads)
            if length != 4:
                return ObstructionResult(
                    True,
                    f"welding closes a {length}-quadrant cycle at {corner_name}",
                    tuple(chain_l.links),
                )
            continue
        chain_r = _walk(spec, spec.pairs, qr, exit_r)
        total = len(chain_l.quads) + len(chain_r.quads)
        if total > 4:
            return ObstructionResult(
                True,
                f"welding gathers {total} quadrants at {corner_name}",
                tuple(chain_l.links + chain_r.links),
            )
    return ObstructionResult(False, None, ())


def coerced_pairs(spec: WeldingSpec, pair: MatchedPair) -> tuple[MatchedPair, ...]:
    """Pairs forced by welding ``pair``: corners filled to exactly four.

    Requires the pair to be unobstructed.
    """
    result = is_locally_obstructed(spec, pair)
    if result.obstructed:
        raise WeldingError(f"pair {pair.describe()} is obstructed: {result.reason}")
    coerced: list[MatchedPair] = []
    seen: set[frozenset[FaceRef]] = set()
    for ql, exit_l, qr, exit_r, _ in _corner_positions(spec, pair):
        chain_l = _walk(spec, spec.pairs, ql, exit_l)
        if qr in chain_l.quads:
            continue  # the new weld itself closes this corner
        chain_r = _walk(spec, spec.pairs, qr, exit_r)
        if len(chain_l.quads) + len(chain_r.quads) != 4:
            continue
        assert chain_l.end_face is not None and chain_r.end_face is not None
        faces = sorted((chain_l.end_face, chain_r.end_face))
        forced = MatchedPair(faces[0], faces[1])
        if forced.key() not in seen:
            seen.add(forced.key())
            coerced.append(forced)
    return tuple(sorted(coerced, key=lambda p: sorted(p.faces())))


def weld_pair(spec: WeldingSpec, pair: MatchedPair) -> WeldResult:
    """Weld a pair and everything it transitively coerces.

    Returns a new spec (the input is never modified) and the pairs
    added, in welding order.  Raises ``GloballyObstructedError`` when
    any pair in the closure is obstructed or unmatched.
    """
    _require_free_matched(spec, pair)
    current = spec
    queue: list[MatchedPair] = [pair]
    added: list[MatchedPair] = []
    while queue:
        item = queue.pop(0)
        if item.key() in {p.key() for p in current.pairs}:
            continue
        match = is_matched_pair(current, item)
        if not match.ok:
            raise GloballyObstructedError(
                f"coerced pair {item.describe()} is not matched: {match.reason}",
                pair,
                item,
                (),
            )
        obstruction = is_locally_obstructed(current, item)
        if obstruction.obstructed:
            raise GloballyObstructedError(
                f"pair {item.describe()} is obstructed: {obstruction.reason}",
                pair,
                item,
                obstruction.witnesses,
            )
        queue.extend(coerced_pairs(current, item))
        current = replace(current, pairs=current.pairs + (item,))
        added.append(item)
    return WeldResult(current, tuple(added))


# ------------------------------------------------------- space assembly


@dataclass(frozen=True)
class EdgeStratum:
    """A codimension-1 stratum of the welded space."""

    label: str
    kind: str  # "welded" | "boundary"
    faces: tuple[FaceRef, ...]
    residue: Vector
    domain_ids: tuple[int, ...]
    tail: str | None  # cluster id at the coordinate -infinity end
    head: str | None  # cluster id at the coordinate +infinity end


@dataclass(frozen=True)
class CornerCluster:
    """Quadrants chained at one codimension-2 position."""

    cluster_id: str
    position: frozenset[Vector]
    quadrants: tuple[Quadrant, ...]
    closed: bool
    links: tuple[MatchedPair, ...]


@dataclass(frozen=True)
class DivisorComponent:
    """A connected union of welded edges with a common residue."""

    label: str
    edge_labels: tuple[str, ...]
    residue: Vector
    closed: bool


@dataclass(frozen=True)
class WeldedSpace:
    """The result of welding: strata, corners, divisor, orientation."""

    spec: WeldingSpec
    dim: int
    pairs: tuple[MatchedPair, ...]
    edges: tuple[EdgeStratum, ...]
    clusters: tuple[CornerCluster, ...]
    divisor_components: tuple[DivisorComponent, ...]
    orientable: bool
    domain_signs: dict[int, int] | None
    compact: bool | None

    @property
    def domain_ids(self) -> tuple[int, ...]:
        return self.spec.domain_ids

    def domain(self, domain_id: int) -> TropicalDomain:
        return self.spec.domain(domain_id)

    @property
    def crossings(self) -> tuple[CornerCluster, ...]:
        return tuple(c for c in self.clusters if c.closed)

    @property
    def boundary_corners(self) -> tuple[CornerCluster, ...]:
        return tuple(c for c in self.clusters if not c.closed)

    @property
    def has_boundary(self) -> bool:
        return any(e.kind == "boundary" for e in self.edges)

    def edge(self, label: str) -> EdgeStratum:
        for e in self.edges:
            if e.label == label:
                return e
        raise KeyError(f"no edge {label!r}")


class UnionFind:
    """Disjoint sets over a fixed collection of hashable items."""

    def __init__(self, items: Iterable) -> None:
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> None:
        self.parent[self.find(x)] = self.find(y)


def two_colour(nodes: Iterable, edges: Iterable[tuple]) -> dict | None:
    """Signs +1/-1 on ``nodes`` such that every edge joins opposite signs.

    The first node of each connected component gets +1.  Returns None
    when the multigraph is not bipartite (an odd cycle or a loop).
    """
    adjacency: dict = {node: [] for node in nodes}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    signs: dict = {}
    for root in adjacency:
        if root in signs:
            continue
        signs[root] = 1
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in signs:
                    signs[neighbor] = -signs[node]
                    frontier.append(neighbor)
                elif signs[neighbor] == signs[node]:
                    return None
    return signs


def build_welded_space(spec: WeldingSpec) -> WeldedSpace:
    """Weld every listed pair (in order) and assemble the strata.

    A listed pair that an earlier closure already coerced is skipped,
    keeping its label.
    """
    current = replace(spec, pairs=())
    labels: dict[frozenset[FaceRef], str | None] = {}
    order: list[frozenset[FaceRef]] = []
    for pair in spec.pairs:
        existing = {p.key() for p in current.pairs}
        if pair.key() in existing:
            labels[pair.key()] = pair.label or labels[pair.key()]
            continue
        result = weld_pair(current, pair)
        current = result.spec
        for p in result.added:
            labels[p.key()] = p.label
            order.append(p.key())
    auto = 0
    final_pairs: list[MatchedPair] = []
    for key in order:
        faces = sorted(key)
        label = labels[key]
        if label is None:
            auto += 1
            label = f"auto{auto}"
        final_pairs.append(MatchedPair(faces[0], faces[1], label=label))
    current = replace(current, pairs=tuple(final_pairs))
    return _assemble(current)


def _assemble(spec: WeldingSpec) -> WeldedSpace:
    pairs = spec.pairs
    face_to_face, face_to_pair = _weld_maps(pairs)
    pair_label = {p.key(): p.label for p in pairs}

    # --- corner clusters (dimension 2 only)
    clusters: list[CornerCluster] = []
    cluster_of_quadrant: dict[Quadrant, str] = {}
    if spec.dim == 2:
        all_quads: list[Quadrant] = []
        for domain_id, dom in spec.domain_items:
            for cone in sorted(dom.fan.two_cones(), key=sorted):
                quad_labels = frozenset(dom.fan.labels[i] for i in cone)
                all_quads.append((domain_id, quad_labels))
        visited: set[Quadrant] = set()
        for quad in all_quads:
            if quad in visited:
                continue
            l1, l2 = sorted(quad[1])
            forward = _walk(spec, pairs, quad, l1)
            if forward.closed:
                members = forward.quads
                links = forward.links
                closed = True
            else:
                backward = _walk(spec, pairs, quad, l2)
                members = list(reversed(backward.quads[1:])) + forward.quads
                links = list(reversed(backward.links)) + forward.links
                closed = False
            visited.update(members)
            if closed and len(members) != 4:
                raise GeometryError(
                    f"corner cycle of length {len(members)} at quadrant {quad}"
                )
            if not closed and len(members) > 3:
                raise GeometryError(
                    f"unresolved corner chain of length {len(members)} at quadrant {quad}"
                )
            dom = spec.domain(quad[0])
            position = frozenset(
                dom.fan.vectors[dom.fan.index_of_label(lab)] for lab in quad[1]
            )
            clusters.append(
                CornerCluster(
                    cluster_id="",
                    position=position,
                    quadrants=tuple(members),
                    closed=closed,
                    links=tuple(links),
                )
            )
        clusters.sort(key=lambda c: min((q[0], sorted(q[1])) for q in c.quadrants))
        clusters = [
            replace(c, cluster_id=f"c{k + 1}") for k, c in enumerate(clusters)
        ]
        for c in clusters:
            for q in c.quadrants:
                cluster_of_quadrant[q] = c.cluster_id

    # --- edge strata
    def ends(fan: Fan, face: FaceRef, v: Vector) -> tuple[str | None, str | None]:
        """The clusters at the tail and head of the stratum of ``face``."""
        tail = head = None
        if spec.dim == 2:
            for cone in star(fan, v):
                if len(cone) != 2:
                    continue
                (w,) = set(cone) - {v}
                l_w = fan.labels[fan.index_of_vector(w)]
                cid = cluster_of_quadrant[(face[0], frozenset({face[1], l_w}))]
                if cross2(v, w) > 0:
                    tail = cid
                else:
                    head = cid
        return tail, head

    edges: list[EdgeStratum] = []
    for p in pairs:
        v = spec.face_vector(p.left)
        tail, head = ends(spec.domain(p.left[0]).fan, p.left, v)
        edges.append(
            EdgeStratum(
                label=pair_label[p.key()] or p.describe(),
                kind="welded",
                faces=tuple(sorted(p.faces())),
                residue=v,
                domain_ids=tuple(sorted({p.left[0], p.right[0]})),
                tail=tail,
                head=head,
            )
        )
    for domain_id, dom in spec.domain_items:
        for idx, label in enumerate(dom.fan.labels):
            face = (domain_id, label)
            if face in face_to_face:
                continue
            v = dom.fan.vectors[idx]
            tail, head = ends(dom.fan, face, v)
            edges.append(
                EdgeStratum(
                    label=f"{domain_id}.{label}",
                    kind="boundary",
                    faces=(face,),
                    residue=v,
                    domain_ids=(domain_id,),
                    tail=tail,
                    head=head,
                )
            )

    # --- divisor components: welded edges joined at crossings
    welded_labels = [e.label for e in edges if e.kind == "welded"]
    uf = UnionFind(welded_labels)
    join_count: dict[str, int] = {lab: 0 for lab in welded_labels}
    for cluster in clusters:
        if not cluster.closed:
            continue
        by_residue: dict[Vector, list[str]] = {}
        quads = list(cluster.quadrants)
        n = len(quads)
        for i in range(n):
            a, b = quads[i], quads[(i + 1) % n]
            shared = [
                p
                for p in cluster.links
                if {p.left[0], p.right[0]} == {a[0], b[0]}
                and p.left[1] in (a[1] | b[1])
            ]
            link = shared[0]
            by_residue.setdefault(spec.face_vector(link.left), []).append(
                pair_label[link.key()]
            )
        for residue_vec, labs in by_residue.items():
            assert len(labs) == 2, (residue_vec, labs)
            uf.union(labs[0], labs[1])
            join_count[labs[0]] += 1
            join_count[labs[1]] += 1

    groups: dict[str, list[str]] = {}
    for lab in welded_labels:
        groups.setdefault(uf.find(lab), []).append(lab)
    components: list[DivisorComponent] = []
    for k, (root, labs) in enumerate(
        sorted(groups.items(), key=lambda kv: welded_labels.index(kv[1][0]))
    ):
        member_edges = [e for e in edges if e.label in labs]
        arcs = sum(join_count[lab] for lab in labs) // 2
        components.append(
            DivisorComponent(
                label=f"D{k + 1}",
                edge_labels=tuple(labs),
                residue=member_edges[0].residue,
                closed=(arcs == len(labs)),
            )
        )

    signs = two_colour(spec.domain_ids, ((p.left[0], p.right[0]) for p in pairs))
    compact: bool | None
    if spec.dim <= 2:
        compact = all(is_complete(dom.fan) for _, dom in spec.domain_items)
    else:
        compact = None
    return WeldedSpace(
        spec=spec,
        dim=spec.dim,
        pairs=pairs,
        edges=tuple(edges),
        clusters=tuple(clusters),
        divisor_components=tuple(components),
        orientable=signs is not None,
        domain_signs=signs,
        compact=compact,
    )
