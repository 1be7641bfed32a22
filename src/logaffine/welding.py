"""Welding tropical domains along matched codimension-1 faces.

A domain is held as its validated ``Fan``, whose cones are its strata.
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

The weld runs on integer face ids: a spec numbers each face once, as
its domain's offset plus its ray index (``WeldingSpec._faces``), and
each ray of each ``Fan`` object once (its fan-ray id).  ``_resolve``
reads a listed pair's labels once; labels and ``MatchedPair`` appear
again only in fields, messages and witnesses.  One weld index
(``_WeldIndex``) serves every closure and the assembly: lists, by face
id, of the partner face, the pair and the ray-index map across a weld.
A face is welded at most once, so a pair is welded exactly when its
faces are each other's partners.  A closure runs a queue of face-id
pairs, each getting one match check and one pass over its corners,
which yields both the obstruction verdict and the pairs it coerces,
so welding takes near-linear time in the number of welds.  A walk's
state is the face it leaves by and the quadrant's other face: a step
reads the exit face's partner, maps the other face's ray across that
weld and swaps the two, so no step hashes.

Matching is derived once per fan-ray pair: ``_match_rays`` pairs the
two rays' neighbours (``Fan.corner_neighbours``, sorted by vector) by
position, the stars agree when each position holds equal vectors and
the pairing maps the cones about one ray onto those about the other,
and the ray-index maps (left to right and back) are that pairing.  A
spec memoizes them by fan-ray ids: a grid of one fan compares rays
once per distinct pair of labels.

The assembly reads the strata through one table per ``Fan`` object,
not per domain, so it hashes a fan's Fractions a fixed number of times
whatever the number of domains: the quadrants in sorted-label order
with their rays, positions and label sets (keyed by fan-ray ids), and
per fan-ray id its vector and the rays of its tail and head quadrants
(``Fan.turns``).  Quadrants are visited in (domain id, sorted labels)
order, so each corner cluster is numbered when its least quadrant is
met, and keyed by its quadrants' face ids.  A crossing's closed walk
alternates the corner's two rays, so it joins the pair of link i to
that of link i + 2; ``connected_runs`` gathers the joined pair indices
into divisor components, read out as labels at the end.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    FaceInUseError,
    GeometryError,
    GloballyObstructedError,
    InvalidFanError,
    NotMatchedError,
    WeldingError,
)
from .fans import Fan, is_complete, validate_fan
from .rational import Vector

FaceRef = tuple[int, str]
Quadrant = tuple[int, frozenset[str]]
RayMap = dict[int, int]
Match = tuple[str | None, RayMap | None, RayMap | None]  # a reason, else the ray maps


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
    """Domains (validated fans) by id plus an ordered list of welded pairs."""

    dim: int
    domain_items: tuple[tuple[int, Fan], ...]
    pairs: tuple[MatchedPair, ...]

    @property
    def domain_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.domain_items)

    def fan(self, domain_id: int) -> Fan:
        try:
            return self._fans[domain_id]
        except KeyError:
            raise KeyError(f"no domain {domain_id}") from None

    @cached_property
    def _fans(self) -> dict[int, Fan]:
        return dict(self.domain_items)

    @cached_property
    def _faces(self) -> tuple[dict[int, int], list[int], list[int], list[int]]:
        """Face ids: each domain's offset; per face, its domain, the domain's
        offset and its fan-ray id, the same ray's face in the fan's first domain."""
        offsets, doms, base, kinds, first = {}, [], [], [], {}
        for domain_id, fan in self.domain_items:
            offsets[domain_id] = offset = len(doms)
            k = first.setdefault(id(fan), offset)
            doms += [domain_id] * len(fan.labels)
            base += [offset] * len(fan.labels)
            kinds += range(k, k + len(fan.labels))
        return offsets, doms, base, kinds

    @cached_property
    def _listed(self) -> list[tuple]:
        """``_resolve`` of each listed pair: parsing and welding read each once."""
        return [_resolve(self, pair) for pair in self.pairs]

    @cached_property
    def _matches(self) -> dict[tuple[int, int], tuple]:
        """``_match``'s memo: reasons and ray-index maps both ways per fan-ray pair."""
        return {}

    def __getstate__(self) -> dict:
        # a copy numbers its faces and compares its rays afresh: no cache
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


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


def make_welding_spec(domains: Mapping[int, Fan], pairs: Sequence[MatchedPair]) -> WeldingSpec:
    """Validate and assemble a welding specification.

    Each distinct fan is validated once (``InvalidFanError``) and equal
    fans become one object; every pair must reference existing free
    faces and be a matched pair.
    """
    items: list[tuple[int, Fan]] = []
    # a frozen Fan hashes every Fraction of its vectors on each lookup,
    # so each Fan object is looked up by value once, then by identity
    validated: dict[Fan, Fan] = {}
    by_identity: dict[int, Fan] = {}
    for domain_id in sorted(domains):
        if not isinstance(domain_id, int) or domain_id < 1:
            raise GeometryError(f"domain ids must be positive integers, got {domain_id!r}")
        fan = domains[domain_id]
        shared = by_identity.get(id(fan))
        if shared is None:
            shared = by_identity[id(fan)] = validated.setdefault(fan, fan)
            if shared is fan:  # the first of its value
                report = validate_fan(fan)
                if not report.ok:
                    raise InvalidFanError(list(report.violations))
        items.append((domain_id, shared))
    dims = {fan.dim for _, fan in items}
    if len(dims) > 1:
        raise DimensionMismatchError(f"domains of mixed dimensions {sorted(dims)}")
    dim = dims.pop() if dims else 2
    spec = WeldingSpec(dim=dim, domain_items=tuple(items), pairs=tuple(pairs))
    holder: dict[FaceRef, MatchedPair] = {}  # the listed pairs are welded later
    for pair, (reason, *_) in zip(spec.pairs, spec._listed):
        if reason is not None:
            raise NotMatchedError(f"pair {pair.describe()}: {reason}")
        for face in (pair.left, pair.right):
            if face in holder:
                raise _in_use(face, holder[face])
        holder[pair.left] = holder[pair.right] = pair
    return spec


def is_matched_pair(spec: WeldingSpec, pair: MatchedPair) -> MatchResult:
    """Check the matching conditions and build the face correspondence.

    The correspondence maps every face adjacent to the welded ray on
    the left side to the face of the same adjacent vector on the
    right side.
    """
    reason, _, _, forward, _ = _resolve(spec, pair)
    if forward is None:
        return MatchResult(False, reason, None)
    (left, _), (right, _) = pair.faces()
    at_l, at_r = spec._fans[left].labels, spec._fans[right].labels
    return MatchResult(True, None, {(left, at_l[i]): (right, at_r[j]) for i, j in forward.items()})


def _resolve(spec: WeldingSpec, pair: MatchedPair) -> tuple:
    """Whether ``pair`` is matched, as ``_match`` (reason, maps), with the
    ids of its left and right faces after the reason (None where unknown)."""
    offsets, ids = spec._faces[0], []
    for domain_id, label in (pair.left, pair.right):
        fan = spec._fans.get(domain_id)
        if fan is None:
            return f"unknown domain {domain_id}", None, None, None, None
        if label not in fan._label_index:
            return f"domain {domain_id} has no ray {label!r}", None, None, None, None
        ids.append(offsets[domain_id] + fan._label_index[label])
    reason, forward, backward = _match(spec, *ids)
    return reason, *ids, forward, backward


def _match(spec: WeldingSpec, f: int, g: int) -> Match:
    """Whether faces ``f`` and ``g`` form a matched pair: the reason they do
    not (else None) and the map from the ray indices of ``f``'s domain around
    the welded ray to ``g``'s and its inverse (else None twice).  The domains
    are checked on every call, the rays once per fan-ray pair (``_match_rays``);
    the maps are shared: do not modify them."""
    _, doms, base, kinds = spec._faces
    if base[f] == base[g]:
        return "both faces belong to the same domain", None, None
    key = (kinds[f], kinds[g])
    found = spec._matches.get(key)
    if found is None:
        left, right = spec._fans[doms[f]], spec._fans[doms[g]]
        found = spec._matches[key] = _match_rays(left, f - base[f], right, g - base[g])
    return found


def _match_rays(left: Fan, i: int, right: Fan, j: int) -> Match:
    """Whether ray ``i`` of ``left`` matches ray ``j`` of ``right``, as ``_match``."""
    v_left, v_right = left.vectors[i], right.vectors[j]
    if v_left != v_right:
        reason = f"face vectors differ: {tuple(map(str, v_left))} vs {tuple(map(str, v_right))}"
        return reason, None, None
    # Cones are closed under subsets, so every ray sharing a cone with the
    # welded one is a corner neighbour of it.  Both lists sort by vector and
    # a fan's vectors are distinct, so equal stars pair the neighbours
    # position by position.  Conversely, equal vectors in each position and
    # cones about the welded ray that the pairing maps onto each other (a
    # missing 3-cone in dimension 3 shows only there) make the stars equal.
    ks, ls = left.corner_neighbours[i], right.corner_neighbours[j]
    to_right = dict(zip((i, *ks), (j, *ls)))
    if any(left.vectors[k] != right.vectors[m] for k, m in zip(ks, ls)) or {
        frozenset(map(to_right.get, c)) for c in left.cones if i in c
    } != {c for c in right.cones if j in c}:
        return "the stars of the welded ray differ", None, None
    return None, dict(zip(ks, ls)), dict(zip(ls, ks))


def _in_use(face: FaceRef, holder: MatchedPair) -> FaceInUseError:
    message = f"face {face[0]}.{face[1]} is already welded in {holder.describe()}"
    return FaceInUseError(message, face, holder)


# ------------------------------------------------------- quadrant chains


class _WeldIndex:
    """The welds made so far over the domains of ``spec``, as lists by
    face id (``WeldingSpec._faces``).

    A new index holds no welds, whatever ``spec.pairs`` lists; ``add``
    records one matched pair.  ``partner`` and ``holder`` give a welded
    face the face across its weld and its pair (None if free), and
    ``across`` the map of its domain's ray indices to the partner's (from
    ``_match``), so a chain steps over a weld with three list reads.
    Nothing is undone when a check raises: a caller drops the index.
    """

    def __init__(self, spec: WeldingSpec) -> None:
        self.spec = spec
        _, self.doms, self.base, _ = spec._faces
        n = len(self.doms)
        self.partner: list[int | None] = [None] * n
        self.holder: list[MatchedPair | None] = [None] * n
        self.across: list[RayMap | None] = [None] * n

    @classmethod
    def of(cls, spec: WeldingSpec) -> _WeldIndex:
        """The index of ``spec.pairs``, matched as ``make_welding_spec`` checks."""
        index = cls(spec)
        for pair, resolved in zip(spec.pairs, spec._listed):
            index.add(pair, *resolved[1:])
        return index

    def add(self, pair: MatchedPair, f: int, g: int, forward: RayMap, backward: RayMap) -> None:
        """Weld ``pair``, of faces ``f`` (left) and ``g``, whose rays around
        ``f`` ``forward`` maps to those around ``g`` and ``backward`` back."""
        self.partner[f], self.partner[g] = g, f
        self.holder[f] = self.holder[g] = pair
        self.across[f], self.across[g] = forward, backward

    def require_free(self, f: int, g: int) -> None:
        for face in (f, g):
            holder = self.holder[face]
            if holder is not None:
                raise _in_use(self.ref(face), holder)

    def ref(self, f: int) -> FaceRef:
        return self.doms[f], self.spec._fans[self.doms[f]].labels[f - self.base[f]]

    def require_free_matched(self, pair: MatchedPair) -> tuple[int, int, RayMap, RayMap]:
        """The face ids and ray maps of ``pair``, which must be matched and free."""
        reason, f, g, forward, backward = _resolve(self.spec, pair)
        if reason is not None:
            raise NotMatchedError(f"pair {pair.describe()}: {reason}")
        self.require_free(f, g)
        return f, g, forward, backward

    def walk(self, exit_face: int, other_face: int) -> tuple[list, int | None]:
        """Follow welds out of ``exit_face`` from its quadrant with
        ``other_face``: the quadrants met as (exit face, other face) and the
        free face at the far end (None when the chain closes on its start)."""
        x, y = start = (exit_face, other_face)
        quads = [start]
        partner, across, base = self.partner, self.across, self.base
        while True:
            p = partner[x]
            if p is None:
                return quads, x
            # the face entered is the next quadrant's other face; a chain
            # enters no quadrant by the face it was left by, so a closed one
            # comes back to its start in the same face order
            quad = x, y = base[p] + across[x][y - base[x]], p
            if quad == start:
                return quads, None
            quads.append(quad)

    def links(self, quads: list) -> list[MatchedPair]:
        """The pairs a walk over ``quads`` crossed, in walk order."""
        return [self.holder[x] for x, _ in quads if self.partner[x] is not None]

    def corners(self, f: int, g: int, forward: RayMap) -> tuple[ObstructionResult, list]:
        """One pass over the corners of the matched, free faces ``f`` and
        ``g``, whose rays around ``f`` ``forward`` maps to those around ``g``.

        At each 2-cone of the welded ray the chains through the two
        quadrants leave by the face *not* being welded.  Welding is
        obstructed when it would close a cycle of length other than four
        or chain more than four quadrants; two chains of four quadrants in
        all coerce their free end faces.  Returns the verdict and, when
        unobstructed, the coerced face-id pairs in (domain id, label) order.
        """
        base_f, base_g = self.base[f], self.base[g]
        fan, ray = self.spec._fans[self.doms[f]], f - base_f
        coerced: dict[tuple[FaceRef, FaceRef], tuple[int, int]] = {}
        walk = self.walk
        for j in fan.corner_neighbours[ray]:
            w_f, w_g = base_f + j, base_g + forward[j]
            quads_f, end_f = walk(w_f, f)
            # the chain meets g's quadrant iff it ends at g: no walk enters
            # the free face g; a walk keeps its quadrant's two vectors, and
            # a fan's are distinct, so a quadrant of g on it is {g, w_g}
            if end_f == g:
                if len(quads_f) != 4:
                    reason = f"welding closes a {len(quads_f)}-quadrant cycle at"
                    return _obstructed(reason, fan, ray, j, self.links(quads_f)), []
                continue  # the new weld itself closes this corner
            quads_g, end_g = walk(w_g, g)
            total = len(quads_f) + len(quads_g)
            if total > 4:
                reason = f"welding gathers {total} quadrants at"
                links = self.links(quads_f) + self.links(quads_g)
                return _obstructed(reason, fan, ray, j, links), []
            if total == 4:
                a, b = self.ref(end_f), self.ref(end_g)
                key, ends = ((a, b), (end_f, end_g)) if a < b else ((b, a), (end_g, end_f))
                coerced.setdefault(key, ends)
        return _UNOBSTRUCTED, [coerced[k] for k in sorted(coerced)]


_UNOBSTRUCTED = ObstructionResult(False, None, ())


def _obstructed(reason: str, fan: Fan, ray: int, other: int, links: list) -> ObstructionResult:
    v, w = fan.vectors[ray], fan.vectors[other]
    corner_name = f"corner {{{tuple(map(str, v))}, {tuple(map(str, w))}}}"
    return ObstructionResult(True, f"{reason} {corner_name}", tuple(links))


def is_locally_obstructed(spec: WeldingSpec, pair: MatchedPair) -> ObstructionResult:
    """Whether welding ``pair`` would break a corner of the space.

    The weld is obstructed when, at some shared corner position, it
    would close a quadrant cycle of length other than four or chain
    more than four quadrants together.
    """
    index = _WeldIndex.of(spec)
    return index.corners(*index.require_free_matched(pair)[:3])[0]


def coerced_pairs(spec: WeldingSpec, pair: MatchedPair) -> tuple[MatchedPair, ...]:
    """Pairs forced by welding ``pair``: corners filled to exactly four.

    Requires the pair to be unobstructed.
    """
    index = _WeldIndex.of(spec)
    result, coerced = index.corners(*index.require_free_matched(pair)[:3])
    if result.obstructed:
        raise WeldingError(f"pair {pair.describe()} is obstructed: {result.reason}")
    return tuple(MatchedPair(index.ref(a), index.ref(b)) for a, b in coerced)


def weld_pair(spec: WeldingSpec, pair: MatchedPair) -> WeldResult:
    """Weld a pair and everything it transitively coerces.

    Returns a new spec (the input is never modified) and the pairs
    added, in welding order.  Raises ``GloballyObstructedError`` when
    any pair in the closure is obstructed or unmatched.
    """
    index = _WeldIndex.of(spec)
    welded = _weld_closure(index, pair, *index.require_free_matched(pair))
    added = tuple(index.holder[f] for f in welded)
    return WeldResult(replace(spec, pairs=spec.pairs + added), added)


def _weld_closure(
    index: _WeldIndex, pair: MatchedPair, f: int, g: int, forward: RayMap, backward: RayMap
) -> list[int]:
    """Weld the matched ``pair`` of faces ``f`` and ``g`` (maps as ``add``)
    and its coercion closure into ``index``; returns one face id of each
    pair welded, in queue order.  Each queued pair gets one match check and
    one pass over its corners; a coerced pair already welded is skipped."""
    queue = deque([(f, g)])
    welded: list[int] = []
    partner = index.partner
    while queue:
        a, b = queue.popleft()
        if not welded:
            item = pair
        elif partner[a] == b:
            continue
        else:
            item = MatchedPair(index.ref(a), index.ref(b))
            reason, forward, backward = _match(index.spec, a, b)
            if forward is None:
                message = f"coerced pair {item.describe()} is not matched: {reason}"
                raise GloballyObstructedError(message, pair, item, ())
        index.require_free(a, b)
        obstruction, coerced = index.corners(a, b, forward)
        if obstruction.obstructed:
            message = f"pair {item.describe()} is obstructed: {obstruction.reason}"
            raise GloballyObstructedError(message, pair, item, obstruction.witnesses)
        queue.extend(coerced)
        index.add(item, a, b, forward, backward)
        welded.append(a)
    return welded


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

    def fan(self, domain_id: int) -> Fan:
        return self.spec.fan(domain_id)

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
        try:
            return self._edges[label]
        except KeyError:
            raise KeyError(f"no edge {label!r}") from None

    @cached_property
    def _edges(self) -> dict[str, EdgeStratum]:
        edges: dict[str, EdgeStratum] = {}
        for e in self.edges:
            edges.setdefault(e.label, e)
        return edges


def connected_runs(items: Iterable, joins: Iterable[tuple]) -> list[tuple[tuple, bool]]:
    """The connected runs of ``items`` under ``joins``, in the order of each
    run's first item and each in item order, with a closed flag: the run
    holds as many joins as items (a path of n items holds n - 1).
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = list(joins)
    for a, b in joins:
        parent[find(a)] = find(b)
    runs: dict = {}
    for x in parent:
        runs.setdefault(find(x), []).append(x)
    held = Counter(find(a) for a, _ in joins)
    return [(tuple(run), held[root] == len(run)) for root, run in runs.items()]


def two_colour(nodes: Iterable, joins: Iterable[tuple]) -> tuple[dict, list[bool]]:
    """Signs +1/-1 on ``nodes``, walked along the joins ``(a, b, s)``,
    each of which asks that ``b`` carry the sign of ``a`` times ``s``.

    The first node of each connected run gets +1.  Returns the signs
    and, for each run in the order of its first node, whether all its
    joins hold (a self-join with ``s = -1`` never does).
    """
    adjacency: dict = {node: [] for node in nodes}
    for a, b, s in joins:
        adjacency[a].append((b, s))
        adjacency[b].append((a, s))
    signs: dict = {}
    holds: list[bool] = []
    for root in adjacency:
        if root in signs:
            continue
        signs[root] = 1
        held = True
        frontier = [root]
        while frontier:
            node = frontier.pop()
            sign = signs[node]
            for neighbor, s in adjacency[node]:
                if neighbor not in signs:
                    signs[neighbor] = s * sign
                    frontier.append(neighbor)
                elif signs[neighbor] != s * sign:
                    held = False
        holds.append(held)
    return signs, holds


def build_welded_space(spec: WeldingSpec) -> WeldedSpace:
    """Weld every listed pair (in order) and assemble the strata.

    A listed pair that an earlier closure already coerced is not welded
    again; the coerced pair takes its label, if it has one.  One weld
    index serves every closure and the assembly.
    """
    index = _WeldIndex(spec)
    partner, holder = index.partner, index.holder
    welded: list[int] = []
    for pair, (reason, f, g, forward, backward) in zip(spec.pairs, spec._listed):
        if reason is not None:
            raise NotMatchedError(f"pair {pair.describe()}: {reason}")
        if partner[f] == g:
            if pair.label:
                holder[f] = holder[g] = pair
            continue
        welded += _weld_closure(index, pair, f, g, forward, backward)
    auto = 0
    final_pairs: list[MatchedPair] = []
    for f in welded:
        final = holder[f]
        a, b, label = final.left, final.right, final.label
        if label is None or b < a:
            if label is None:
                auto += 1
                label = f"auto{auto}"
            final = MatchedPair(a, b, label) if a < b else MatchedPair(b, a, label)
            # cluster links carry the final labels
            holder[f] = holder[partner[f]] = final
        final_pairs.append(final)
    final_spec = replace(spec, pairs=tuple(final_pairs))
    vars(final_spec)["_fans"] = spec._fans  # the same domains
    return _assemble(final_spec, index, welded)


def _assemble(spec: WeldingSpec, index: _WeldIndex, welded: list[int]) -> WeldedSpace:
    """Strata of the welds in ``index``, which holds exactly ``spec.pairs``,
    each in face order, one face of each in ``welded``; domains are read in
    id order, whatever the order of ``spec.domain_items``."""
    pairs, plane = spec.pairs, spec.dim == 2
    domains = sorted(spec.domain_items, key=lambda item: item[0])
    offsets, doms, base, kinds = index.spec._faces
    n = len(doms)
    partner, holder, walk, links_of = index.partner, index.holder, index.walk, index.links

    # --- one table per Fan object: its quadrants (sorted labels, rays in
    # that order, position) in sorted-label order; each one's label set by
    # its fan-ray ids x, y as x * n + y, in either order; and per fan-ray
    # id its vector and tail and head neighbours
    tables: dict[int, tuple[Fan, list]] = {}
    quad_labels: dict[int, frozenset[str]] = {}
    rays: dict[int, tuple] = {}
    for domain_id, fan in domains:
        if id(fan) in tables:
            continue
        labels, vectors, quads = fan.labels, fan.vectors, []
        first = kinds[offsets[domain_id]] if labels else 0  # a fan without rays has no id
        for cone in fan.two_cones() if plane else ():
            i, j = sorted(cone, key=labels.__getitem__)
            x, y = first + i, first + j
            quad_labels[x * n + y] = quad_labels[y * n + x] = frozenset((labels[i], labels[j]))
            quads.append(((labels[i], labels[j]), i, j, frozenset((vectors[i], vectors[j]))))
        tables[id(fan)] = (fan, sorted(quads))
        for i, v in enumerate(vectors):
            # a missing turn (None) names no 2-cone: no quadrant on that side
            rays[first + i] = (v, *(fan.turns[i] if plane else (None, None)))

    # --- corner clusters (dimension 2 only), met in (domain id, sorted
    # labels) order: a cluster's first quadrant met is its least; each
    # quadrant's face ids x, y key its cluster's index as x * n + y, in
    # either order.  A crossing's closed walk alternates the corner's two
    # rays, so it joins the pair of link i to that of link i + 2.
    clusters: list[CornerCluster] = []
    cluster_of, joins, pair_of = {}, [], [0] * n  # pair_of: a face's pair index
    for k, f in enumerate(welded):
        pair_of[f] = pair_of[partner[f]] = k
    for domain_id, fan in domains:
        offset = offsets[domain_id]
        for (l1, l2), i1, i2, position in tables[id(fan)][1]:
            x, y = offset + i1, offset + i2
            if x * n + y in cluster_of:
                continue
            members, end = walk(x, y)
            closed = end is None
            if closed:
                if len(members) != 4:
                    raise GeometryError(
                        f"corner cycle of length {len(members)} at "
                        f"quadrant {{{l1}, {l2}}} of domain {domain_id}"
                    )
                (x0, _), (x1, _), (x2, _), (x3, _) = members
                links = [holder[x0], holder[x1], holder[x2], holder[x3]]
                joins += ((pair_of[x0], pair_of[x2]), (pair_of[x1], pair_of[x3]))
            else:
                back, _ = walk(y, x)
                links = links_of(back)[::-1] + links_of(members)
                members = back[:0:-1] + members
                if len(members) > 3:
                    raise GeometryError(
                        f"unresolved corner chain of length {len(members)} "
                        f"at quadrant {{{l1}, {l2}}} of domain {domain_id}"
                    )
            c, quads = len(clusters), []
            for x, y in members:
                cluster_of[x * n + y] = cluster_of[y * n + x] = c
                quads.append((doms[x], quad_labels[kinds[x] * n + kinds[y]]))
            cluster = CornerCluster(f"c{c + 1}", position, tuple(quads), closed, tuple(links))
            clusters.append(cluster)

    # --- edge strata
    edges: dict[str, EdgeStratum] = {}

    def add_edge(label: str, kind: str, f: int, faces: tuple, domain_ids: tuple) -> None:
        # WeldedSpace.edge needs one edge per label; a listed label is never renamed
        if label in edges:
            raise WeldingError(f"edge label {label!r} names two edges")
        v, tail, head = rays[kinds[f]]
        tail = None if tail is None else clusters[cluster_of[f * n + base[f] + tail]].cluster_id
        head = None if head is None else clusters[cluster_of[f * n + base[f] + head]].cluster_id
        edges[label] = EdgeStratum(label, kind, faces, v, domain_ids, tail, head)

    # either face of a welded edge reads its ends: a matched pair's stars
    # agree, and its faces lie in two domains
    for p, f in zip(pairs, welded):
        add_edge(p.label, "welded", f, (p.left, p.right), (p.left[0], p.right[0]))
    for domain_id, fan in domains:
        for f, label in enumerate(fan.labels, offsets[domain_id]):
            if partner[f] is None:
                add_edge(f"{domain_id}.{label}", "boundary", f, ((domain_id, label),), (domain_id,))

    # --- divisor components: the welded edges joined at crossings
    components = []
    for k, (run, closed) in enumerate(connected_runs(range(len(pairs)), joins)):
        edge_labels, residue = tuple([pairs[i].label for i in run]), rays[kinds[welded[run[0]]]][0]
        components.append(DivisorComponent(f"D{k + 1}", edge_labels, residue, closed))

    signs, holds = two_colour([i for i, _ in domains], [(p.left[0], p.right[0], -1) for p in pairs])
    # domains built from one fan share the Fan object: test each once
    compact = all(is_complete(fan) for fan, _ in tables.values()) if spec.dim <= 2 else None
    return WeldedSpace(
        spec=spec,
        dim=spec.dim,
        pairs=pairs,
        edges=tuple(edges.values()),
        clusters=tuple(clusters),
        divisor_components=tuple(components),
        orientable=all(holds),
        domain_signs=signs if all(holds) else None,
        compact=compact,
    )
