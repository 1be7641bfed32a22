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

The welds made so far live in one weld index (``_WeldIndex``), which
``build_welded_space`` creates once and threads through every closure
and the assembly: face -> partner face, face -> pair holding it, and
face -> label correspondence across its weld (a label map of that
pair's fan-ray pair, see below); ``WeldingSpec.fan`` is a mapping too.
A face is welded at most once, so a pair is welded exactly when its
faces are each other's partners.  A closure runs a queue in which each
pair gets one match check and one pass over its corners, which yields
both the obstruction verdict and the pairs it coerces, so welding
takes near-linear time in the number of welds.  The public checks
(``is_locally_obstructed``, ``coerced_pairs``, ``weld_pair``) build the
index of ``spec.pairs`` once per call.

A chain walk steps on labels: its state is (domain, exit label, other
label), and a step looks up the exit face's partner, renames the other
label across that weld and swaps the two, so no step builds a set.
Witnesses and cluster links are read off ``holder`` only where used,
and a ``Quadrant``'s label frozenset is built once per cluster member.

Matching is derived once per fan-ray pair.  Whether two rays match,
and how the labels around them correspond, depends only on the two
fans and the two rays: ``_match_rays`` pairs the rays' neighbours
(``Fan.corner_neighbours``, sorted by vector) by position, the stars
agree when each position holds equal vectors and the pairing maps the
cones about one ray onto those about the other, and the label maps are
that pairing.  Each spec keeps one memo of its verdict and label maps
(left to right and back) keyed by ``(id(left fan), left ray, id(right
fan), right ray)``; the ids are stable because the spec holds its fans.
``_match`` checks the faces of every pair (unknown domain or label,
both faces in one domain) on the lookups that key needs, and
``is_matched_pair`` reads its answer.  On a grid of one fan, parsing
the spec and welding it compare rays once per distinct pair of labels.

The assembly reads the strata off the index through one table per
``Fan`` object, not per domain: the fan's quadrants in sorted-label
order with their positions, and for each ray its vector and its tail
and head quadrants (``Fan.turns``).  Quadrants are visited in (domain
id, sorted labels) order, so each corner cluster is named when its
least quadrant is met.  A crossing's closed walk alternates the
corner's two rays, so it joins link i to link i + 2, and
``connected_runs`` gathers the joined welded edges into divisor
components.  The Fractions of a fan's vectors are hashed a fixed
number of times per fan, whatever the number of domains.
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
    def _matches(self) -> dict[tuple[int, str, int, str], tuple]:
        """``_match``'s memo: reasons and label maps both ways per fan-ray pair."""
        return {}

    def __getstate__(self) -> dict:
        # the memo is keyed by object ids, which a copy's fans do not share
        return {k: v for k, v in self.__dict__.items() if k != "_matches"}


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
    domains: Mapping[int, Fan],
    pairs: Sequence[MatchedPair],
) -> WeldingSpec:
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
            shared = validated.get(fan)
            if shared is None:
                report = validate_fan(fan)
                if not report.ok:
                    raise InvalidFanError(list(report.violations))
                shared = validated[fan] = fan
            by_identity[id(fan)] = shared
        items.append((domain_id, shared))
    dims = {fan.dim for _, fan in items}
    if len(dims) > 1:
        raise DimensionMismatchError(f"domains of mixed dimensions {sorted(dims)}")
    dim = dims.pop() if dims else 2
    spec = WeldingSpec(dim=dim, domain_items=tuple(items), pairs=tuple(pairs))
    # only the face -> pair holders: the listed pairs are welded later
    listed = _WeldIndex(spec)
    for pair in spec.pairs:
        listed.require_free_matched(pair)
        listed.holder[pair.left] = listed.holder[pair.right] = pair
    return spec


def is_matched_pair(spec: WeldingSpec, pair: MatchedPair) -> MatchResult:
    """Check the matching conditions and build the face correspondence.

    The correspondence maps every face adjacent to the welded ray on
    the left side to the face of the same adjacent vector on the
    right side.
    """
    reason, forward, _ = _match(spec, pair)
    if forward is None:
        return MatchResult(False, reason, None)
    left, right = pair.left[0], pair.right[0]
    return MatchResult(True, None, {(left, a): (right, b) for a, b in forward.items()})


def _match(
    spec: WeldingSpec, pair: MatchedPair
) -> tuple[str | None, dict[str, str] | None, dict[str, str] | None]:
    """Whether ``pair`` is matched, through the spec's memo.

    Returns the reason ``pair`` is not matched (None when it is) and,
    when it is, the map from the left domain's labels around the welded
    ray to the right domain's and its inverse (else None twice).  The
    faces are checked on every call, the rays once per fan-ray pair
    (``_match_rays``).  The maps are shared: do not modify them.
    """
    rays: list = []
    for domain_id, label in pair.faces():
        fan = spec._fans.get(domain_id)
        if fan is None:
            return f"unknown domain {domain_id}", None, None
        ray = fan._label_index.get(label)
        if ray is None:
            return f"domain {domain_id} has no ray {label!r}", None, None
        rays += (fan, ray)
    if pair.left[0] == pair.right[0]:
        return "both faces belong to the same domain", None, None
    left, i, right, j = rays
    key = (id(left), i, id(right), j)
    found = spec._matches.get(key)
    if found is None:
        found = spec._matches[key] = _match_rays(left, i, right, j)
    return found


def _match_rays(
    left: Fan, i: int, right: Fan, j: int
) -> tuple[str | None, dict[str, str] | None, dict[str, str] | None]:
    """Whether ray ``i`` of ``left`` matches ray ``j`` of ``right``, as ``_match``."""
    v_left, v_right = left.vectors[i], right.vectors[j]
    if v_left != v_right:
        return (
            f"face vectors differ: {tuple(map(str, v_left))} vs {tuple(map(str, v_right))}",
            None,
            None,
        )
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
    forward = {left.labels[k]: right.labels[m] for k, m in zip(ks, ls)}
    return None, forward, {b: a for a, b in forward.items()}


# ------------------------------------------------------- quadrant chains


class _WeldIndex:
    """The welds made so far over the domains of ``spec``, as lookups.

    A new index holds no welds, whatever ``spec.pairs`` lists; ``add``
    records one matched pair.  ``partner`` and ``holder`` map each
    welded face to the face across its weld and to its pair, and
    ``across`` to the labels of its domain renamed to the partner's
    (one of the pair's two label maps from ``_match``), so a chain steps
    over a weld with three lookups.  A face is welded at most once, so
    a pair is welded exactly when ``partner`` maps its left face to its
    right one.  Nothing is undone when a check raises: a caller that
    meets an error drops the index.
    """

    def __init__(self, spec: WeldingSpec) -> None:
        self.spec = spec
        self.partner: dict[FaceRef, FaceRef] = {}
        self.holder: dict[FaceRef, MatchedPair] = {}
        self.across: dict[FaceRef, dict[str, str]] = {}

    @classmethod
    def of(cls, spec: WeldingSpec) -> _WeldIndex:
        """The index of ``spec.pairs`` (matched, as ``make_welding_spec``
        checks), every listed pair welded."""
        index = cls(spec)
        for pair in spec.pairs:
            index.add(pair, *_match(spec, pair)[1:])
        return index

    def add(
        self, pair: MatchedPair, forward: Mapping[str, str], backward: Mapping[str, str]
    ) -> None:
        """Weld ``pair``, whose left labels ``forward`` renames to its right
        ones and ``backward`` back."""
        self.partner[pair.left] = pair.right
        self.partner[pair.right] = pair.left
        self.holder[pair.left] = self.holder[pair.right] = pair
        self.across[pair.left] = forward
        self.across[pair.right] = backward

    def require_free(self, pair: MatchedPair) -> None:
        for face in pair.faces():
            holder = self.holder.get(face)
            if holder is not None:
                raise FaceInUseError(
                    f"face {face[0]}.{face[1]} is already welded in {holder.describe()}",
                    face,
                    holder,
                )

    def require_free_matched(self, pair: MatchedPair) -> Mapping[str, str]:
        """The label map of ``pair``, which must be matched and free."""
        reason, forward, _ = _match(self.spec, pair)
        if forward is None:
            raise NotMatchedError(f"pair {pair.describe()}: {reason}")
        self.require_free(pair)
        return forward

    def walk(self, domain: int, exit_label: str, other_label: str) -> tuple[list, FaceRef | None]:
        """Follow welds from a quadrant of ``domain`` out of its face
        ``exit_label``: the quadrants met as (domain, exit label, other
        label) and the free face at the far end (None when the chain
        closes on its start, in either label order)."""
        d, x, y = start = (domain, exit_label, other_label)
        flipped = (domain, other_label, exit_label)
        quads = [start]
        while True:
            face = (d, x)
            partner = self.partner.get(face)
            if partner is None:
                return quads, face
            # the face entered is the next quadrant's other label
            quad = d, x, y = partner[0], self.across[face][y], partner[1]
            if quad == start or quad == flipped:
                return quads, None
            quads.append(quad)

    def links(self, quads: list) -> list[MatchedPair]:
        """The pairs a walk over ``quads`` crossed, in walk order."""
        return [self.holder[(d, x)] for d, x, _ in quads if (d, x) in self.partner]

    def corners(
        self, pair: MatchedPair, forward: Mapping[str, str]
    ) -> tuple[ObstructionResult, tuple[MatchedPair, ...]]:
        """One pass over the corners of the matched, free ``pair``, whose
        left labels ``forward`` renames to its right ones.

        At each 2-cone of the welded ray the chains through the two
        quadrants leave by the face *not* being welded.  Welding is
        obstructed when it would close a cycle of length other than
        four or chain more than four quadrants; two chains of four
        quadrants in all coerce their free end faces.  Returns the
        verdict and, when unobstructed, the coerced pairs.
        """
        (d_l, x_l), (d_r, x_r) = pair.left, pair.right
        fan = self.spec.fan(d_l)
        ray = fan.index_of_label(x_l)
        coerced: dict[tuple[FaceRef, FaceRef], MatchedPair] = {}
        for j in fan.corner_neighbours[ray]:
            l_w = fan.labels[j]
            r_w = forward[l_w]
            quads_l, end_l = self.walk(d_l, l_w, x_l)
            if (d_r, x_r, r_w) in quads_l or (d_r, r_w, x_r) in quads_l:
                if len(quads_l) != 4:
                    reason = f"welding closes a {len(quads_l)}-quadrant cycle at"
                    return _obstructed(reason, fan, ray, j, self.links(quads_l)), ()
                continue  # the new weld itself closes this corner
            quads_r, end_r = self.walk(d_r, r_w, x_r)
            total = len(quads_l) + len(quads_r)
            if total > 4:
                reason = f"welding gathers {total} quadrants at"
                links = self.links(quads_l) + self.links(quads_r)
                return _obstructed(reason, fan, ray, j, links), ()
            if total == 4:
                assert end_l is not None and end_r is not None
                faces = (end_l, end_r) if end_l < end_r else (end_r, end_l)
                coerced.setdefault(faces, MatchedPair(*faces))
        return ObstructionResult(False, None, ()), tuple(coerced[k] for k in sorted(coerced))


def _obstructed(
    reason: str, fan: Fan, ray: int, other: int, links: list[MatchedPair]
) -> ObstructionResult:
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
    return index.corners(pair, index.require_free_matched(pair))[0]


def coerced_pairs(spec: WeldingSpec, pair: MatchedPair) -> tuple[MatchedPair, ...]:
    """Pairs forced by welding ``pair``: corners filled to exactly four.

    Requires the pair to be unobstructed.
    """
    index = _WeldIndex.of(spec)
    result, coerced = index.corners(pair, index.require_free_matched(pair))
    if result.obstructed:
        raise WeldingError(f"pair {pair.describe()} is obstructed: {result.reason}")
    return coerced


def weld_pair(spec: WeldingSpec, pair: MatchedPair) -> WeldResult:
    """Weld a pair and everything it transitively coerces.

    Returns a new spec (the input is never modified) and the pairs
    added, in welding order.  Raises ``GloballyObstructedError`` when
    any pair in the closure is obstructed or unmatched.
    """
    added = _weld_closure(_WeldIndex.of(spec), pair)
    return WeldResult(replace(spec, pairs=spec.pairs + added), added)


def _weld_closure(index: _WeldIndex, pair: MatchedPair) -> tuple[MatchedPair, ...]:
    """Weld ``pair`` and its coercion closure into ``index``, in queue order.

    Each queued pair gets one match check and one pass over its
    corners.  Until the first weld, the pair checked is ``pair``
    itself: it must be free, and unmatched it raises
    ``NotMatchedError``; a coerced pair that is already welded is
    skipped.
    """
    queue = deque([pair])
    added: list[MatchedPair] = []
    while queue:
        item = queue.popleft()
        if added and index.partner.get(item.left) == item.right:
            continue
        reason, forward, backward = _match(index.spec, item)
        if forward is None:
            if not added:
                raise NotMatchedError(f"pair {pair.describe()}: {reason}")
            raise GloballyObstructedError(
                f"coerced pair {item.describe()} is not matched: {reason}",
                pair,
                item,
                (),
            )
        index.require_free(item)
        obstruction, coerced = index.corners(item, forward)
        if obstruction.obstructed:
            raise GloballyObstructedError(
                f"pair {item.describe()} is obstructed: {obstruction.reason}",
                pair,
                item,
                obstruction.witnesses,
            )
        queue.extend(coerced)
        index.add(item, forward, backward)
        added.append(item)
    return tuple(added)


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
    welded: list[MatchedPair] = []
    for pair in spec.pairs:
        if index.partner.get(pair.left) == pair.right:
            if pair.label:
                index.holder[pair.left] = index.holder[pair.right] = pair
            continue
        welded += _weld_closure(index, pair)
    auto = 0
    final_pairs: list[MatchedPair] = []
    for p in welded:
        final = index.holder[p.left]
        if final.label is None or final.right < final.left:
            label = final.label
            if label is None:
                auto += 1
                label = f"auto{auto}"
            final = MatchedPair(*sorted(final.faces()), label=label)
            # cluster links carry the final labels
            index.holder[final.left] = index.holder[final.right] = final
        final_pairs.append(final)
    return _assemble(replace(spec, pairs=tuple(final_pairs)), index)


def _quadrant_text(quad: Quadrant) -> str:
    """A quadrant by its sorted labels, whatever the string hash seed."""
    return f"quadrant {{{', '.join(sorted(quad[1]))}}} of domain {quad[0]}"


def _assemble(spec: WeldingSpec, index: _WeldIndex) -> WeldedSpace:
    """Strata of the welds in ``index``, which holds exactly ``spec.pairs``.

    Domains are read in id order, whatever the order of ``spec.domain_items``.
    """
    pairs = spec.pairs
    plane = spec.dim == 2
    domains = sorted(spec.domain_items, key=lambda item: item[0])

    # --- one table per Fan object: its quadrants (sorted labels, label
    # set, position) in sorted-label order, and per ray label its vector
    # and tail and head quadrant label sets
    tables: dict[int, tuple[Fan, list, dict]] = {}
    for _, fan in domains:
        if id(fan) in tables:
            continue
        cones = fan.two_cones() if plane else []
        corner = {cone: frozenset(fan.labels[i] for i in cone) for cone in cones}
        quads = sorted(
            (sorted(labels), labels, frozenset(fan.vectors[i] for i in cone))
            for cone, labels in corner.items()
        )
        rays = {}
        for i, v in enumerate(fan.vectors):
            # a missing turn (None) names no 2-cone: no quadrant on that side
            ends = [corner.get(frozenset((i, j))) for j in fan.turns[i]] if plane else [None] * 2
            rays[fan.labels[i]] = (v, *ends)
        tables[id(fan)] = (fan, quads, rays)

    # --- corner clusters (dimension 2 only), met in (domain id, sorted
    # labels) order: a cluster's first quadrant met is its least
    clusters: list[CornerCluster] = []
    cluster_of_quadrant: dict[Quadrant, str] = {}
    for domain_id, fan in domains:
        for (l1, l2), labels, position in tables[id(fan)][1]:
            quad = (domain_id, labels)
            if quad in cluster_of_quadrant:
                continue
            members, end = index.walk(domain_id, l1, l2)
            closed = end is None
            if closed:
                if len(members) != 4:
                    raise GeometryError(
                        f"corner cycle of length {len(members)} at {_quadrant_text(quad)}"
                    )
                links = index.links(members)
            else:
                back, _ = index.walk(domain_id, l2, l1)
                links = index.links(back)[::-1] + index.links(members)
                members = back[:0:-1] + members
                if len(members) > 3:
                    raise GeometryError(
                        f"unresolved corner chain of length {len(members)} "
                        f"at {_quadrant_text(quad)}"
                    )
            cluster_id = f"c{len(clusters) + 1}"
            quadrants = tuple((d, frozenset((x, y))) for d, x, y in members)
            for q in quadrants:
                cluster_of_quadrant[q] = cluster_id
            clusters.append(CornerCluster(cluster_id, position, quadrants, closed, tuple(links)))

    # --- edge strata
    def ray(face: FaceRef) -> tuple:
        """The vector and tail and head quadrant labels of ``face``'s ray."""
        return tables[id(spec.fan(face[0]))][2][face[1]]

    edges: dict[str, EdgeStratum] = {}

    def add_edge(
        label: str,
        kind: str,
        face: FaceRef,
        faces: tuple[FaceRef, ...],
        domain_ids: tuple[int, ...],
    ) -> None:
        # the by-label lookups (WeldedSpace.edge, the components) need
        # one edge per label; a listed label is never renamed
        if label in edges:
            raise WeldingError(f"edge label {label!r} names two edges")
        v, tail, head = ray(face)
        edges[label] = EdgeStratum(
            label=label,
            kind=kind,
            faces=faces,
            residue=v,
            domain_ids=domain_ids,
            tail=None if tail is None else cluster_of_quadrant[(face[0], tail)],
            head=None if head is None else cluster_of_quadrant[(face[0], head)],
        )

    for p in pairs:
        # the faces of a matched pair lie in two domains
        a, b = (p.left, p.right) if p.left < p.right else (p.right, p.left)
        add_edge(p.label, "welded", p.left, (a, b), (a[0], b[0]))
    for domain_id, fan in domains:
        for label in fan.labels:
            face = (domain_id, label)
            if face not in index.partner:
                add_edge(f"{domain_id}.{label}", "boundary", face, (face,), (domain_id,))

    # --- divisor components: welded edges joined at crossings, where a
    # closed walk's links alternate the corner's two rays, so link i and
    # link i + 2 cross it on one ray
    joins = [(c.links[i].label, c.links[i + 2].label) for c in clusters if c.closed for i in (0, 1)]
    components = [
        DivisorComponent(
            label=f"D{k + 1}", edge_labels=run, residue=edges[run[0]].residue, closed=closed
        )
        for k, (run, closed) in enumerate(connected_runs((p.label for p in pairs), joins))
    ]

    signs, holds = two_colour((i for i, _ in domains), ((p.left[0], p.right[0], -1) for p in pairs))
    compact: bool | None = None
    if spec.dim <= 2:
        # domains built from one fan share the Fan object: test each once
        compact = all(is_complete(fan) for fan, _, _ in tables.values())
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
