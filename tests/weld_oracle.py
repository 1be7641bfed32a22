"""The welding closure as it was before the weld index: the slow oracle.

``build_welded_space`` here rebuilds the face maps from the pair list
on every chain walk, finds domains and rays by linear scans, checks a
pair for matching once per public check it passes through and walks
its corners twice.  It shares only the result dataclasses and the
two-colouring with ``logaffine.welding`` and keeps its own union-find
and its residue-keyed crossing joins, so the property in
``tests/test_welding.py`` can compare the indexed closure with it pair
for pair, edge for edge and error for error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from logaffine.errors import (
    FaceInUseError,
    GeometryError,
    GloballyObstructedError,
    NotMatchedError,
    WeldingError,
)
from logaffine.fans import is_complete
from logaffine.rational import cross2
from logaffine.welding import (
    CornerCluster,
    DivisorComponent,
    EdgeStratum,
    MatchedPair,
    WeldedSpace,
    two_colour,
)


class UnionFind:
    """Disjoint sets over a fixed collection of hashable items."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def fan_of(spec, domain_id):
    for i, fan in spec.domain_items:
        if i == domain_id:
            return fan
    raise KeyError(f"no domain {domain_id}")


def face_vector(spec, face):
    fan = fan_of(spec, face[0])
    return fan.vectors[fan.labels.index(face[1])]


def label_of_vector(fan, v):
    return fan.labels[fan.vectors.index(v)]


def star(fan, v):
    idx = fan.vectors.index(v)
    return {frozenset(fan.vectors[i] for i in cone) for cone in fan.cones if idx in cone}


def is_matched_pair(spec, pair):
    """``(ok, reason, correspondence)``, as ``welding.is_matched_pair``."""
    for face in pair.faces():
        try:
            fan = fan_of(spec, face[0])
        except KeyError:
            return False, f"unknown domain {face[0]}", None
        if face[1] not in fan.labels:
            return False, f"domain {face[0]} has no ray {face[1]!r}", None
    if pair.left[0] == pair.right[0]:
        return False, "both faces belong to the same domain", None
    v_left = face_vector(spec, pair.left)
    v_right = face_vector(spec, pair.right)
    if v_left != v_right:
        return (
            False,
            f"face vectors differ: {tuple(map(str, v_left))} vs {tuple(map(str, v_right))}",
            None,
        )
    left_fan = fan_of(spec, pair.left[0])
    right_fan = fan_of(spec, pair.right[0])
    star_left = star(left_fan, v_left)
    if star_left != star(right_fan, v_right):
        return False, "the stars of the welded ray differ", None
    correspondence = {}
    adjacent = set().union(*star_left) - {v_left} if star_left else set()
    for w in adjacent:
        correspondence[(pair.left[0], label_of_vector(left_fan, w))] = (
            pair.right[0],
            label_of_vector(right_fan, w),
        )
    return True, None, correspondence


def weld_maps(pairs):
    face_to_face, face_to_pair = {}, {}
    for p in pairs:
        face_to_face[p.left] = p.right
        face_to_face[p.right] = p.left
        face_to_pair[p.left] = p
        face_to_pair[p.right] = p
    return face_to_face, face_to_pair


@dataclass
class Chain:
    quads: list
    links: list
    closed: bool
    end_face: tuple | None


def walk(spec, pairs, start, exit_label):
    face_to_face, face_to_pair = weld_maps(pairs)
    quads, links = [start], []
    current, label = start, exit_label
    while True:
        face = (current[0], label)
        partner = face_to_face.get(face)
        if partner is None:
            return Chain(quads, links, False, face)
        links.append(face_to_pair[face])
        (other,) = current[1] - {label}
        other_vec = face_vector(spec, (current[0], other))
        lab2_other = label_of_vector(fan_of(spec, partner[0]), other_vec)
        nxt = (partner[0], frozenset({partner[1], lab2_other}))
        if nxt == start:
            return Chain(quads, links, True, None)
        quads.append(nxt)
        current, label = nxt, lab2_other


def corner_positions(spec, pair):
    v = face_vector(spec, pair.left)
    left_fan = fan_of(spec, pair.left[0])
    right_fan = fan_of(spec, pair.right[0])
    out = []
    for cone in sorted(star(left_fan, v), key=sorted):
        if len(cone) != 2:
            continue
        (w,) = set(cone) - {v}
        l_w, r_w = label_of_vector(left_fan, w), label_of_vector(right_fan, w)
        ql = (pair.left[0], frozenset({pair.left[1], l_w}))
        qr = (pair.right[0], frozenset({pair.right[1], r_w}))
        out.append((ql, l_w, qr, r_w, (v, w)))
    return out


def require_free_matched(spec, pair):
    ok, reason, _ = is_matched_pair(spec, pair)
    if not ok:
        raise NotMatchedError(f"pair {pair.describe()}: {reason}")
    for face in pair.faces():
        for p in spec.pairs:
            if face in p.faces():
                raise FaceInUseError(
                    f"face {face[0]}.{face[1]} is already welded in {p.describe()}", face, p
                )


def is_locally_obstructed(spec, pair):
    """``(obstructed, reason, witnesses)``, as ``welding.is_locally_obstructed``."""
    require_free_matched(spec, pair)
    for ql, exit_l, qr, exit_r, (v, w) in corner_positions(spec, pair):
        corner_name = f"corner {{{tuple(map(str, v))}, {tuple(map(str, w))}}}"
        chain_l = walk(spec, spec.pairs, ql, exit_l)
        if qr in chain_l.quads:
            length = len(chain_l.quads)
            if length != 4:
                return (
                    True,
                    f"welding closes a {length}-quadrant cycle at {corner_name}",
                    tuple(chain_l.links),
                )
            continue
        chain_r = walk(spec, spec.pairs, qr, exit_r)
        total = len(chain_l.quads) + len(chain_r.quads)
        if total > 4:
            return (
                True,
                f"welding gathers {total} quadrants at {corner_name}",
                tuple(chain_l.links + chain_r.links),
            )
    return False, None, ()


def coerced_pairs(spec, pair):
    obstructed, reason, _ = is_locally_obstructed(spec, pair)
    if obstructed:
        raise WeldingError(f"pair {pair.describe()} is obstructed: {reason}")
    coerced, seen = [], set()
    for ql, exit_l, qr, exit_r, _ in corner_positions(spec, pair):
        chain_l = walk(spec, spec.pairs, ql, exit_l)
        if qr in chain_l.quads:
            continue
        chain_r = walk(spec, spec.pairs, qr, exit_r)
        if len(chain_l.quads) + len(chain_r.quads) != 4:
            continue
        faces = sorted((chain_l.end_face, chain_r.end_face))
        forced = MatchedPair(faces[0], faces[1])
        if forced.key() not in seen:
            seen.add(forced.key())
            coerced.append(forced)
    return tuple(sorted(coerced, key=lambda p: sorted(p.faces())))


def weld_pair(spec, pair):
    """``(new spec, pairs added)``, as ``welding.weld_pair``."""
    require_free_matched(spec, pair)
    current, queue, added = spec, [pair], []
    while queue:
        item = queue.pop(0)
        if item.key() in {p.key() for p in current.pairs}:
            continue
        ok, reason, _ = is_matched_pair(current, item)
        if not ok:
            raise GloballyObstructedError(
                f"coerced pair {item.describe()} is not matched: {reason}", pair, item, ()
            )
        obstructed, reason, witnesses = is_locally_obstructed(current, item)
        if obstructed:
            raise GloballyObstructedError(
                f"pair {item.describe()} is obstructed: {reason}", pair, item, witnesses
            )
        queue.extend(coerced_pairs(current, item))
        current = replace(current, pairs=current.pairs + (item,))
        added.append(item)
    return current, tuple(added)


def build_welded_space(spec):
    current = replace(spec, pairs=())
    labels, order = {}, []
    for pair in spec.pairs:
        if pair.key() in {p.key() for p in current.pairs}:
            labels[pair.key()] = pair.label or labels[pair.key()]
            continue
        current, added = weld_pair(current, pair)
        for p in added:
            labels[p.key()] = p.label
            order.append(p.key())
    auto = 0
    final_pairs = []
    for key in order:
        faces = sorted(key)
        label = labels[key]
        if label is None:
            auto += 1
            label = f"auto{auto}"
        final_pairs.append(MatchedPair(faces[0], faces[1], label=label))
    return assemble(replace(current, pairs=tuple(final_pairs)))


def assemble(spec):
    pairs = spec.pairs
    face_to_face, _ = weld_maps(pairs)
    pair_label = {p.key(): p.label for p in pairs}

    clusters, cluster_of_quadrant = [], {}
    if spec.dim == 2:
        all_quads = [
            (domain_id, frozenset(fan.labels[i] for i in cone))
            for domain_id, fan in spec.domain_items
            for cone in sorted(fan.two_cones(), key=sorted)
        ]
        visited = set()
        for quad in all_quads:
            if quad in visited:
                continue
            l1, l2 = sorted(quad[1])
            forward = walk(spec, pairs, quad, l1)
            if forward.closed:
                members, links, closed = forward.quads, forward.links, True
            else:
                backward = walk(spec, pairs, quad, l2)
                members = list(reversed(backward.quads[1:])) + forward.quads
                links = list(reversed(backward.links)) + forward.links
                closed = False
            visited.update(members)
            where = f"quadrant {{{', '.join(sorted(quad[1]))}}} of domain {quad[0]}"
            if closed and len(members) != 4:
                raise GeometryError(f"corner cycle of length {len(members)} at {where}")
            if not closed and len(members) > 3:
                raise GeometryError(f"unresolved corner chain of length {len(members)} at {where}")
            fan = fan_of(spec, quad[0])
            position = frozenset(fan.vectors[fan.labels.index(lab)] for lab in quad[1])
            clusters.append(CornerCluster("", position, tuple(members), closed, tuple(links)))
        clusters.sort(key=lambda c: min((q[0], sorted(q[1])) for q in c.quadrants))
        clusters = [replace(c, cluster_id=f"c{k + 1}") for k, c in enumerate(clusters)]
        for c in clusters:
            for q in c.quadrants:
                cluster_of_quadrant[q] = c.cluster_id

    def ends(fan, face, v):
        tail = head = None
        if spec.dim == 2:
            for cone in star(fan, v):
                if len(cone) != 2:
                    continue
                (w,) = set(cone) - {v}
                cid = cluster_of_quadrant[(face[0], frozenset({face[1], label_of_vector(fan, w)}))]
                if cross2(v, w) > 0:
                    tail = cid
                else:
                    head = cid
        return tail, head

    edges = []
    for p in pairs:
        v = face_vector(spec, p.left)
        tail, head = ends(fan_of(spec, p.left[0]), p.left, v)
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
    for domain_id, fan in spec.domain_items:
        for idx, label in enumerate(fan.labels):
            face = (domain_id, label)
            if face in face_to_face:
                continue
            v = fan.vectors[idx]
            tail, head = ends(fan, face, v)
            edges.append(
                EdgeStratum(f"{domain_id}.{label}", "boundary", (face,), v, (domain_id,), tail, head)
            )

    welded_labels = [e.label for e in edges if e.kind == "welded"]
    uf = UnionFind(welded_labels)
    join_count = {lab: 0 for lab in welded_labels}
    for cluster in clusters:
        if not cluster.closed:
            continue
        by_residue = {}
        quads = list(cluster.quadrants)
        n = len(quads)
        for i in range(n):
            a, b = quads[i], quads[(i + 1) % n]
            shared = [
                p
                for p in cluster.links
                if {p.left[0], p.right[0]} == {a[0], b[0]} and p.left[1] in (a[1] | b[1])
            ]
            link = shared[0]
            by_residue.setdefault(face_vector(spec, link.left), []).append(pair_label[link.key()])
        for labs in by_residue.values():
            assert len(labs) == 2
            uf.union(labs[0], labs[1])
            join_count[labs[0]] += 1
            join_count[labs[1]] += 1

    groups = {}
    for lab in welded_labels:
        groups.setdefault(uf.find(lab), []).append(lab)
    components = []
    for k, (_, labs) in enumerate(
        sorted(groups.items(), key=lambda kv: welded_labels.index(kv[1][0]))
    ):
        member_edges = [e for e in edges if e.label in labs]
        arcs = sum(join_count[lab] for lab in labs) // 2
        components.append(
            DivisorComponent(f"D{k + 1}", tuple(labs), member_edges[0].residue, arcs == len(labs))
        )

    signs = two_colour(spec.domain_ids, ((p.left[0], p.right[0]) for p in pairs))
    compact = all(is_complete(fan) for _, fan in spec.domain_items) if spec.dim <= 2 else None
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
