"""Welding calculus: matched pairs, obstructions, coercion, closure."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import weld_oracle
from conftest import FIXTURES, grid_pairs, grid_text, load_fan, load_welding
from hypothesis import given, settings
from hypothesis import strategies as st

import logaffine
from logaffine.errors import (
    FaceInUseError,
    GeometryError,
    GloballyObstructedError,
    InvalidFanError,
    NotMatchedError,
    WeldingError,
)
from logaffine.fans import Fan, make_fan
from logaffine.fileio import parse_welding_file, parse_welding_text
from logaffine.welding import (
    MatchedPair,
    _assemble,
    _resolve,
    _WeldIndex,
    build_welded_space,
    coerced_pairs,
    is_locally_obstructed,
    is_matched_pair,
    make_welding_spec,
    weld_pair,
)

from test_fans import hexagon_fan, triangle_fan


def quadrant_fan():
    return make_fan([(1, 0), (0, 1)], [[], [0], [1], [0, 1]], labels=["a", "b"])


def three_ray_halfplane_fan():
    """Rays (1,0), (0,1), (-1,0) with the two upper quadrant cones."""
    return make_fan(
        [(1, 0), (0, 1), (-1, 0)],
        [[], [0], [1], [2], [0, 1], [1, 2]],
        labels=["a", "b", "c"],
    )


def quadrant_spec(n: int, pairs: list[tuple]) -> object:
    fan = quadrant_fan()
    return make_welding_spec(
        {i: fan for i in range(1, n + 1)},
        [MatchedPair(p[0], p[1], label=f"w{k + 1}") for k, p in enumerate(pairs)],
    )


# ----------------------------------------------------------- matched pairs


def test_matched_pair_same_fan() -> None:
    spec = make_welding_spec({1: hexagon_fan(), 2: hexagon_fan()}, [])
    result = is_matched_pair(spec, MatchedPair((1, "b"), (2, "b")))
    assert result.ok
    assert result.correspondence == {(1, "a"): (2, "a"), (1, "c"): (2, "c")}


def test_matched_pair_rejects_different_vectors() -> None:
    spec = make_welding_spec({1: quadrant_fan(), 2: quadrant_fan()}, [])
    result = is_matched_pair(spec, MatchedPair((1, "a"), (2, "b")))
    assert not result.ok
    assert "vector" in result.reason


@pytest.mark.parametrize("case", ["missing 2-cone", "one different neighbour"])
def test_matched_pair_rejects_star_mismatch(case: str) -> None:
    if case == "missing 2-cone":
        ray, left = "b", three_ray_halfplane_fan()
        right = make_fan(
            [(1, 0), (0, 1), (-1, 0)],
            [[], [0], [1], [2], [0, 1]],
            labels=["a", "b", "c"],
        )
    else:  # two neighbours each: (0, 1) on both, then (0, -1) against (-1, -1)
        ray, left, right = "a", load_fan("square.fan"), triangle_fan()
    spec = make_welding_spec({1: left, 2: right}, [])
    for pair in (MatchedPair((1, ray), (2, ray)), MatchedPair((2, ray), (1, ray))):
        result = is_matched_pair(spec, pair)
        assert (result.ok, result.reason) == (False, "the stars of the welded ray differ")


def test_a_missing_3_cone_is_a_star_mismatch() -> None:
    """In dimension 3 two rays may pair their neighbours vector for vector
    and still differ in a 3-cone: only the cones about the ray tell."""
    vectors = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]]
    solid = make_fan(vectors, [*faces, [0, 1, 2]], labels=["a", "b", "c"])
    hollow = make_fan(vectors, faces, labels=["a", "b", "c"])
    relabelled = make_fan(vectors[::-1], solid.cones)
    spec = make_welding_spec({1: solid, 2: hollow, 3: relabelled}, [])
    faces_of = [(d, label) for d, fan in spec.domain_items for label in fan.labels]
    for left in faces_of:
        for right in faces_of:
            pair = MatchedPair(left, right)
            result = is_matched_pair(spec, pair)
            expected = weld_oracle.is_matched_pair(spec, pair)
            assert (result.ok, result.reason, result.correspondence) == expected, pair.describe()
    assert not is_matched_pair(spec, MatchedPair((1, "a"), (2, "a"))).ok
    assert not is_matched_pair(spec, MatchedPair((2, "c"), (3, "v0"))).ok
    assert is_matched_pair(spec, MatchedPair((1, "a"), (3, "v2"))).correspondence == {
        (1, "b"): (3, "v1"),
        (1, "c"): (3, "v0"),
    }


def test_matched_pair_same_domain_is_never_matched() -> None:
    spec = make_welding_spec({1: quadrant_fan()}, [])
    result = is_matched_pair(spec, MatchedPair((1, "a"), (1, "b")))
    assert not result.ok


# ------------------------------------------------------------ obstruction


def test_unobstructed_on_fresh_domains() -> None:
    spec = quadrant_spec(2, [])
    result = is_locally_obstructed(spec, MatchedPair((1, "a"), (2, "a")))
    assert not result.obstructed
    assert coerced_pairs(spec, MatchedPair((1, "a"), (2, "a"))) == ()


def test_obstructed_by_short_cycle() -> None:
    # The two domains are already welded along the adjacent faces, so a
    # second weld at the other corner side would close a 2-cycle.
    spec = quadrant_spec(2, [((1, "b"), (2, "b"))])
    pair = MatchedPair((1, "a"), (2, "a"))
    result = is_locally_obstructed(spec, pair)
    assert result.obstructed
    assert [w.key() for w in result.witnesses] == [frozenset({(1, "b"), (2, "b")})]


def test_obstructed_by_overfull_corner() -> None:
    # Joining a 3-chain and a 2-chain would put five quadrants at a corner.
    spec = quadrant_spec(
        5,
        [((1, "b"), (3, "b")), ((3, "a"), (4, "a")), ((2, "b"), (5, "b"))],
    )
    pair = MatchedPair((1, "a"), (2, "a"))
    result = is_locally_obstructed(spec, pair)
    assert result.obstructed
    # the left chain's links in walk order, then the right chain's
    assert tuple(w.key() for w in result.witnesses) == (
        frozenset({(1, "b"), (3, "b")}),
        frozenset({(3, "a"), (4, "a")}),
        frozenset({(2, "b"), (5, "b")}),
    )


def test_coerced_pair_from_chain_and_isolated_domain() -> None:
    # A 3-chain plus an isolated domain fills the corner exactly: the
    # two far-end free faces are coerced.
    spec = quadrant_spec(4, [((1, "b"), (2, "b")), ((2, "a"), (3, "a"))])
    pair = MatchedPair((1, "a"), (4, "a"))
    assert not is_locally_obstructed(spec, pair).obstructed
    coerced = coerced_pairs(spec, pair)
    assert [p.key() for p in coerced] == [frozenset({(3, "b"), (4, "b")})]


def test_no_coercion_without_corner() -> None:
    ray_fan = make_fan([(1, 0)], [[], [0]], labels=["a"])
    spec = make_welding_spec({1: ray_fan, 2: ray_fan}, [])
    pair = MatchedPair((1, "a"), (2, "a"))
    assert not is_locally_obstructed(spec, pair).obstructed
    assert coerced_pairs(spec, pair) == ()


# -------------------------------------------------------------- weld_pair


def test_weld_pair_transitive_closure() -> None:
    spec = quadrant_spec(4, [((1, "a"), (2, "a")), ((1, "b"), (4, "b"))])
    result = weld_pair(spec, MatchedPair((2, "b"), (3, "b"), label="w3"))
    added = [p.key() for p in result.added]
    assert added == [
        frozenset({(2, "b"), (3, "b")}),
        frozenset({(3, "a"), (4, "a")}),
    ]
    assert len(result.spec.pairs) == 4


def test_weld_pair_globally_obstructed_leaves_spec_unchanged() -> None:
    fan = three_ray_halfplane_fan()
    spec = make_welding_spec(
        {i: fan for i in (1, 2, 3, 4)},
        [
            MatchedPair((1, "b"), (3, "b"), label="w1"),
            MatchedPair((3, "a"), (4, "a"), label="w2"),
            MatchedPair((4, "c"), (2, "c"), label="w3"),
        ],
    )
    pair = MatchedPair((1, "a"), (2, "a"))
    with pytest.raises(GloballyObstructedError) as err:
        weld_pair(spec, pair)
    assert err.value.original.key() == pair.key()
    assert err.value.offending.key() == frozenset({(4, "b"), (2, "b")})
    assert frozenset({(4, "c"), (2, "c")}) in {w.key() for w in err.value.witnesses}
    assert len(spec.pairs) == 3


def test_weld_pair_witnesses_follow_the_walks() -> None:
    # 5.c ~ 2.c coerces 1.b ~ 2.b, whose corner {a, b} would gather the
    # chain of 1 and 3 (over w3) and the chain of 2, 5 and 4 (over w4,
    # then w2): the witnesses come in walk order, not in listed order
    fan = three_ray_halfplane_fan()
    listed = [
        ((1, "c"), (4, "c")),
        ((4, "b"), (5, "b")),
        ((1, "a"), (3, "a")),
        ((2, "a"), (5, "a")),
    ]
    spec = make_welding_spec(
        {i: fan for i in range(1, 6)},
        [MatchedPair(a, b, label=f"w{k + 1}") for k, (a, b) in enumerate(listed)],
    )
    pair = MatchedPair((5, "c"), (2, "c"))
    with pytest.raises(GloballyObstructedError) as err:
        weld_pair(spec, pair)
    assert str(err.value) == (
        "pair 1.b ~ 2.b is obstructed: welding gathers 5 quadrants at corner"
        " {('0', '1'), ('1', '0')}"
    )
    assert err.value.offending == MatchedPair((1, "b"), (2, "b"))
    assert tuple(w.label for w in err.value.witnesses) == ("w3", "w4", "w2")


def test_the_closure_rejects_a_coerced_pair_whose_stars_differ() -> None:
    # 4.a ~ 1.a and 4.b ~ 3.b chain three quadrants around the corner
    # {a, b}; 2.b ~ 1.b adds the square's fourth, which coerces 2.a ~ 3.a,
    # a ray of the square with two 2-cones and one of a quadrant with one
    text = (
        "logaffine welding 1\n"
        "fan H = halfplane3.fan\nfan S = square.fan\nfan Q = quadrant.fan\n"
        "domain 1 = H\ndomain 2 = S\ndomain 3 = Q\ndomain 4 = Q\n"
        "pair p1 = 4.b ~ 3.b\npair p2 = 4.a ~ 1.a\npair p3 = 2.b ~ 1.b\n"
    )
    spec = parse_welding_text(text, base=FIXTURES).spec
    with pytest.raises(GloballyObstructedError) as err:
        build_welded_space(spec)
    assert str(err.value) == (
        "coerced pair 2.a ~ 3.a is not matched: the stars of the welded ray differ"
    )
    assert outcome(build_welded_space, spec) == outcome(weld_oracle.build_welded_space, spec)


def test_weld_pair_rejects_used_face() -> None:
    spec = quadrant_spec(3, [((1, "a"), (2, "a"))])
    with pytest.raises(FaceInUseError):
        weld_pair(spec, MatchedPair((1, "a"), (3, "a")))


def test_weld_pair_rejects_unmatched() -> None:
    spec = make_welding_spec({1: quadrant_fan(), 2: quadrant_fan()}, [])
    with pytest.raises(NotMatchedError):
        weld_pair(spec, MatchedPair((1, "a"), (2, "b")))


def test_spec_rejects_duplicate_face_use() -> None:
    with pytest.raises(FaceInUseError) as err:
        quadrant_spec(3, [((1, "a"), (2, "a")), ((1, "a"), (3, "a"))])
    assert str(err.value) == "face 1.a is already welded in w1 (1.a ~ 2.a)"
    assert err.value.face == (1, "a")
    assert err.value.holder == MatchedPair((1, "a"), (2, "a"), label="w1")


def test_listed_pair_meets_a_face_coerced_earlier() -> None:
    # welding 2.b ~ 5.b fills the corner of 1, 4, 2 and 5 and coerces
    # 1.a ~ 5.a, so the listed 1.a ~ 3.a finds face 1.a taken
    quad, half = quadrant_fan(), three_ray_halfplane_fan()
    listed = [
        ((1, "b"), (4, "b")),
        ((2, "a"), (4, "a")),
        ((2, "c"), (3, "c")),
        ((2, "b"), (5, "b")),
        ((1, "a"), (3, "a")),
    ]
    spec = make_welding_spec(
        {1: quad, 2: half, 3: half, 4: quad, 5: half},
        [MatchedPair(a, b, label=f"p{k + 1}") for k, (a, b) in enumerate(listed)],
    )
    with pytest.raises(FaceInUseError) as err:
        build_welded_space(spec)
    assert str(err.value) == "face 1.a is already welded in 1.a ~ 5.a"
    assert err.value.face == (1, "a")
    assert err.value.holder.key() == frozenset({(1, "a"), (5, "a")})


# ---------------------------------------------------- welded space assembly


def test_build_welded_space_quadrants() -> None:
    spec = quadrant_spec(
        4,
        [
            ((1, "a"), (2, "a")),
            ((1, "b"), (4, "b")),
            ((2, "b"), (3, "b")),
            ((3, "a"), (4, "a")),
        ],
    )
    space = build_welded_space(spec)
    assert len(space.pairs) == 4
    # The fourth listed pair was coerced by the third; its label sticks.
    assert {p.label for p in space.pairs} == {"w1", "w2", "w3", "w4"}
    assert [e.kind for e in space.edges] == ["welded"] * 4
    assert len(space.crossings) == 1
    assert len(space.boundary_corners) == 0
    comps = space.divisor_components
    assert len(comps) == 2
    assert all(not c.closed for c in comps)
    assert {frozenset(c.edge_labels) for c in comps} == {
        frozenset({"w1", "w4"}),
        frozenset({"w2", "w3"}),
    }
    for comp in comps:
        residues = {e.residue for e in space.edges if e.label in comp.edge_labels}
        assert residues == {comp.residue}
    assert space.orientable
    assert not space.compact
    assert not space.has_boundary


def test_build_welded_space_single_domain() -> None:
    spec = make_welding_spec({1: triangle_fan()}, [])
    space = build_welded_space(spec)
    assert [e.kind for e in space.edges] == ["boundary"] * 3
    assert space.compact
    assert space.has_boundary
    assert len(space.boundary_corners) == 3
    assert space.divisor_components == ()


def test_build_welded_space_mobius_band() -> None:
    fan = triangle_fan()
    spec = make_welding_spec(
        {1: fan, 2: fan, 3: fan},
        [
            MatchedPair((1, "a"), (2, "a"), label="m1"),
            MatchedPair((2, "b"), (3, "b"), label="m2"),
            MatchedPair((3, "c"), (1, "c"), label="m3"),
        ],
    )
    space = build_welded_space(spec)
    assert not space.orientable
    assert sum(1 for e in space.edges if e.kind == "boundary") == 3
    assert len(space.boundary_corners) == 3
    assert all(len(c.quadrants) == 3 for c in space.boundary_corners)
    assert len(space.crossings) == 0


def test_a_listed_label_may_not_name_a_coerced_pair() -> None:
    # without w4 the closure coerces 3.a ~ 4.a and names it auto1
    text = (FIXTURES / "quadrants.weld").read_text()
    text = text.replace("pair w1", "pair auto1").replace("pair w4 = 3.a ~ 4.a\n", "")
    spec = parse_welding_text(text, base=FIXTURES).spec
    with pytest.raises(WeldingError, match="edge label 'auto1' names two edges"):
        build_welded_space(spec)


@pytest.mark.parametrize("faces", [((3, "a"), (4, "a")), ((4, "a"), (3, "a"))])
@pytest.mark.parametrize("label", ["w4", None])
def test_a_listed_pair_coerced_earlier_takes_its_listed_label(faces, label) -> None:
    # w3 closes the chain 4, 1, 2, 3 and coerces 3.a ~ 4.a before the
    # last listed pair is reached, in either face order; unlabelled, it
    # keeps the number the closure gave it
    fan = quadrant_fan()
    spec = make_welding_spec(
        {i: fan for i in range(1, 5)},
        [
            MatchedPair((2, "a"), (1, "a")),
            MatchedPair((1, "b"), (4, "b"), label="w2"),
            MatchedPair((2, "b"), (3, "b"), label="w3"),
            MatchedPair(*faces, label=label),
        ],
    )
    space = build_welded_space(spec)
    assert space.pairs == (
        MatchedPair((1, "a"), (2, "a"), label="auto1"),
        MatchedPair((1, "b"), (4, "b"), label="w2"),
        MatchedPair((2, "b"), (3, "b"), label="w3"),
        MatchedPair((3, "a"), (4, "a"), label=label or "auto2"),
    )
    assert outcome(build_welded_space, spec) == outcome(weld_oracle.build_welded_space, spec)


def test_a_listed_label_may_not_name_a_boundary_edge() -> None:
    text = (FIXTURES / "upperhalf.weld").read_text().replace("pair k1", "pair 1.b")
    spec = parse_welding_text(text, base=FIXTURES).spec
    with pytest.raises(WeldingError, match="edge label '1.b' names two edges"):
        build_welded_space(spec)


def test_two_listed_pairs_may_not_share_a_label() -> None:
    fan = quadrant_fan()
    spec = make_welding_spec(
        {1: fan, 2: fan, 3: fan},
        [
            MatchedPair((1, "a"), (2, "a"), label="w"),
            MatchedPair((1, "b"), (3, "b"), label="w"),
        ],
    )
    with pytest.raises(WeldingError, match="edge label 'w' names two edges"):
        build_welded_space(spec)


def test_a_crossing_of_two_fans_joins_equal_residues_across_them() -> None:
    """Two distinct fans carry the residues (1, 0) and (0, 1) under
    other labels and ray indices; the crossing still joins each
    residue's two edges, whichever fan the left face of a link is in."""
    quad = load_fan("quadrant.fan")
    other = make_fan(
        [(0, 1), (-1, -1), (1, 0)], [[], [0], [1], [2], [0, 2]], labels=["y", "z", "x"]
    )
    spec = make_welding_spec(
        {1: quad, 2: other, 3: quad, 4: other},
        [
            MatchedPair((1, "a"), (2, "x"), label="h1"),
            MatchedPair((2, "y"), (3, "b"), label="v1"),
            MatchedPair((3, "a"), (4, "x"), label="h2"),
        ],
    )
    space = build_welded_space(spec)
    assert outcome(build_welded_space, spec) == outcome(weld_oracle.build_welded_space, spec)
    assert len(space.crossings) == 1
    assert [c.edge_labels for c in space.divisor_components] == [("h1", "h2"), ("v1", "auto1")]


def welded_fixtures_and_grids():
    """Every ``.weld`` fixture that welds, and each grid at m = 1 to 3."""
    for path in sorted(FIXTURES.glob("*.weld")):
        try:
            yield path.name, build_welded_space(load_welding(path.name).spec)
        except GloballyObstructedError:
            continue
    for variant in ("torus", "comb", "cylinder", "disc"):
        for m in (1, 2, 3):
            spec = parse_welding_text(grid_text(variant, m), base=FIXTURES).spec
            yield f"{variant} m={m}", build_welded_space(spec)


def test_a_crossing_walk_alternates_two_residues() -> None:
    """The assembly joins link i of a crossing's closed walk to link
    i + 2 because the walk alternates the corner's two rays: the
    residues of its four links, read off the fans, are r, s, r, s with
    r != s."""
    crossings = 0
    for name, space in welded_fixtures_and_grids():
        for c in space.crossings:
            r, s, r2, s2 = (weld_oracle.face_vector(space.spec, link.left) for link in c.links)
            assert (r2, s2) == (r, s) and r != s, (name, c.cluster_id)
            crossings += 1
    # 21 on the fixtures; 4m^2 on the torus and the comb, 2m(2m - 1) on
    # the cylinder and (2m - 1)^2 on the disc
    grids = sum(8 * m * m + 2 * m * (2 * m - 1) + (2 * m - 1) ** 2 for m in (1, 2, 3))
    assert crossings == 21 + grids


# Welds of quadrant domains that leave a corner the closure would not,
# with the message ``_assemble`` rejects each with.
UNLEFT_CORNERS = [
    (
        [((1, "a"), (2, "a")), ((1, "b"), (2, "b"))],
        "corner cycle of length 2 at quadrant {a, b} of domain 1",
    ),
    # the closure would coerce 4.a ~ 1.a
    (
        [((1, "b"), (2, "b")), ((2, "a"), (3, "a")), ((3, "b"), (4, "b"))],
        "unresolved corner chain of length 4 at quadrant {a, b} of domain 1",
    ),
]


def assemble_unclosed(faces) -> GeometryError:
    """The error ``_assemble`` raises on the quadrant domains welded by
    ``faces`` alone, without the closure."""
    spec = quadrant_spec(4, faces)
    index = _WeldIndex(spec)
    lefts = []
    for pair in spec.pairs:
        _, f, g, forward, backward = _resolve(spec, pair)
        index.add(pair, f, g, forward, backward)
        lefts.append(f)
    with pytest.raises(GeometryError) as err:
        _assemble(spec, index, lefts)
    return err.value


@pytest.mark.parametrize("faces,message", UNLEFT_CORNERS)
def test_assemble_rejects_corners_the_closure_never_leaves(faces, message: str) -> None:
    spec = quadrant_spec(4, faces)
    with pytest.raises(GeometryError) as oracle:
        weld_oracle.assemble(spec)
    assert str(assemble_unclosed(faces)) == str(oracle.value) == message


def test_assemble_errors_do_not_depend_on_the_hash_seed() -> None:
    """Two fresh interpreters whose string hashes differ print the same
    ``_assemble`` errors, byte for byte."""
    script = (
        "import sys\n"
        "from test_welding import UNLEFT_CORNERS, assemble_unclosed\n"
        "for faces, _ in UNLEFT_CORNERS:\n"
        "    print(assemble_unclosed(faces), file=sys.stderr)\n"
    )
    src = Path(logaffine.__file__).resolve().parent.parent
    path = os.pathsep.join((str(src), str(Path(__file__).resolve().parent)))
    stderr = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        ).stderr
        for seed in ("1", "2")
    ]
    assert stderr[0] == stderr[1] == "".join(f"{message}\n" for _, message in UNLEFT_CORNERS)


def test_each_distinct_fan_is_built_once(monkeypatch) -> None:
    from logaffine import welding

    calls = []
    original = welding.validate_fan

    def counting(fan):
        calls.append(fan)
        return original(fan)

    monkeypatch.setattr(welding, "validate_fan", counting)
    quad, hexagon = quadrant_fan(), hexagon_fan()
    spec = make_welding_spec({1: quad, 2: hexagon, 3: quadrant_fan(), 4: quad}, [])
    assert calls == [quad, hexagon]
    assert spec.fan(1) is spec.fan(3) is spec.fan(4)

    bad = make_fan([(1, 0), (2, 0)], [[], [0], [1]], labels=["a", "b"])
    with pytest.raises(InvalidFanError) as shared:
        make_welding_spec({1: bad, 2: bad, 3: bad}, [])
    with pytest.raises(InvalidFanError) as alone:
        make_welding_spec({1: bad}, [])
    assert shared.value.violations == alone.value.violations
    assert shared.value.violations


def test_a_shared_fan_is_hashed_per_object_not_per_domain(monkeypatch) -> None:
    """A frozen ``Fan`` hashes every Fraction of its vectors, so the
    parse of a grid whose domains share one fan hashes it by value
    once, and the Fractions with it, whatever the number of domains;
    an equal but distinct fan is hashed once more."""
    hashes = {"fan": 0, "fraction": 0}
    fan_hash, fraction_hash = Fan.__hash__, Fraction.__hash__

    def counting_fan(fan):
        hashes["fan"] += 1
        return fan_hash(fan)

    def counting_fraction(q):
        hashes["fraction"] += 1
        return fraction_hash(q)

    counts = []
    for m in (3, 12):
        text = grid_text("torus", m)
        monkeypatch.setattr(Fan, "__hash__", counting_fan)
        monkeypatch.setattr(Fraction, "__hash__", counting_fraction)
        parse_welding_text(text, base=FIXTURES)
        monkeypatch.undo()
        counts.append(dict(hashes))
        hashes.update(fan=0, fraction=0)
    assert counts[0] == counts[1]
    assert counts[1]["fan"] == 1

    quad = quadrant_fan()
    monkeypatch.setattr(Fan, "__hash__", counting_fan)
    make_welding_spec({1: quad, 2: quadrant_fan(), 3: quad, 4: quad}, [])
    assert hashes["fan"] == 2


# ------------------------------------------------- closure against oracle


FANS = ("quadrant.fan", "halfplane3.fan", "square.fan", "triangle.fan", "hexagon.fan")


def outcome(build, spec):
    """Everything ``build`` makes of ``spec``, or its error and witnesses."""
    try:
        space = build(spec)
    except GeometryError as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "holder", None),
            getattr(exc, "offending", None),
            getattr(exc, "witnesses", None),
        )
    return (
        space.pairs,
        space.edges,
        space.clusters,
        space.divisor_components,
        space.orientable,
        space.domain_signs,
        space.compact,
    )


@st.composite
def grid_weldings(draw):
    """Random subsets of the pairs of a grid, in random order and orientation."""
    variant = draw(st.sampled_from(("torus", "comb", "cylinder", "disc")))
    m = draw(st.sampled_from((1, 2)))
    pairs = draw(st.permutations(grid_pairs(variant, m)))
    pairs = pairs[: draw(st.integers(min_value=0, max_value=len(pairs)))]
    square = load_fan("square.fan")
    return make_welding_spec(
        {i: square for i in range(1, 4 * m * m + 1)},
        [
            MatchedPair((d1, r1), (d2, r2)) if draw(st.booleans())
            else MatchedPair((d2, r2), (d1, r1))
            for d1, r1, d2, r2 in pairs
        ],
    )


@st.composite
def matched_weldings(draw):
    """Random lists of matched pairs with free faces over small fans.

    Each domain's rays get their labels in a random order, so a weld
    must translate labels.  Some pairs are unlabelled, so the automatic
    labels and a listed label replacing a coerced pair's both occur.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    fans = {}
    for i in range(1, n + 1):
        fan = load_fan(draw(st.sampled_from(FANS)))
        labels = draw(st.permutations("abcdef"))[: len(fan.labels)]
        fans[i] = replace(fan, labels=tuple(labels))
    spec = make_welding_spec(fans, [])
    candidates = [
        MatchedPair((d1, r1), (d2, r2))
        for d1 in fans
        for d2 in fans
        if d1 < d2
        for r1 in fans[d1].labels
        for r2 in fans[d2].labels
        if weld_oracle.is_matched_pair(spec, MatchedPair((d1, r1), (d2, r2)))[0]
    ]
    used: set = set()
    pairs = []
    for k, pair in enumerate(draw(st.permutations(candidates))):
        if used.isdisjoint(pair.faces()) and draw(st.booleans()):
            used.update(pair.faces())
            left, right = pair.faces() if draw(st.booleans()) else pair.faces()[::-1]
            label = f"p{k + 1}" if draw(st.booleans()) else None
            pairs.append(MatchedPair(left, right, label=label))
    return make_welding_spec(fans, pairs)


@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(grid_weldings(), matched_weldings()), data=st.data())
def test_closure_matches_the_slow_oracle(spec, data) -> None:
    expected = outcome(weld_oracle.build_welded_space, spec)
    assert outcome(build_welded_space, spec) == expected
    # a spec built by hand may list its domains in any order
    items = data.draw(st.permutations(spec.domain_items))
    assert outcome(build_welded_space, replace(spec, domain_items=tuple(items))) == expected


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.weld")))
def test_closure_matches_the_slow_oracle_on_fixtures(name: str) -> None:
    spec = load_welding(name).spec
    assert outcome(build_welded_space, spec) == outcome(weld_oracle.build_welded_space, spec)


@pytest.mark.parametrize(
    "faces",
    [
        [((1, "a"), (2, "b"))],  # vectors differ
        [((1, "a"), (3, "a"))],  # no domain 3
        [((1, "a"), (1, "b"))],  # one domain
        [((1, "a"), (2, "a")), ((2, "a"), (1, "b"))],  # face 2.a twice
    ],
)
def test_a_spec_built_without_checks_welds_as_the_oracle_does(faces) -> None:
    """``build_welded_space`` checks the listed pairs of a spec that
    ``make_welding_spec`` did not check, with the oracle's errors."""
    quad = quadrant_fan()
    spec = replace(
        make_welding_spec({1: quad, 2: quad}, []),
        pairs=tuple(MatchedPair(left, right) for left, right in faces),
    )
    got = outcome(build_welded_space, spec)
    assert got[0] in (NotMatchedError, FaceInUseError)
    assert got == outcome(weld_oracle.build_welded_space, spec)


@pytest.mark.parametrize("variant", ["torus", "comb", "cylinder", "disc"])
def test_each_fan_ray_pair_is_matched_once(variant: str, monkeypatch) -> None:
    """A square grid welds rays a, b, c and d each to the same ray of
    one shared fan: four fan-ray pairs, however many faces it welds."""
    from logaffine import welding

    calls = []
    original = welding._match_rays

    def counting(left, i, right, j):
        calls.append((left, i, right, j))
        return original(left, i, right, j)

    monkeypatch.setattr(welding, "_match_rays", counting)
    spec = parse_welding_text(grid_text(variant, 2), base=FIXTURES).spec
    space = build_welded_space(spec)
    assert len(space.pairs) >= len(spec.pairs) > 4
    assert len(calls) == 4
    # the memo is private: the spec still equals one built afresh
    monkeypatch.undo()
    assert spec == parse_welding_text(grid_text(variant, 2), base=FIXTURES).spec


def test_a_copied_spec_leaves_the_match_memo_behind() -> None:
    """The memo is keyed by fan ids, which a copy's fans do not share."""
    spec = parse_welding_text(grid_text("torus", 1), base=FIXTURES).spec
    space = build_welded_space(spec)
    assert "_matches" in spec.__dict__
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert "_matches" not in copied.__dict__
        assert copied == spec
        assert build_welded_space(copied) == space


def test_a_memoized_mismatch_keeps_each_pairs_message() -> None:
    """The verdict is shared by fan-ray pair, the domain checks are not."""
    quad = quadrant_fan()
    spec = make_welding_spec({1: quad, 2: quad, 3: quad}, [])
    messages = []
    for pair in (
        MatchedPair((1, "a"), (2, "b")),
        MatchedPair((2, "a"), (3, "b")),
        MatchedPair((1, "a"), (1, "b")),
        MatchedPair((1, "a"), (4, "b")),
    ):
        with pytest.raises(NotMatchedError) as err:
            weld_pair(spec, pair)
        messages.append(str(err.value))
        assert str(err.value).endswith(is_matched_pair(spec, pair).reason)
    assert messages[0].startswith("pair 1.a ~ 2.b: face vectors differ")
    assert messages[1].startswith("pair 2.a ~ 3.b: face vectors differ")
    assert messages[2:] == [
        "pair 1.a ~ 1.b: both faces belong to the same domain",
        "pair 1.a ~ 4.b: unknown domain 4",
    ]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spec=matched_weldings())
def test_is_matched_pair_agrees_with_the_oracle_on_every_face_pair(spec) -> None:
    """Every ordered pair of faces, with an unknown domain, a missing
    label and both faces in one domain among them; the second pass
    reads only the memo."""
    faces = [(d, label) for d, fan in spec.domain_items for label in (*fan.labels, "z")]
    faces.append((max(spec.domain_ids) + 1, "a"))
    pairs = [MatchedPair(left, right) for left in faces for right in faces]
    for _ in range(2):
        for pair in pairs:
            result = is_matched_pair(spec, pair)
            expected = weld_oracle.is_matched_pair(spec, pair)
            assert (result.ok, result.reason, result.correspondence) == expected, pair.describe()


def test_welding_looks_no_ray_up_by_vector() -> None:
    """A weld pairs two rays' neighbours by position: no fan keeps a
    table of stars, and welding a fixture builds no vector index."""
    assert not hasattr(Fan, "stars")
    for path in sorted(FIXTURES.glob("*.weld")):
        spec = parse_welding_file(path).spec
        try:
            build_welded_space(spec)
        except GloballyObstructedError:  # the obstructed fixtures
            pass
        for _, fan in spec.domain_items:
            assert "_vector_index" not in vars(fan), path.name


def test_each_pair_is_matched_once(monkeypatch) -> None:
    from logaffine import welding

    calls = []
    original = welding._match_rays

    def counting(left, i, right, j):
        calls.append((left, i, right, j))
        return original(left, i, right, j)

    monkeypatch.setattr(welding, "_match_rays", counting)
    square = load_fan("square.fan")
    listed = [MatchedPair((d1, r1), (d2, r2)) for d1, r1, d2, r2 in grid_pairs("comb", 3)]
    spec = make_welding_spec({i: square for i in range(1, 37)}, listed)
    space = build_welded_space(spec)
    assert len(space.pairs) > len(listed)  # the closure coerced the other rungs
    assert len(calls) <= len(listed) + len(space.pairs)
