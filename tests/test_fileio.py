"""File format tests: round trips, error locations, dispatch."""

from fractions import Fraction

import pytest
from conftest import FIXTURES, fixture_path

from logaffine.errors import FaceInUseError, NotMatchedError, SpecFileError
from logaffine.fileio import (
    load_workspace_file,
    parse_bundle_text,
    parse_fan_text,
    parse_polytope_file,
    parse_polytope_text,
    parse_welding_text,
    serialize_bundle,
    serialize_fan,
    serialize_polytope,
    serialize_welding,
    sniff_kind,
)

ALL_FIXTURES = sorted(p.name for p in FIXTURES.iterdir())
CANONICAL = [name for name in ALL_FIXTURES if name != "badfan.fan"]

SERIALIZERS = {
    "fan": serialize_fan,
    "welding": serialize_welding,
    "polytope": serialize_polytope,
    "bundle": serialize_bundle,
}


@pytest.mark.parametrize("name", CANONICAL)
def test_round_trip_is_byte_identical(name):
    path = fixture_path(name)
    kind, payload = load_workspace_file(path)
    assert SERIALIZERS[kind](payload) == path.read_text()


def test_fixture_corpus_is_present():
    kinds = {name.rsplit(".", 1)[1] for name in ALL_FIXTURES}
    assert kinds == {"fan", "weld", "poly", "bundle"}


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# a comment\n"
        "logaffine fan 1\n"
        "\n"
        "dim 2\n"
        "vector a = (1, 0)   # trailing content is part of the vector? no\n"
    )
    # the inline comment above is intentionally NOT supported: '#' only
    # starts a comment at the beginning of a line, so this must fail.
    with pytest.raises(SpecFileError):
        parse_fan_text(text)
    clean = "# c\nlogaffine fan 1\n\ndim 2\nvector a = (1, 0)\ncone []\ncone [a]\n"
    fan = parse_fan_text(clean)
    assert fan.labels == ("a",)
    assert serialize_fan(fan) == (
        "logaffine fan 1\ndim 2\nvector a = (1, 0)\ncone []\ncone [a]\n"
    )


def test_rational_entries_round_trip():
    text = "logaffine fan 1\ndim 2\nvector a = (1/2, -3/4)\ncone []\ncone [a]\n"
    fan = parse_fan_text(text)
    assert fan.vectors[0] == (Fraction(1, 2), Fraction(-3, 4))
    assert serialize_fan(fan) == text


def parse_error(func, text, **kwargs):
    with pytest.raises(SpecFileError) as info:
        func(text, **kwargs)
    return info.value


def test_fan_error_locations():
    err = parse_error(parse_fan_text, "logaffine welding 1\n", path="x.fan")
    assert err.line == 1 and "x.fan" in str(err)

    err = parse_error(parse_fan_text, "logaffine fan 2\ndim 2\n")
    assert err.line == 1 and "version" in err.reason

    err = parse_error(parse_fan_text, "logaffine fan 1\nvector a = (1, 0)\n")
    assert err.line == 2 and "dim" in err.reason

    err = parse_error(
        parse_fan_text, "logaffine fan 1\ndim 2\nvector a = (1, 0)\ncone [b]\n"
    )
    assert err.line == 4 and "unknown vector label" in err.reason

    err = parse_error(
        parse_fan_text,
        "logaffine fan 1\ndim 2\nvector a = (1, 0)\nvector a = (0, 1)\n",
    )
    assert err.line == 4 and "duplicate" in err.reason

    err = parse_error(parse_fan_text, "logaffine fan 1\ndim 2\nvector a = (1,)\n")
    assert err.line == 3

    err = parse_error(parse_fan_text, "logaffine fan 1\ndim 2\nvector a = (1, 0, 0)\n")
    assert err.line == 3 and "length" in err.reason

    err = parse_error(
        parse_fan_text,
        "logaffine fan 1\ndim 2\nvector a = (1, 0)\ncone [a a]\n",
    )
    assert err.line == 4 and "repeated" in err.reason

    err = parse_error(parse_fan_text, "logaffine fan 1\ndim 2\nray a = (1, 0)\n")
    assert err.line == 3 and "unknown directive" in err.reason

    err = parse_error(parse_fan_text, "")
    assert err.line == 1 and "empty" in err.reason

    err = parse_error(parse_fan_text, "logaffine fan 1\ndim 0\n")
    assert err.line == 2 and "dimension" in err.reason


def test_welding_error_locations(tmp_path):
    fan_text = "logaffine fan 1\ndim 2\nvector a = (1, 0)\ncone []\ncone [a]\n"
    (tmp_path / "one.fan").write_text(fan_text)

    def weld(text):
        return parse_welding_text(text, path="w.weld", base=tmp_path)

    err = parse_error(
        lambda t: weld(t), "logaffine welding 1\nfan Q = missing.fan\n"
    )
    assert err.line == 2 and "not found" in err.reason

    err = parse_error(
        lambda t: weld(t),
        "logaffine welding 1\nfan Q = one.fan\ndomain 1 = Q\ndomain 1 = Q\n",
    )
    assert err.line == 4 and "duplicate domain" in err.reason

    err = parse_error(
        lambda t: weld(t),
        "logaffine welding 1\nfan Q = one.fan\ndomain 1 = R\n",
    )
    assert err.line == 3 and "unknown fan alias" in err.reason

    err = parse_error(
        lambda t: weld(t),
        "logaffine welding 1\nfan Q = one.fan\ndomain 1 = Q\npair p = 1.a ~ 2.a\n",
    )
    assert err.line == 4 and "unknown domain" in err.reason

    err = parse_error(
        lambda t: weld(t),
        "logaffine welding 1\nfan Q = one.fan\ndomain 1 = Q\npair p = 1.a - 1.a\n",
    )
    assert err.line == 4

    err = parse_error(lambda t: weld(t), "logaffine welding 1\nfan Q = one.fan\n")
    assert "no domains" in err.reason


def test_welding_semantic_errors_surface_from_construction(tmp_path):
    (tmp_path / "h.fan").write_text(
        "logaffine fan 1\ndim 1\nvector r = (1)\ncone []\ncone [r]\n"
    )
    (tmp_path / "g.fan").write_text(
        "logaffine fan 1\ndim 1\nvector r = (-1)\ncone []\ncone [r]\n"
    )
    with pytest.raises(NotMatchedError):
        parse_welding_text(
            "logaffine welding 1\nfan H = h.fan\nfan G = g.fan\n"
            "domain 1 = H\ndomain 2 = G\npair p = 1.r ~ 2.r\n",
            base=tmp_path,
        )
    with pytest.raises(FaceInUseError):
        parse_welding_text(
            "logaffine welding 1\nfan H = h.fan\n"
            "domain 1 = H\ndomain 2 = H\ndomain 3 = H\n"
            "pair p = 1.r ~ 2.r\npair q = 1.r ~ 3.r\n",
            base=tmp_path,
        )


def test_polytope_error_locations(tmp_path):
    (tmp_path / "one.fan").write_text(
        "logaffine fan 1\ndim 2\nvector a = (1, 0)\ncone []\ncone [a]\n"
    )
    (tmp_path / "w.weld").write_text(
        "logaffine welding 1\nfan Q = one.fan\ndomain 1 = Q\n"
    )

    def parse(text):
        from logaffine.fileio import parse_polytope_text

        return parse_polytope_text(text, path="p.poly", base=tmp_path)

    err = parse_error(parse, "logaffine polytope 1\nconstraint 1.f = (1, 0) + 0\n")
    assert err.line == 2 and "welding line" in err.reason

    err = parse_error(
        parse,
        "logaffine polytope 1\nwelding w.weld\nconstraint 2.f = (1, 0) + 0\n",
    )
    assert err.line == 3 and "unknown domain" in err.reason

    err = parse_error(
        parse,
        "logaffine polytope 1\nwelding w.weld\n"
        "constraint 1.f = (1, 0) + 0\nconstraint 1.f = (0, 1) + 0\n",
    )
    assert err.line == 4 and "duplicate constraint" in err.reason

    err = parse_error(
        parse,
        "logaffine polytope 1\nwelding w.weld\n"
        "constraint 1.f = (1, 0) + 0\ngroup G = [1.g]\n",
    )
    assert err.line == 4 and "not a constraint" in err.reason

    err = parse_error(
        parse,
        "logaffine polytope 1\nwelding w.weld\norientation ++\n",
    )
    assert err.line == 3 and "orientation" in err.reason

    err = parse_error(
        parse,
        "logaffine polytope 1\nwelding w.weld\nconstraint 1.f = (1, 0) + -1\n",
    )
    assert err.line == 3 and "'-'" in err.reason

    err = parse_error(parse, "logaffine polytope 1\nwelding nope.weld\n")
    assert err.line == 2 and "not found" in err.reason

    err = parse_error(parse, "logaffine polytope 1\n")
    assert "missing welding line" in err.reason


def test_bundle_errors():
    err = parse_error(parse_bundle_text, "logaffine bundle 1\nrank 0\n")
    assert err.line == 2 and "rank" in err.reason

    err = parse_error(parse_bundle_text, "logaffine bundle 1\nchern 1 = (1)\n")
    assert err.line == 2 and "rank" in err.reason

    err = parse_error(
        parse_bundle_text, "logaffine bundle 1\nrank 1\nchern 2 = (1)\n"
    )
    assert err.line == 3 and "out of range" in err.reason

    err = parse_error(
        parse_bundle_text,
        "logaffine bundle 1\nrank 2\nchern 1 = (1)\nchern 1 = (0)\n",
    )
    assert err.line == 4 and "duplicate" in err.reason

    err = parse_error(parse_bundle_text, "logaffine bundle 1\nrank 2\nchern 1 = (1)\n")
    assert "1..2" in err.reason


def test_only_chern_vectors_may_be_empty():
    bundle = parse_bundle_text("logaffine bundle 1\nrank 1\nchern 1 = ()\n")
    assert bundle.chern == ((),)
    assert parse_bundle_text(serialize_bundle(bundle)) == bundle
    err = parse_error(parse_fan_text, "logaffine fan 1\ndim 2\nvector a = ()\n")
    assert err.line == 3 and err.reason == "empty vector"
    err = parse_error(
        parse_polytope_text,
        "logaffine polytope 1\nwelding plane.weld\nconstraint 1.f = () + 0\n",
        base=FIXTURES,
    )
    assert err.line == 3 and err.reason == "empty vector"


def test_sniff_and_dispatch():
    assert sniff_kind("logaffine bundle 1\nrank 1\n") == "bundle"
    with pytest.raises(SpecFileError):
        sniff_kind("logaffine sheaf 1\n")
    kind, fan = load_workspace_file(fixture_path("triangle.fan"))
    assert kind == "fan" and fan.labels == ("a", "b", "c")
    kind, wf = load_workspace_file(fixture_path("quadrants.weld"))
    assert kind == "welding" and wf.spec.domain_ids == (1, 2, 3, 4)
    kind, pf = load_workspace_file(fixture_path("rect.poly"))
    assert kind == "polytope" and len(pf.spec.constraints) == 8
    kind, bundle = load_workspace_file(fixture_path("hopf.bundle"))
    assert kind == "bundle" and bundle.rank == 2


def test_missing_file_is_a_spec_error(tmp_path):
    with pytest.raises(SpecFileError) as info:
        load_workspace_file(tmp_path / "nope.fan")
    assert "cannot read" in info.value.reason


def test_polytope_file_exposes_welding(tmp_path):
    pf = parse_polytope_file(fixture_path("rect.poly"))
    assert pf.welding_path == "quadrants.weld"
    assert pf.welding.fan("Q").labels == ("a", "b")
    assert pf.spec.orientation == 1
    assert [name for name, _ in pf.spec.groups] == ["E", "N", "S", "W"]
