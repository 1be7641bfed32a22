"""File format tests: round trips, error locations, dispatch."""

import json
import subprocess
import time
from fractions import Fraction
from unittest import mock

import pytest
from conftest import FIXTURES, fixture_path, other_python
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logaffine import fileio
from logaffine.cli import main
from logaffine.errors import FaceInUseError, NotMatchedError, SpecFileError
from logaffine.fileio import (
    _fraction,
    _parse_face_ref,
    _split_assignment,
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


FAN = "logaffine fan 1\ndim 2\n"
WELD = "logaffine welding 1\nfan Q = quadrant.fan\n"
POLY = "logaffine polytope 1\nwelding quadrants.weld\n"
BUNDLE = "logaffine bundle 1\n"


# One malformed text per error line of the parser that no other test
# reaches: the parser, the text, the line it names and the message.
@pytest.mark.parametrize(
    "kind, text, line, message",
    [
        ("fan", "logaffine fan\n", 1, "expected header 'logaffine fan 1'"),
        ("bundle", "logaffine record 1\n", 1, "unknown file kind 'record'"),
        ("fan", FAN + "vector a = (1, 0)\ncone a\n", 4, "expected a bracketed list, got 'a'"),
        ("weld", WELD + "domain 1 = Q\ndomain 2 = Q\npair p = 1a ~ 2.a\n", 5,
         "expected a face reference like 1.a, got '1a'"),
        ("fan", FAN + "vector a (1, 0)\n", 3, "expected 'vector <name> = ...'"),
        ("fan", FAN + "vector = (1, 0)\n", 3, "expected 'vector <name> = ...'"),
        ("fan", "logaffine fan 1\n# no dim\n", 1, "missing dim line"),
        ("weld", WELD + "domain 0 = Q\n", 3, "invalid domain id '0'"),
        ("poly", POLY + "constraint 1.e = -1 + 1\n", 3,
         "expected '(covector) +/- constant', got '-1 + 1'"),
        ("poly", POLY + "constraint 1.e = (-1, 0 + 1\n", 3, "unterminated covector"),
        ("poly", POLY + "constraint 1.e = (-1, 0) 1\n", 3,
         "expected '+ constant' or '- constant' after covector"),
        ("poly", POLY + "constraint 1.e = (-1, 0) + 1\ngroup E = [1.e]\ngroup E = [1.e]\n", 5,
         "duplicate group 'E'"),
        ("poly", POLY + "group E = []\n", 3, "group 'E' is empty"),
        ("bundle", BUNDLE + "rank 1\nrank 1\n", 3, "duplicate rank line"),
        ("bundle", BUNDLE + "rank 1\ncharge 1 = (1)\n", 3, "unknown directive 'charge'"),
        ("bundle", BUNDLE + "# no rank\n", 1, "missing rank line"),
    ],
)
def test_each_parser_error_names_its_line(kind, text, line, message):
    parse = {
        "fan": parse_fan_text,
        "weld": lambda t: parse_welding_text(t, base=FIXTURES),
        "poly": lambda t: parse_polytope_text(t, base=FIXTURES),
        "bundle": parse_bundle_text,
    }[kind]
    err = parse_error(parse, text)
    assert (err.line, err.reason) == (line, message)


def test_a_rank_40000_bundle_parses_in_seconds():
    """A repeated chern index is found by lookup, not by a scan of the
    earlier lines, so parsing is linear in the rank."""
    rank = 40_000
    text = f"logaffine bundle 1\nrank {rank}\n" + "".join(
        f"chern {i} = ({i % 7})\n" for i in range(rank, 0, -1)
    )
    start = time.perf_counter()
    bundle = parse_bundle_text(text)
    assert time.perf_counter() - start < 5
    assert bundle.rank == rank
    assert bundle.chern[:8] == tuple((Fraction(i % 7),) for i in range(1, 9))


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


@pytest.mark.parametrize("text", ["", "\n  \n", "# only\n\n  # comments\n"])
def test_a_file_without_a_header_is_empty(tmp_path, text):
    for sniff in (lambda: sniff_kind(text, "x"), lambda: parse_fan_text(text, "x")):
        err = parse_error(lambda _: sniff(), text)
        assert (err.path, err.line, err.reason) == ("x", 1, "empty file")
    (tmp_path / "x.fan").write_text(text)
    err = parse_error(lambda _: load_workspace_file(tmp_path / "x.fan"), text)
    assert (err.line, err.reason) == (1, "empty file")


def test_sniff_reads_the_first_line_that_is_not_blank_or_a_comment():
    text = "\n# logaffine fan 1\n  logaffine polytope 1  \nlogaffine fan 1\n"
    assert sniff_kind(text) == "polytope"
    err = parse_error(sniff_kind, "# c\n\nlogaffine sheaf 1\nlogaffine fan 1\n")
    assert (err.line, err.reason) == (3, "expected header 'logaffine <kind> 1'")


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


# ---------------------------------------------------------- number tokens

# Tokens that reach ``_fraction``: stripped, so never blank at either end.
TOKEN_ALPHABET = "0123456789-+_/.eE ²٣"
NUMBER_TOKENS = st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=8).map(str.strip)
TOKEN_EXAMPLES = ["1_0", "+5", "-0", "--5", "²", "٣", "0.5", "1e3", "3/0", "-7/14"]


def read_as_fraction(token: str):
    """``Fraction(token)``, or the ``SpecFileError`` text that
    ``_fraction`` must raise when ``Fraction`` refuses the token."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return str(SpecFileError("p", 7, f"invalid rational number {token!r}"))


def read_by_fileio(token: str):
    try:
        return _fraction("p", 7, token)
    except SpecFileError as err:
        return str(err)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(token=NUMBER_TOKENS)
@example(token="1_0")
@example(token="+5")
@example(token="-0")
@example(token="--5")
@example(token="²")
@example(token="٣")
@example(token="0.5")
@example(token="1e3")
@example(token="3/0")
@example(token="-7/14")
def test_number_tokens_read_as_by_fraction(token: str) -> None:
    got, want = read_by_fileio(token), read_as_fraction(token)
    assert (type(got), got) == (type(want), want)


# The same comparison on the examples and 3,000 seeded tokens of the
# alphabet above, stdlib-only, for another Python: Fraction reads "_"
# from 3.11 on and spaces around "/" from 3.12 on, int reads "_" on all.
TOKEN_REPLAY = """
import json, random, sys
from fractions import Fraction

sys.path.insert(0, sys.argv[1] + "/src")
from logaffine.errors import SpecFileError
from logaffine.fileio import _fraction

rng = random.Random(29)
alphabet = sys.argv[3]
tokens = json.loads(sys.argv[2]) + [
    "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))).strip() for _ in range(3000)
]
mismatches = []
for token in tokens:
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        want = str(SpecFileError("p", 7, "invalid rational number %r" % token))
    try:
        got = _fraction("p", 7, token)
    except SpecFileError as err:
        got = str(err)
    if (type(got), got) != (type(want), want):
        mismatches.append(token)
print(json.dumps([len(tokens), mismatches]))
"""


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_number_tokens_read_as_by_fraction_on_other_pythons(version: str) -> None:
    python, env = other_python(version)
    run = subprocess.run(
        [python, "-I", "-B", "-c", TOKEN_REPLAY, str(FIXTURES.parent)]
        + [json.dumps(TOKEN_EXAMPLES), TOKEN_ALPHABET],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [len(TOKEN_EXAMPLES) + 3000, []]


# ------------------------------------------------------------- pair lines

# Five lines before the pair line under test: domains 1 to 3, label "p" taken.
PAIR_HEAD = "logaffine welding 1\nfan S = square.fan\n" + "".join(
    f"domain {i} = S\n" for i in (1, 2, 3)
) + "pair p = 1.a ~ 2.a\n"


def pair_by_tokens(line: str):
    """The pair line ``line`` (stripped, line 7 of ``p``) read token by
    token, as the welding parser read it before one pattern did: the
    pair's faces and label, or the ``SpecFileError`` text."""
    try:
        name, rest = _split_assignment("p", 7, line, "pair")
        if name == "p":
            raise SpecFileError("p", 7, f"duplicate pair label {name!r}")
        sides = rest.split("~")
        if len(sides) != 2:
            raise SpecFileError("p", 7, "expected '<d>.<ray> ~ <d>.<ray>'")
        left = _parse_face_ref("p", 7, sides[0])
        right = _parse_face_ref("p", 7, sides[1])
        for ref in (left, right):
            if ref[0] not in (1, 2, 3):
                raise SpecFileError("p", 7, f"unknown domain {ref[0]}")
        return left, right, name
    except SpecFileError as err:
        return str(err)


def pair_by_fileio(line: str):
    # the pairs as parsed, before make_welding_spec matches them
    with mock.patch.object(fileio, "make_welding_spec", lambda domains, pairs: pairs):
        try:
            pair = parse_welding_text(PAIR_HEAD + line + "\n", "p", base=FIXTURES).spec[-1]
        except SpecFileError as err:
            return str(err)
    return pair.left, pair.right, pair.label


# Whitespace that str.strip and the pattern's \s both take (NBSP and the
# unit separator among it), but no line break: the line stays one line.
SPACES = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\x1f"])
DOMAIN_TOKENS = st.sampled_from(["1", "2", "3", "٣", "01", "4", "0", "", "x", "²"])


@st.composite
def pair_lines(draw) -> str:
    """Pair lines near the well-formed ones: names with inner spaces, "~"
    or the taken label "p"; "=" and "~" missing, doubled or moved; labels
    holding "=", "~" or "."; Unicode digits; undeclared domains."""

    def side() -> str:
        dot = draw(st.sampled_from([".", ".", "", ".."]))
        return draw(DOMAIN_TOKENS) + dot + draw(st.text(alphabet="ab=~.", max_size=3))

    parts = [
        "pair",
        draw(st.sampled_from([" ", "\t", "\u00a0 ", "\x1f"])),
        draw(st.text(alphabet="pq ~.1", max_size=4)),
        draw(SPACES),
        draw(st.sampled_from(["=", "=", "", "==", "= ="])),
        draw(SPACES),
        side(),
        draw(SPACES),
        draw(st.sampled_from(["~", "~", "", "~~", " ~ ~"])),
        draw(SPACES),
        side(),
        draw(SPACES),
    ]
    return "".join(parts)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(line=st.one_of(pair_lines(), st.text(alphabet="pq1٣.~= ", max_size=12).map("pair ".__add__)))
@example(line="pair q r = 1.a ~ 2.b")
@example(line="pair p = 1.a ~ 3.a")
@example(line="pair q = ٣.a ~ 01.b=")
@example(line="pair q = 1.a ~ 4.a")
@example(line="pair q~ = 1.a ~~ 2.a")
@example(line="pair q = 1.a~2.b \x1f")
@example(line="pair  = 1.a ~ 2.a")
def test_pair_lines_read_as_token_by_token(line: str) -> None:
    got, want = pair_by_fileio(line), pair_by_tokens(line.strip())
    assert (type(got), got) == (type(want), want)


# ----------------------------------------------------------- domain lines

# Three lines before the domain line under test: fan "S" and domain 2.
DOMAIN_HEAD = "logaffine welding 1\nfan S = square.fan\ndomain 2 = S\n"


@pytest.mark.parametrize(
    "line, want",
    [
        ("domain 007 = S", (7, "S")),
        ("domain \u0663 = S", (3, "S")),  # a decimal digit int reads
        ("domain \u00b2 = S", "d:4: invalid domain id '\u00b2'"),  # a digit int does not read
        ("domain 0 = S", "d:4: invalid domain id '0'"),
        ("domain 2 = S", "d:4: duplicate domain id 2"),
        ("domain 1 = T", "d:4: unknown fan alias 'T'"),
    ],
)
def test_a_domain_id_is_decimal_digits_int_reads(line: str, want) -> None:
    try:
        wf = parse_welding_text(DOMAIN_HEAD + line + "\n", "d", base=FIXTURES)
    except SpecFileError as err:
        got = str(err)
    else:
        got = wf.domain_fans[-1]
    assert got == want


@pytest.mark.parametrize(
    "text, want",
    [
        ("logaffine fan 1\ndim \u00b2\n", "n:2: invalid dimension '\u00b2'"),
        ("logaffine bundle 1\nrank \u00b2\n", "n:2: invalid rank '\u00b2'"),
        (
            "logaffine bundle 1\nrank 1\nchern \u00b2 = (0)\n",
            "n:3: chern index '\u00b2' out of range",
        ),
    ],
)
def test_a_dimension_rank_or_chern_index_is_decimal_digits(tmp_path, capsys, text, want) -> None:
    """A digit that ``int`` does not read, as ``\u00b2``, is a parse error
    with its line, and the CLI exits 2 on it, as on a domain id."""
    parse = parse_fan_text if text.startswith("logaffine fan") else parse_bundle_text
    assert str(parse_error(parse, text, path="n")) == want
    path = tmp_path / "n"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert want.split(": ", 1)[1] in capsys.readouterr().err
