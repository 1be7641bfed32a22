"""Line-based file formats for fans, weldings, polytopes and bundles.

Every file starts with a header ``logaffine <kind> 1``.  Blank lines
and ``#`` comments are ignored on input; canonical serialization emits
neither, and parsing a canonical file followed by serialization
reproduces the input byte for byte.

Fan files::

    logaffine fan 1
    dim 2
    vector a = (1, 0)
    vector b = (0, 1)
    cone []
    cone [a]
    cone [a b]

Welding files reference fan files by relative path::

    logaffine welding 1
    fan T = triangle.fan
    domain 1 = T
    domain 2 = T
    pair p1 = 1.a ~ 2.a

Polytope files reference a welding file and list constraints
``covector + constant`` per domain, continuation groups, and an
orientation sign::

    logaffine polytope 1
    welding quadrants.weld
    constraint 1.e = (-1, 0) + 1
    group E = [1.e 4.e]
    orientation +

Bundle files list the rank and one Chern vector per circle factor::

    logaffine bundle 1
    rank 2
    chern 1 = (1)
    chern 2 = (0)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import SpecFileError
from .fans import Fan, make_fan
from .rational import AffineFunctional, Vector
from .welding import MatchedPair, WeldingSpec, make_welding_spec

if TYPE_CHECKING:
    from .classification import InvariantRecord, LogBundle
    from .polytopes import PolytopeSpec

FORMAT_VERSION = 1
KINDS = ("fan", "welding", "polytope", "bundle")


@dataclass(frozen=True)
class WeldingFile:
    """A parsed welding file: fan aliases, domain table and the spec."""

    fan_files: tuple[tuple[str, str], ...]  # (alias, relative path)
    fans: tuple[tuple[str, Fan], ...]  # (alias, parsed fan)
    domain_fans: tuple[tuple[int, str], ...]  # (domain id, alias)
    spec: WeldingSpec

    def fan(self, alias: str) -> Fan:
        for name, fan in self.fans:
            if name == alias:
                return fan
        raise KeyError(f"no fan alias {alias!r}")


@dataclass(frozen=True)
class PolytopeFile:
    """A parsed polytope file and the welding file it references."""

    welding_path: str
    welding: WeldingFile
    spec: PolytopeSpec


# ------------------------------------------------------------- scanning


def _lines(text: str, path: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((number, line))
    if not out:
        raise SpecFileError(path, 1, "empty file")
    return out


def _parse_header(path: str, number: int, line: str, kind: str) -> None:
    parts = line.split()
    if len(parts) != 3 or parts[0] != "logaffine":
        raise SpecFileError(path, number, f"expected header 'logaffine {kind} 1'")
    if parts[1] not in KINDS:
        raise SpecFileError(path, number, f"unknown file kind {parts[1]!r}")
    if parts[1] != kind:
        raise SpecFileError(path, number, f"expected a {kind} file, found {parts[1]!r}")
    if parts[2] != str(FORMAT_VERSION):
        raise SpecFileError(path, number, f"unsupported format version {parts[2]!r}")


def _fraction(path: str, number: int, token: str) -> Fraction:
    # int reads "-" and digits faster; isdigit refuses "_", as Fraction does on 3.10
    try:
        return Fraction(int(token) if token.removeprefix("-").isdigit() else token)
    except (ValueError, ZeroDivisionError):
        raise SpecFileError(path, number, f"invalid rational number {token!r}") from None


def _parse_vector(path: str, number: int, token: str, empty_ok: bool = False) -> Vector:
    token = token.strip()
    if not (token.startswith("(") and token.endswith(")")):
        raise SpecFileError(path, number, f"expected a vector like (1, 0), got {token!r}")
    inner = token[1:-1].strip()
    if not inner and not empty_ok:
        raise SpecFileError(path, number, "empty vector")
    parts = inner.split(",") if inner else []
    return tuple([_fraction(path, number, part.strip()) for part in parts])


def format_vector(v: Vector) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _parse_bracket_list(path: str, number: int, token: str) -> list[str]:
    token = token.strip()
    if not (token.startswith("[") and token.endswith("]")):
        raise SpecFileError(path, number, f"expected a bracketed list, got {token!r}")
    inner = token[1:-1].strip()
    return inner.split() if inner else []


_FACE_REF = re.compile(r"^(\d+)\.(\S+)$")
# a whole pair line that the checks token by token accept, read at once:
# the name runs to the first "=", and exactly one "~" splits the rest
_PAIR = re.compile(r"pair\s+([^=\s][^=]*?)\s*=\s*(\d+)\.([^\s~]+)\s*~\s*(\d+)\.([^\s~]+)")


def _parse_face_ref(path: str, number: int, token: str) -> tuple[int, str]:
    match = _FACE_REF.match(token.strip())
    if not match:
        raise SpecFileError(
            path, number, f"expected a face reference like 1.a, got {token.strip()!r}"
        )
    return int(match.group(1)), match.group(2)


def _split_assignment(path: str, number: int, line: str, directive: str) -> tuple[str, str]:
    body = line[len(directive) :].strip()
    if "=" not in body:
        raise SpecFileError(path, number, f"expected '{directive} <name> = ...'")
    name, _, rest = body.partition("=")
    name = name.strip()
    rest = rest.strip()
    if not name or not rest:
        raise SpecFileError(path, number, f"expected '{directive} <name> = ...'")
    return name, rest


# ------------------------------------------------------------------ fans


def parse_fan_text(text: str, path: str = "<string>") -> Fan:
    lines = _lines(text, path)
    _parse_header(path, lines[0][0], lines[0][1], "fan")
    dim: int | None = None
    labels: dict[str, int] = {}  # label -> ray index, in file order
    vectors: list[Vector] = []
    cones: list[list[int]] = []
    for number, line in lines[1:]:
        directive = line.split(None, 1)[0]
        if directive == "dim":
            if dim is not None:
                raise SpecFileError(path, number, "duplicate dim line")
            token = line[3:].strip()
            if not token.isdecimal() or int(token) < 1:
                raise SpecFileError(path, number, f"invalid dimension {token!r}")
            dim = int(token)
        elif directive == "vector":
            if dim is None:
                raise SpecFileError(path, number, "dim must come before vectors")
            if cones:
                raise SpecFileError(path, number, "vectors must come before cones")
            name, rest = _split_assignment(path, number, line, "vector")
            if name in labels:
                raise SpecFileError(path, number, f"duplicate vector label {name!r}")
            v = _parse_vector(path, number, rest)
            if len(v) != dim:
                raise SpecFileError(
                    path, number, f"vector of length {len(v)}, expected {dim}"
                )
            labels[name] = len(vectors)
            vectors.append(v)
        elif directive == "cone":
            if dim is None:
                raise SpecFileError(path, number, "dim must come before cones")
            members = _parse_bracket_list(path, number, line[4:])
            indices = []
            for member in members:
                if member not in labels:
                    raise SpecFileError(path, number, f"unknown vector label {member!r}")
                indices.append(labels[member])
            if len(set(indices)) != len(indices):
                raise SpecFileError(path, number, "repeated label in cone")
            cones.append(indices)
        else:
            raise SpecFileError(path, number, f"unknown directive {directive!r}")
    if dim is None:
        raise SpecFileError(path, lines[-1][0], "missing dim line")
    return make_fan(vectors, cones, labels=list(labels), dim=dim)


def parse_fan_file(path: str | Path) -> Fan:
    path = Path(path)
    return parse_fan_text(path.read_text(), str(path))


def serialize_fan(fan: Fan) -> str:
    out = [f"logaffine fan {FORMAT_VERSION}", f"dim {fan.dim}"]
    for label, v in zip(fan.labels, fan.vectors):
        out.append(f"vector {label} = {format_vector(v)}")
    for cone in sorted(fan.cones, key=lambda c: (len(c), sorted(c))):
        members = " ".join(fan.labels[i] for i in sorted(cone))
        out.append(f"cone [{members}]")
    return "\n".join(out) + "\n"


# -------------------------------------------------------------- weldings


def parse_welding_text(text: str, path: str = "<string>", base: Path | None = None) -> WeldingFile:
    lines = _lines(text, path)
    _parse_header(path, lines[0][0], lines[0][1], "welding")
    base = base if base is not None else Path(".")
    fan_files: list[tuple[str, str]] = []
    fans: dict[str, Fan] = {}
    domain_fans: list[tuple[int, str]] = []
    declared: set[int] = set()
    pairs: list[MatchedPair] = []
    pair_labels: set[str] = set()
    for number, line in lines[1:]:
        directive = line.split(None, 1)[0]
        if directive == "fan":
            alias, rest = _split_assignment(path, number, line, "fan")
            if alias in fans:
                raise SpecFileError(path, number, f"duplicate fan alias {alias!r}")
            fan_path = base / rest
            if not fan_path.is_file():
                raise SpecFileError(path, number, f"fan file not found: {rest}")
            fans[alias] = parse_fan_file(fan_path)
            fan_files.append((alias, rest))
        elif directive == "domain":
            name, rest = _split_assignment(path, number, line, "domain")
            if not name.isdecimal() or int(name) < 1:  # int reads what isdecimal takes
                raise SpecFileError(path, number, f"invalid domain id {name!r}")
            domain_id = int(name)
            if domain_id in declared:
                raise SpecFileError(path, number, f"duplicate domain id {domain_id}")
            if rest not in fans:
                raise SpecFileError(path, number, f"unknown fan alias {rest!r}")
            declared.add(domain_id)
            domain_fans.append((domain_id, rest))
        elif directive == "pair":
            fields = _PAIR.fullmatch(line)
            if fields:
                name, d1, r1, d2, r2 = fields.groups()
            else:  # the checks token by token, for their messages
                name, rest = _split_assignment(path, number, line, "pair")
            if name in pair_labels:
                raise SpecFileError(path, number, f"duplicate pair label {name!r}")
            pair_labels.add(name)
            if fields:
                left, right = (int(d1), r1), (int(d2), r2)
            else:
                sides = rest.split("~")
                if len(sides) != 2:
                    raise SpecFileError(path, number, "expected '<d>.<ray> ~ <d>.<ray>'")
                left, right = (_parse_face_ref(path, number, side) for side in sides)
            for ref in (left, right):
                if ref[0] not in declared:
                    raise SpecFileError(path, number, f"unknown domain {ref[0]}")
            pairs.append(MatchedPair(left, right, label=name))
        else:
            raise SpecFileError(path, number, f"unknown directive {directive!r}")
    if not domain_fans:
        raise SpecFileError(path, lines[-1][0], "welding file declares no domains")
    spec = make_welding_spec(
        {i: fans[alias] for i, alias in domain_fans}, pairs
    )
    return WeldingFile(
        fan_files=tuple(sorted(fan_files)),
        fans=tuple(sorted(fans.items())),
        domain_fans=tuple(sorted(domain_fans)),
        spec=spec,
    )


def parse_welding_file(path: str | Path) -> WeldingFile:
    path = Path(path)
    return parse_welding_text(path.read_text(), str(path), base=path.parent)


def serialize_welding(wf: WeldingFile) -> str:
    out = [f"logaffine welding {FORMAT_VERSION}"]
    for alias, rel in sorted(wf.fan_files):
        out.append(f"fan {alias} = {rel}")
    for domain_id, alias in sorted(wf.domain_fans):
        out.append(f"domain {domain_id} = {alias}")
    for pair in wf.spec.pairs:
        a, b = sorted(pair.faces())
        label = pair.label or f"{a[0]}{a[1]}{b[0]}{b[1]}"
        out.append(f"pair {label} = {a[0]}.{a[1]} ~ {b[0]}.{b[1]}")
    return "\n".join(out) + "\n"


# -------------------------------------------------------------- polytopes


def _parse_functional(path: str, number: int, token: str) -> AffineFunctional:
    token = token.strip()
    if not token.startswith("("):
        raise SpecFileError(path, number, f"expected '(covector) +/- constant', got {token!r}")
    close = token.find(")")
    if close < 0:
        raise SpecFileError(path, number, "unterminated covector")
    linear = _parse_vector(path, number, token[: close + 1])
    rest = token[close + 1 :].strip()
    if not rest or rest[0] not in "+-":
        raise SpecFileError(path, number, "expected '+ constant' or '- constant' after covector")
    constant = _fraction(path, number, rest[1:].strip())
    if constant < 0:
        raise SpecFileError(path, number, "write negative constants with '-', not '+ -x'")
    return AffineFunctional(linear, constant if rest[0] == "+" else -constant)


def parse_polytope_text(
    text: str, path: str = "<string>", base: Path | None = None
) -> PolytopeFile:
    lines = _lines(text, path)
    _parse_header(path, lines[0][0], lines[0][1], "polytope")
    base = base if base is not None else Path(".")
    welding_path: str | None = None
    welding: WeldingFile | None = None
    domain_ids: set[int] = set()
    constraints: dict[tuple[int, str], AffineFunctional] = {}
    groups: dict[str, tuple[tuple[int, str], ...]] = {}
    orientation: int | None = None
    for number, line in lines[1:]:
        directive = line.split(None, 1)[0]
        if directive == "welding":
            if welding is not None:
                raise SpecFileError(path, number, "duplicate welding line")
            rel = line[7:].strip()
            weld_path = base / rel
            if not weld_path.is_file():
                raise SpecFileError(path, number, f"welding file not found: {rel}")
            welding_path = rel
            welding = parse_welding_file(weld_path)
            domain_ids = set(welding.spec.domain_ids)
        elif directive == "constraint":
            if welding is None:
                raise SpecFileError(path, number, "welding line must come first")
            name, rest = _split_assignment(path, number, line, "constraint")
            ref = _parse_face_ref(path, number, name)
            if ref in constraints:
                raise SpecFileError(path, number, f"duplicate constraint {name}")
            if ref[0] not in domain_ids:
                raise SpecFileError(path, number, f"unknown domain {ref[0]}")
            constraints[ref] = _parse_functional(path, number, rest)
        elif directive == "group":
            name, rest = _split_assignment(path, number, line, "group")
            if name in groups:
                raise SpecFileError(path, number, f"duplicate group {name!r}")
            members = tuple(
                _parse_face_ref(path, number, token)
                for token in _parse_bracket_list(path, number, rest)
            )
            if not members:
                raise SpecFileError(path, number, f"group {name!r} is empty")
            for ref in members:
                if ref not in constraints:
                    raise SpecFileError(
                        path, number, f"group member {ref[0]}.{ref[1]} is not a constraint"
                    )
            groups[name] = members
        elif directive == "orientation":
            if orientation is not None:
                raise SpecFileError(path, number, "duplicate orientation line")
            token = line[11:].strip()
            if token not in ("+", "-"):
                raise SpecFileError(path, number, f"orientation must be + or -, got {token!r}")
            orientation = 1 if token == "+" else -1
        else:
            raise SpecFileError(path, number, f"unknown directive {directive!r}")
    if welding is None or welding_path is None:
        raise SpecFileError(path, lines[-1][0], "missing welding line")
    from .polytopes import make_polytope_spec

    spec = make_polytope_spec(
        welding.spec,
        constraints.items(),
        groups.items(),
        orientation if orientation is not None else 1,
    )
    return PolytopeFile(welding_path=welding_path, welding=welding, spec=spec)


def parse_polytope_file(path: str | Path) -> PolytopeFile:
    path = Path(path)
    return parse_polytope_text(path.read_text(), str(path), base=path.parent)


def serialize_polytope(pf: PolytopeFile) -> str:
    out = [f"logaffine polytope {FORMAT_VERSION}", f"welding {pf.welding_path}"]
    for ref, functional in sorted(pf.spec.constraints):
        out.append(f"constraint {ref[0]}.{ref[1]} = {functional}")
    for name, members in sorted(pf.spec.groups):
        body = " ".join(f"{d}.{c}" for d, c in members)
        out.append(f"group {name} = [{body}]")
    out.append(f"orientation {'+' if pf.spec.orientation > 0 else '-'}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- bundles


def parse_bundle_text(text: str, path: str = "<string>") -> LogBundle:
    lines = _lines(text, path)
    _parse_header(path, lines[0][0], lines[0][1], "bundle")
    rank: int | None = None
    chern: dict[int, Vector] = {}
    for number, line in lines[1:]:
        directive = line.split(None, 1)[0]
        if directive == "rank":
            if rank is not None:
                raise SpecFileError(path, number, "duplicate rank line")
            token = line[4:].strip()
            if not token.isdecimal() or int(token) < 1:
                raise SpecFileError(path, number, f"invalid rank {token!r}")
            rank = int(token)
        elif directive == "chern":
            if rank is None:
                raise SpecFileError(path, number, "rank must come before chern lines")
            name, rest = _split_assignment(path, number, line, "chern")
            if not name.isdecimal() or not (1 <= int(name) <= rank):
                raise SpecFileError(path, number, f"chern index {name!r} out of range")
            index = int(name)
            if index in chern:
                raise SpecFileError(path, number, f"duplicate chern index {index}")
            chern[index] = _parse_vector(path, number, rest, empty_ok=True)
        else:
            raise SpecFileError(path, number, f"unknown directive {directive!r}")
    if rank is None:
        raise SpecFileError(path, lines[-1][0], "missing rank line")
    if len(chern) != rank:  # the indices are distinct and in 1..rank
        raise SpecFileError(
            path, lines[-1][0], f"expected chern vectors 1..{rank}"
        )
    from .classification import make_bundle

    return make_bundle(rank, [chern[i] for i in sorted(chern)])


def parse_bundle_file(path: str | Path) -> LogBundle:
    path = Path(path)
    return parse_bundle_text(path.read_text(), str(path))


def serialize_bundle(bundle: LogBundle) -> str:
    out = [f"logaffine bundle {FORMAT_VERSION}", f"rank {bundle.rank}"]
    for index, vec in enumerate(bundle.chern, start=1):
        out.append(f"chern {index} = {format_vector(vec)}")
    return "\n".join(out) + "\n"


# -------------------------------------------------------------- records


def serialize_record(record: InvariantRecord) -> str:
    """Canonical text form of an invariant record, stable for diffing."""
    shape = record.polytope
    out = [
        f"logaffine record {FORMAT_VERSION}",
        f"dim {shape.dim}",
        f"orientation {'+' if shape.orientation > 0 else '-'}",
        f"moduli {record.moduli_dim}",
        f"rank {record.chern.rank}",
    ]
    for index, vec in enumerate(record.chern.chern, start=1):
        out.append(f"chern {index} = {format_vector(vec)}")
    for domain_id, labels, vectors, cones in shape.domains:
        for label, vec in zip(labels, vectors):
            out.append(f"ray {domain_id}.{label} = {format_vector(vec)}")
        for cone in sorted(cones, key=lambda c: (len(c), c)):
            members = " ".join(labels[i] for i in cone)
            out.append(f"cone {domain_id} = [{members}]")
    for label, (left, right) in shape.pairs:
        name = label if label is not None else "~"
        out.append(
            f"pair {name} = {left[0]}.{left[1]} ~ {right[0]}.{right[1]}"
        )
    for ref, linear, constant in shape.constraints:
        out.append(
            f"constraint {ref[0]}.{ref[1]} = "
            f"{AffineFunctional(linear, constant)}"
        )
    for name, members in shape.groups:
        body = " ".join(f"{d}.{c}" for d, c in members)
        out.append(f"group {name} = [{body}]")
    return "\n".join(out) + "\n"


# ------------------------------------------------------------- dispatch


def sniff_kind(text: str, path: str = "<string>") -> str:
    for number, raw in enumerate(text.splitlines(), start=1):
        if (header := raw.strip()) and not header.startswith("#"):
            break
    else:
        raise SpecFileError(path, 1, "empty file")
    parts = header.split()
    if len(parts) != 3 or parts[0] != "logaffine" or parts[1] not in KINDS:
        raise SpecFileError(path, number, "expected header 'logaffine <kind> 1'")
    return parts[1]


def load_workspace_file(path: str | Path):
    """Parse any recognized file; returns ``(kind, payload)``."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecFileError(str(path), 1, f"cannot read file: {exc}") from exc
    kind = sniff_kind(text, str(path))
    if kind == "fan":
        return kind, parse_fan_text(text, str(path))
    if kind == "welding":
        return kind, parse_welding_text(text, str(path), base=path.parent)
    if kind == "polytope":
        return kind, parse_polytope_text(text, str(path), base=path.parent)
    return kind, parse_bundle_text(text, str(path))
