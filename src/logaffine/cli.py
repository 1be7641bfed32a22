"""Command-line interface over the workspace file formats.

Subcommands validate files, report derived quantities (welded-space
structure, topology, logarithmic cohomology, lattice smoothness,
regularized volume, cut stratification) and draw SVG pictures.  Output
is deterministic: the same input bytes always produce the same output
bytes.

Exit codes: 0 success, 1 validation or geometry failure, 2 parse
error, 3 unsupported feature.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .classification import cut_report, make_invariant_record
from .errors import GeometryError, SpecFileError, UnsupportedDimensionError
from .fans import validate_fan
from .fileio import (
    format_vector,
    load_workspace_file,
    serialize_record,
)
from .polytopes import (
    build_polytope,
    delzant_check,
    polytope_moduli,
    polytope_topology,
    regularized_volume,
)
from .render import render_fan, render_polytope, render_welding
from .topology import (
    betti_numbers,
    classify_closed_surface,
    divisor_topology,
    euler_characteristic,
    log_cohomology_dims,
)
from .welding import build_welded_space

__all__ = ["main"]

Pairs = list[tuple[str, str]]


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _tristate(value: bool | None) -> str:
    return "unknown" if value is None else _bool(value)


def _load(path: str, expected: str | None = None):
    kind, payload = load_workspace_file(path)
    if expected is not None and kind != expected:
        raise GeometryError(f"expected a {expected} file, got a {kind} file")
    return kind, payload


def _built_polytope(path: str):
    _, pf = _load(path, "polytope")
    space = build_welded_space(pf.spec.welding)
    return build_polytope(space, pf.spec)


# ------------------------------------------------------------ subcommands


def _cmd_validate(args) -> tuple[str, Pairs | str, int]:
    kind, payload = _load(args.path)
    violations: list[str] = []
    if kind == "fan":
        violations = list(validate_fan(payload).violations)
    elif kind == "welding":
        try:
            build_welded_space(payload.spec)
        except GeometryError as exc:
            violations = [str(exc)]
    elif kind == "polytope":
        try:
            build_polytope(build_welded_space(payload.spec.welding), payload.spec)
        except UnsupportedDimensionError:
            pass
        except GeometryError as exc:
            violations = [str(exc)]
    pairs: Pairs = [("kind", kind), ("valid", _bool(not violations))]
    for index, violation in enumerate(violations, start=1):
        pairs.append((f"violation {index}", violation))
    return "pairs", pairs, 0 if not violations else 1


def _cmd_weld(args) -> tuple[str, Pairs | str, int]:
    _, wf = _load(args.path, "welding")
    space = build_welded_space(wf.spec)
    pairs: Pairs = [
        ("dim", str(space.dim)),
        ("domains", str(len(space.domain_ids))),
        ("pairs", str(len(space.pairs))),
        ("edges", str(len(space.edges))),
    ]
    for edge in space.edges:
        pairs.append(
            (
                f"edge {edge.label}",
                f"{edge.kind}, residue {format_vector(edge.residue)}",
            )
        )
    pairs.append(("crossings", str(len(space.crossings))))
    pairs.append(("boundary_corners", str(len(space.boundary_corners))))
    pairs.append(("divisor_components", str(len(space.divisor_components))))
    for comp in space.divisor_components:
        edges = " ".join(comp.edge_labels)
        state = "closed" if comp.closed else "open"
        pairs.append((f"component {comp.label}", f"{state}, edges [{edges}]"))
    pairs.append(("orientable", _bool(space.orientable)))
    pairs.append(("compact", _tristate(space.compact)))
    pairs.append(("boundary", _bool(space.has_boundary)))
    return "pairs", pairs, 0


def _space_topology(space) -> Pairs:
    betti = betti_numbers(space)
    divisor = divisor_topology(space)
    pairs: Pairs = [("euler", str(euler_characteristic(space)))]
    for degree, value in enumerate(betti):
        pairs.append((f"b{degree}", str(value)))
    pairs.append(("orientable", _bool(space.orientable)))
    pairs.append(("compact", _tristate(space.compact)))
    pairs.append(("boundary", _bool(space.has_boundary)))
    pairs.append(("divisor_components", str(divisor.component_count)))
    pairs.append(("divisor_circles", str(divisor.closed_count)))
    pairs.append(
        ("divisor_lines", str(divisor.component_count - divisor.closed_count))
    )
    pairs.append(("crossings", str(divisor.crossing_count)))
    if (
        space.dim == 2
        and space.compact is True
        and not space.has_boundary
        and betti[0] == 1
    ):
        surface = classify_closed_surface(space)
        if surface.orientable:
            pairs.append(("genus", str(surface.genus)))
        else:
            pairs.append(("crosscaps", str(surface.crosscaps)))
        pairs.append(("surface", surface.name))
    return pairs


def _polytope_topology_pairs(p) -> Pairs:
    topo = polytope_topology(p)
    pairs: Pairs = [
        ("euler", str(topo.euler)),
        ("orientable", _bool(topo.orientable)),
    ]
    if topo.genus is not None:
        pairs.append(("genus", str(topo.genus)))
    if topo.cross_caps is not None:
        pairs.append(("crosscaps", str(topo.cross_caps)))
    pairs.append(("boundary_circles", str(topo.boundary_circles)))
    pairs.append(("singular_faces", str(topo.singular_faces)))
    pairs.append(("log_faces", str(topo.log_faces)))
    pairs.append(("interior_faces", str(topo.interior_faces)))
    pairs.append(("moduli", str(polytope_moduli(p))))
    return pairs


def _cmd_topology(args) -> tuple[str, Pairs | str, int]:
    kind, payload = _load(args.path)
    if kind == "welding":
        return "pairs", _space_topology(build_welded_space(payload.spec)), 0
    if kind == "polytope":
        space = build_welded_space(payload.spec.welding)
        p = build_polytope(space, payload.spec)
        return "pairs", _polytope_topology_pairs(p), 0
    raise GeometryError(f"topology reports need a welding or polytope file, got {kind}")


def _cmd_cohomology(args) -> tuple[str, Pairs | str, int]:
    _, wf = _load(args.path, "welding")
    space = build_welded_space(wf.spec)
    dims = log_cohomology_dims(space)
    pairs: Pairs = []
    for degree, value in enumerate(betti_numbers(space)):
        pairs.append((f"b{degree}", str(value)))
    for degree, value in enumerate(dims):
        pairs.append((f"h{degree}_log", str(value)))
    return "pairs", pairs, 0


def _cmd_delzant(args) -> tuple[str, Pairs | str, int]:
    p = _built_polytope(args.path)
    result = delzant_check(p)
    pairs: Pairs = [("delzant", _bool(result.ok))]
    for vertex_id, rows in result.witnesses:
        body = " ".join(format_vector(row) for row in rows)
        pairs.append((f"witness {vertex_id}", body))
    return "pairs", pairs, 0


def _cmd_volume(args) -> tuple[str, Pairs | str, int]:
    value = regularized_volume(_built_polytope(args.path), eps=args.eps)
    return "pairs", [("volume", f"{float(value):.12f}"), ("volume_exact", str(value))], 0


def _cmd_cut(args) -> tuple[str, Pairs | str, int]:
    p = _built_polytope(args.path)
    _, bundle = _load(args.bundle, "bundle")
    if args.record:
        record = make_invariant_record(p, bundle)
        return "text", serialize_record(record), 0
    report = cut_report(p, bundle)
    image = " ".join(report.divisor_image)
    pairs: Pairs = [
        ("euler", str(report.euler)),
        ("fixed_points", str(report.fixed_points)),
        ("smooth_closed", _bool(report.smooth_closed)),
        ("moduli", str(report.moduli_dim)),
        ("divisor_image", f"[{image}]"),
        ("strata", str(len(report.strata))),
    ]
    for entry in report.strata:
        pairs.append(
            (
                f"stratum {entry.label}",
                f"kind {entry.kind}, dim {entry.dim}, "
                f"fiber_rank {entry.fiber_rank}",
            )
        )
    return "pairs", pairs, 0


def _cmd_render(args) -> tuple[str, Pairs | str, int]:
    kind, payload = _load(args.path)
    if kind == "fan":
        return "text", render_fan(payload), 0
    if kind == "welding":
        return "text", render_welding(payload.spec), 0
    if kind == "polytope":
        return "text", render_polytope(payload.spec), 0
    raise GeometryError("bundle files have no picture")


# --------------------------------------------------------------- dispatch


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by every
    later call in the process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="logaffine",
        description="Validate, report on and draw log affine workspace files.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "kv"),
        default="text",
        help="key/value separator style (default: text, 'k = v')",
    )
    common.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the output to PATH instead of stdout",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("path", help="workspace file")
        cmd.set_defaults(handler=handler)
        return cmd

    add("validate", _cmd_validate, "check a workspace file and list violations")
    add("weld", _cmd_weld, "describe the welded space of a welding file")
    add(
        "topology",
        _cmd_topology,
        "surface topology of a welding or polytope file",
    )
    add("cohomology", _cmd_cohomology, "logarithmic cohomology dimensions")
    add("delzant", _cmd_delzant, "lattice smoothness check of a polytope")

    volume = add("volume", _cmd_volume, "regularized volume of a polytope")
    volume.add_argument(
        "--eps",
        metavar="RATIONAL",
        type=_rational,
        help="excision parameter (rational, in (0,1)); the limit does not depend on it",
    )

    cut = add("cut", _cmd_cut, "stratification report of the cut manifold")
    cut.add_argument("bundle", help="bundle file with the Chern vectors")
    cut.add_argument(
        "--record",
        action="store_true",
        help="emit the canonical invariant record instead of the report",
    )

    add("render", _cmd_render, "draw a fan, welding or polytope as SVG")
    return parser


def _format_pairs(pairs: Pairs, style: str) -> str:
    separator = " = " if style == "text" else "="
    return "\n".join(f"{key}{separator}{value}" for key, value in pairs) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload_kind, payload, code = args.handler(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload_kind == "pairs":
        text = _format_pairs(payload, args.format)
    else:
        text = payload
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
