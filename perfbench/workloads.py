"""The four workloads: how each builds a round of jobs and checks them.

A job calls the program's public API (or ``logaffine.cli.main``) on
generated file texts, with a span around every call into a layer, and
returns the outputs its ``check`` compares with the oracle.  A round
holds one job of every kind the workload mixes, so a run of whole
rounds keeps the mix fixed whatever its length.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import generators as gen
import oracles

from logaffine import cli as cli_module
from logaffine import (
    betti_numbers,
    build_polytope,
    build_welded_space,
    cell_complex,
    classify_closed_surface,
    cut_report,
    delzant_check,
    divisor_topology,
    euler_characteristic,
    log_cohomology_dims,
    make_bundle,
    make_invariant_record,
    make_welding_spec,
    records_equivalent,
    regularized_volume,
)
from logaffine.fileio import parse_bundle_text, parse_polytope_text, parse_welding_text

HERE = Path(__file__).resolve().parent
EXPECTED_CLI = HERE / "cli_expected.json"

# the largest size twice: the median then falls among the largest jobs,
# not on the gap between two sizes
WELD_SIZES = (4, 6, 6)
COHOMOLOGY_SIZES = (2, 3, 3)
POLYGON_SIDES = (8, 12)
# `logaffine volume` takes the principal value at 1e-9 and checks it at half that
VOLUME_EPS = (Fraction(1, 10**9), Fraction(1, 2 * 10**9))


@dataclass
class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check`` returns ``"ok"``, ``"known-defect"`` (the strip shear
    with s >= 4 that ``records_equivalent`` misses) or a description of
    the mismatch.  ``probe`` makes extra calls that only the traced run
    measures, outside the job's own time.
    """

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str]
    probe: Callable[[Any, Any], None] | None = None


@dataclass
class Workload:
    name: str
    make_round: Callable[[random.Random, int], list[Job]]
    # module attributes to wrap in spans during traced rounds
    patch: tuple[Any, dict[str, str]] | None = None
    # rounds an untraced run holds even when --seconds has passed
    min_rounds: int = 1


def _mismatch(got: dict, want: dict) -> str:
    wrong = [f"{key}={got.get(key)!r} (want {value!r})" for key, value in want.items() if got.get(key) != value]
    return "ok" if not wrong else "; ".join(wrong)


# ------------------------------------------------------------ weld-grid


def _parse_grid(tr, case: gen.GridCase, work: Path):
    tr.count("fileio.bytes_parsed", len(case.text.encode()))
    with tr.span("fileio.parse"):
        wf = parse_welding_text(case.text, "grid.weld", base=work)
    with tr.span("welding.weld", size=case.domains):
        space = build_welded_space(wf.spec)
    tr.count("welding.pairs_listed", case.listed)
    tr.count("welding.pairs_coerced", len(space.pairs) - case.listed)
    return wf, space


def _weld_report(tr, space) -> dict:
    with tr.span("welding.report"):
        report = {
            "dim": space.dim,
            "domains": len(space.domain_ids),
            "pairs": len(space.pairs),
            "edges": len(space.edges),
            "crossings": len(space.crossings),
            "boundary_corners": len(space.boundary_corners),
            "divisor_components": len(space.divisor_components),
            "closed_components": sum(1 for c in space.divisor_components if c.closed),
            "orientable": space.orientable,
            "compact": space.compact,
            "boundary": space.has_boundary,
        }
    tr.count("welding.edges", report["edges"])
    tr.count("welding.crossings", report["crossings"])
    tr.count("welding.boundary_corners", report["boundary_corners"])
    return report


def _grid_kinds(sizes: tuple[int, ...]) -> list[tuple[str, int]]:
    """Every variant at every size: a round holds the whole mix, so the
    share of each kind of job is the same in every run."""
    return [(variant, m) for m in sizes for variant in gen.GRID_VARIANTS]


def _spec_probe(tr, outputs) -> None:
    wf = outputs["file"]
    with tr.span("welding.spec"):
        make_welding_spec(dict(wf.spec.domain_items), wf.spec.pairs)


def weld_grid(work: Path, sizes: tuple[int, ...] = WELD_SIZES) -> Workload:
    def make_round(rng: random.Random, index: int) -> list[Job]:
        jobs = []
        for variant, m in _grid_kinds(sizes):
            case = gen.grid_welding(rng, variant, m)

            def run(tr, case=case):
                wf, space = _parse_grid(tr, case, work)
                return {"file": wf, "report": _weld_report(tr, space)}

            def check(out, case=case):
                return _mismatch(out["report"], oracles.grid_weld_report(case.variant, case.m))

            jobs.append(Job(f"{variant} m={m}", run, check, _spec_probe))
        return jobs

    return Workload("weld-grid", make_round)


# ------------------------------------------------------ cohomology-grid


def cohomology_grid(work: Path, sizes: tuple[int, ...] = COHOMOLOGY_SIZES) -> Workload:
    def make_round(rng: random.Random, index: int) -> list[Job]:
        jobs = []
        for variant, m in _grid_kinds(sizes):
            case = gen.grid_welding(rng, variant, m)

            def run(tr, case=case):
                wf, space = _parse_grid(tr, case, work)
                with tr.span("topology.euler"):
                    euler = euler_characteristic(space)
                with tr.span("topology.betti", size=case.domains):
                    betti = betti_numbers(space)
                genus = None
                if space.compact is True and not space.has_boundary:
                    with tr.span("topology.classify"):
                        genus = classify_closed_surface(space).genus
                with tr.span("topology.divisor"):
                    divisor = divisor_topology(space)
                with tr.span("topology.log_cohomology", size=case.domains):
                    h = log_cohomology_dims(space)
                return {
                    "file": wf,
                    "space": space,
                    "values": {
                        "betti": betti,
                        "log_cohomology": h,
                        "euler": euler,
                        "genus": genus,
                        "divisor_components": divisor.component_count,
                        "closed_components": divisor.closed_count,
                        "crossings": divisor.crossing_count,
                    },
                }

            def check(out, case=case):
                want = dict(oracles.grid_cohomology(case.variant, case.m))
                weld = oracles.grid_weld_report(case.variant, case.m)
                for key in ("divisor_components", "closed_components", "crossings"):
                    want[key] = weld[key]
                return _mismatch(out["values"], want)

            def probe(tr, out):
                _spec_probe(tr, out)
                tr.count("topology.cells", sum(cell_complex(out["space"]).counts))

            jobs.append(Job(f"{variant} m={m}", run, check, probe))
        return jobs

    return Workload("cohomology-grid", make_round)


# -------------------------------------------------------------- polygon


def polygon(work: Path) -> Workload:
    bundle_text = (work / "zero.bundle").read_text()
    # a strip domain has no degree-2 cohomology, so its Chern vectors are empty
    strip_bundle = make_bundle(2, [(), ()])

    def build(tr, text: str, name: str):
        with tr.span("fileio.parse"):
            pf = parse_polytope_text(text, name, base=work)
        tr.count("fileio.bytes_parsed", len(text.encode()))
        with tr.span("welding.weld", size=1):
            space = build_welded_space(pf.spec.welding)
        n = len(pf.spec.constraints)
        with tr.span("polytopes.build", size=n):
            return build_polytope(space, pf.spec), n

    def make_round(rng: random.Random, index: int) -> list[Job]:
        jobs = []
        # each size four times, half of them with k/2 redundant constraints;
        # the eight jobs check the eight strip shears, so every round holds
        # the same number of shears the seed gets wrong
        kinds = [(k, redundant) for k in POLYGON_SIDES for redundant in (False, True)] * 2
        for position, (k, redundant) in enumerate(kinds):
            poly = gen.delzant_polygon(rng, k, k // 2 if redundant else 0)
            text = gen.polygon_text(rng, poly)
            sheared_text = gen.polygon_text(rng, gen.shear_polygon(poly, gen.random_unimodular(rng)))
            s = gen.STRIP_SHEARS[(index + position) % len(gen.STRIP_SHEARS)]
            strip_texts = gen.strip_texts(s)

            def run(tr, text=text, sheared_text=sheared_text, strip_texts=strip_texts):
                with tr.span("fileio.parse"):
                    bundle = parse_bundle_text(bundle_text, "zero.bundle")
                p, n = build(tr, text, "polygon.poly")
                with tr.span("polytopes.delzant"):
                    lattice = delzant_check(p)
                volumes = []
                for eps in VOLUME_EPS:
                    with tr.span("polytopes.volume", size=n):
                        volumes.append(regularized_volume(p, eps=eps))
                with tr.span("classification.cut"):
                    report = cut_report(p, bundle)
                with tr.span("classification.record"):
                    record = make_invariant_record(p, bundle)
                q, _ = build(tr, sheared_text, "sheared.poly")
                with tr.span("classification.record"):
                    sheared = make_invariant_record(q, bundle)
                with tr.span("classification.equiv"):
                    same = records_equivalent(record, sheared)
                strips = []
                for name, strip_text in zip(("strip.poly", "strip-sheared.poly"), strip_texts):
                    r, _ = build(tr, strip_text, name)
                    with tr.span("classification.record"):
                        strips.append(make_invariant_record(r, strip_bundle))
                with tr.span("classification.equiv"):
                    strip_same = records_equivalent(*strips)
                tr.count("polytopes.constraints", n)
                tr.count("polytopes.faces", len(p.faces))
                tr.count("polytopes.vertices", len(p.vertices))
                tr.count("classification.equiv_calls", 2)
                tr.count("classification.equiv_correct", (same is True) + (strip_same is True))
                return {
                    "values": {
                        "volume": volumes[0],
                        "volume_refined": volumes[1],
                        "delzant": lattice.ok,
                        "faces": len(p.faces),
                        "fixed_points": report.fixed_points,
                        "sheared_equivalent": same,
                    },
                    "strip_equivalent": strip_same,
                }

            def check(out, k=k, poly=poly, s=s):
                area = oracles.polygon_area(poly)
                want = {
                    "volume": area,
                    "volume_refined": area,
                    "delzant": True,
                    "faces": k,
                    "fixed_points": k,
                    "sheared_equivalent": True,
                }
                verdict = _mismatch(out["values"], want)
                if out["strip_equivalent"] is True:
                    return verdict
                if verdict == "ok" and s >= 4:
                    return "known-defect"
                return f"strip s={s} inequivalent; {verdict}"

            jobs.append(Job(f"k={k}{' +redundant' if redundant else ''} strip s={s}", run, check))
        return jobs

    return Workload("polygon", make_round)


# --------------------------------------------------------- cli-fixtures

# Which file kinds each subcommand takes; `cut` also takes a bundle.
CLI_KINDS = {
    "validate": (".fan", ".weld", ".poly"),
    "weld": (".weld",),
    "topology": (".weld", ".poly"),
    "cohomology": (".weld",),
    "delzant": (".poly",),
    "volume": (".poly",),
    "cut": (".poly",),
    "render": (".fan", ".weld", ".poly"),
}

# cli.main's calls into the layers, by the name cli.py imports them under
CLI_SPANS = {
    "load_workspace_file": "fileio.parse",
    "serialize_record": "fileio.serialize",
    "build_welded_space": "welding.weld",
    "betti_numbers": "topology.betti",
    "euler_characteristic": "topology.euler",
    "classify_closed_surface": "topology.classify",
    "divisor_topology": "topology.divisor",
    "log_cohomology_dims": "topology.log_cohomology",
    "build_polytope": "polytopes.build",
    "delzant_check": "polytopes.delzant",
    "regularized_volume": "polytopes.volume",
    "polytope_topology": "polytopes.topology",
    "polytope_moduli": "polytopes.moduli",
    "cut_report": "classification.cut",
    "make_invariant_record": "classification.record",
    "render_fan": "render.svg",
    "render_welding": "render.svg",
    "render_polytope": "render.svg",
}


def cli_invocations(fixtures: Path) -> list[list[str]]:
    """Every subcommand on every fixture of a kind it accepts, with
    paths relative to the repository root."""
    files = sorted(fixtures.iterdir())
    bundles = [f for f in files if f.suffix == ".bundle"]
    out = []
    for command, kinds in CLI_KINDS.items():
        for f in files:
            if f.suffix not in kinds:
                continue
            path = f"{fixtures.name}/{f.name}"
            if command == "cut":
                for b in bundles:
                    for extra in ([], ["--record"]):
                        out.append([command, path, f"{fixtures.name}/{b.name}", *extra])
            else:
                out.append([command, path])
    return out


def run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_module.main(args)
    return code, out.getvalue(), err.getvalue()


def cli_digest(code: int, stdout: str, stderr: str) -> dict:
    data = stdout.encode()
    return {
        "exit": code,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
    }


def cli_fixtures(root: Path) -> Workload:
    fixtures = root / "fixtures"
    invocations = cli_invocations(fixtures)
    expected = json.loads(EXPECTED_CLI.read_text())
    missing = [" ".join(a) for a in invocations if " ".join(a) not in expected]
    if missing:
        raise RuntimeError(f"no recorded output for {missing[:3]} (and {len(missing)} in all)")
    sizes = {a: (root / a).stat().st_size for args in invocations for a in args[1:3] if not a.startswith("--")}

    def make_round(rng: random.Random, index: int) -> list[Job]:
        order = list(invocations)
        rng.shuffle(order)
        jobs = []
        for args in order:
            key = " ".join(args)

            def run(tr, args=args):
                with tr.span("cli.main"):
                    code, stdout, stderr = run_cli(args)
                tr.count("fileio.bytes_parsed", sum(sizes[a] for a in args[1:3] if a in sizes))
                tr.count("cli.exit_nonzero", code != 0)
                if args[0] == "render" and code == 0:
                    tr.count("render.calls")
                    tr.count("render.svg_bytes", len(stdout.encode()))
                return code, stdout, stderr

            def check(out, key=key):
                return _mismatch(cli_digest(*out), expected[key])

            jobs.append(Job(key, run, check))
        return jobs

    # the slowest invocation occurs once a round; eleven rounds keep the
    # tail (the 11th-largest latency) among its samples
    return Workload("cli-fixtures", make_round, patch=(cli_module, CLI_SPANS), min_rounds=11)


def workload(name: str, root: Path, work: Path) -> Workload:
    if name == "weld-grid":
        return weld_grid(work)
    if name == "cohomology-grid":
        return cohomology_grid(work)
    if name == "polygon":
        return polygon(work)
    if name == "cli-fixtures":
        return cli_fixtures(root)
    raise ValueError(f"unknown workload {name!r}")

