"""Command-line interface: reports, validation, exit codes, drawing."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logaffine
from logaffine.cli import _build_parser, main

from conftest import FAR_RECTANGLE, PERFBENCH, fixture_path

ROOT = PERFBENCH.parent
RECORDED = json.loads((PERFBENCH / "cli_expected.json").read_text())


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(fixture_path(name))


# ------------------------------------------------------------- cohomology


def test_cohomology_reports_log_dimensions(capsys) -> None:
    code, out, _ = run(capsys, "cohomology", fx("sphere.weld"))
    assert code == 0
    assert "h2_log = 10" in out.splitlines()
    code, out, _ = run(capsys, "cohomology", fx("genus2.weld"))
    assert code == 0
    assert "h2_log = 13" in out.splitlines()


def test_kv_format_drops_spaces(capsys) -> None:
    code, out, _ = run(capsys, "cohomology", fx("sphere.weld"), "--format", "kv")
    assert code == 0
    assert "h2_log=10" in out.splitlines()


def test_cohomology_rejects_other_kinds(capsys) -> None:
    code, _, err = run(capsys, "cohomology", fx("triangle.fan"))
    assert code == 1
    assert "welding" in err


# --------------------------------------------------------------- topology


def test_topology_of_closed_surfaces(capsys) -> None:
    code, out, _ = run(capsys, "topology", fx("torus.weld"))
    assert code == 0
    lines = out.splitlines()
    for expected in (
        "euler = 0",
        "genus = 1",
        "divisor_circles = 4",
        "crossings = 4",
        "surface = torus",
    ):
        assert expected in lines


# Closed non-orientable surfaces welded from four fixture-fan domains.
PROJECTIVE_PLANE = """logaffine welding 1
fan T = triangle.fan
domain 1 = T
domain 2 = T
domain 3 = T
domain 4 = T
pair p1 = 1.a ~ 2.a
pair p2 = 1.b ~ 3.b
pair p3 = 1.c ~ 4.c
pair p4 = 2.b ~ 4.b
pair p5 = 2.c ~ 3.c
pair p6 = 3.a ~ 4.a
"""
KLEIN_BOTTLE = """logaffine welding 1
fan S = square.fan
domain 1 = S
domain 2 = S
domain 3 = S
domain 4 = S
pair p1 = 1.a ~ 2.a
pair p2 = 1.b ~ 3.b
pair p3 = 1.c ~ 2.c
pair p4 = 1.d ~ 4.d
pair p5 = 2.b ~ 4.b
pair p6 = 2.d ~ 3.d
pair p7 = 3.a ~ 4.a
pair p8 = 3.c ~ 4.c
"""


@pytest.mark.parametrize(
    "fan, text, euler, b1, crossings, crosscaps, surface, h_log",
    [
        ("triangle.fan", PROJECTIVE_PLANE, 1, 0, 3, 1, "projective plane", (1, 3, 6, 0)),
        ("square.fan", KLEIN_BOTTLE, 0, 1, 4, 2, "Klein bottle", (1, 5, 8, 0)),
    ],
    ids=["projective-plane", "klein-bottle"],
)
def test_closed_nonorientable_surfaces(
    tmp_path, capsys, fan, text, euler, b1, crossings, crosscaps, surface, h_log
) -> None:
    (tmp_path / fan).write_text(fixture_path(fan).read_text())
    weld = tmp_path / "surface.weld"
    weld.write_text(text)
    code, out, _ = run(capsys, "topology", str(weld))
    assert code == 0
    assert {
        f"euler = {euler}",
        f"b1 = {b1}",
        "orientable = false",
        f"crossings = {crossings}",
        f"crosscaps = {crosscaps}",
        f"surface = {surface}",
    } <= set(out.splitlines())
    code, out, _ = run(capsys, "cohomology", str(weld))
    assert code == 0
    assert out.splitlines() == [
        "b0 = 1",
        f"b1 = {b1}",
        "b2 = 0",
        *(f"h{degree}_log = {h}" for degree, h in enumerate(h_log)),
    ]
    # the whole space as a polytope counts the same cross-caps
    poly = tmp_path / "whole.poly"
    poly.write_text("logaffine polytope 1\nwelding surface.weld\n")
    code, out, _ = run(capsys, "topology", str(poly))
    assert code == 0
    assert {
        f"euler = {euler}",
        "orientable = false",
        f"crosscaps = {crosscaps}",
        "boundary_circles = 0",
    } <= set(out.splitlines())


def test_topology_of_open_arrangement(capsys) -> None:
    code, out, _ = run(capsys, "topology", fx("skewlines.weld"))
    assert code == 0
    lines = out.splitlines()
    for expected in (
        "euler = 1",
        "divisor_lines = 3",
        "crossings = 3",
        "compact = false",
    ):
        assert expected in lines
    assert not any(line.startswith("surface") for line in lines)


def test_topology_of_polytope(capsys) -> None:
    code, out, _ = run(capsys, "topology", fx("gen1.poly"))
    assert code == 0
    lines = out.splitlines()
    for expected in (
        "euler = -1",
        "genus = 1",
        "boundary_circles = 1",
        "singular_faces = 0",
        "log_faces = 1",
        "moduli = 5",
    ):
        assert expected in lines


# ------------------------------------------------------------------- weld


def test_weld_report(capsys) -> None:
    code, out, _ = run(capsys, "weld", fx("quadrants.weld"))
    assert code == 0
    lines = out.splitlines()
    assert "domains = 4" in lines
    assert "pairs = 4" in lines
    assert "edge w1 = welded, residue (1, 0)" in lines
    assert "crossings = 1" in lines
    assert "orientable = true" in lines


def test_weld_rejects_obstructed_configuration(capsys) -> None:
    code, _, err = run(capsys, "weld", fx("cond1.weld"))
    assert code == 1
    assert "error" in err


# --------------------------------------------------------------- validate


def test_validate_good_and_bad_fans(capsys) -> None:
    code, out, _ = run(capsys, "validate", fx("triangle.fan"))
    assert code == 0
    assert "valid = true" in out.splitlines()

    code, out, _ = run(capsys, "validate", fx("badfan.fan"))
    assert code == 1
    lines = out.splitlines()
    assert "valid = false" in lines
    assert any(line.startswith("violation 1 = ") for line in lines)


def test_validate_welding_and_polytope(capsys) -> None:
    code, out, _ = run(capsys, "validate", fx("sphere.weld"))
    assert code == 0 and "valid = true" in out.splitlines()

    code, out, _ = run(capsys, "validate", fx("cond1.weld"))
    assert code == 1
    assert "valid = false" in out.splitlines()

    code, out, _ = run(capsys, "validate", fx("rect.poly"))
    assert code == 0 and "valid = true" in out.splitlines()


def test_validate_reports_a_polytope_that_does_not_build(tmp_path, capsys) -> None:
    for name in ("plane.weld", "emptyfan.fan"):
        (tmp_path / name).write_text(fixture_path(name).read_text())
    poly = tmp_path / "twice.poly"
    poly.write_text(
        "logaffine polytope 1\nwelding plane.weld\n"
        "constraint 1.f = (1, 0) + 0\nconstraint 1.g = (1, 0) + 0\n"
    )
    code, out, _ = run(capsys, "validate", str(poly))
    assert code == 1
    assert out.splitlines() == [
        "kind = polytope",
        "valid = false",
        "violation 1 = constraints 1.f and 1.g cut along the same line",
    ]


def test_topology_rejects_a_fan_file(capsys) -> None:
    code, out, err = run(capsys, "topology", fx("square.fan"))
    assert (code, out) == (1, "")
    assert err == "error: topology reports need a welding or polytope file, got fan\n"


def test_validate_accepts_higher_dimensional_data(capsys) -> None:
    code, out, _ = run(capsys, "validate", fx("dim3.weld"))
    assert code == 0 and "valid = true" in out.splitlines()
    code, out, _ = run(capsys, "validate", fx("dim3.poly"))
    assert code == 0 and "valid = true" in out.splitlines()


def test_parse_errors_exit_2(capsys, tmp_path) -> None:
    bad = tmp_path / "broken.fan"
    bad.write_text("logaffine fan 1\nvector a = oops\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "broken.fan" in err

    code, _, err = run(capsys, "weld", fx("missing.weld"))
    assert code == 2
    assert "cannot read file" in err


# ---------------------------------------------------------------- delzant


def test_delzant_subcommand(capsys) -> None:
    code, out, _ = run(capsys, "delzant", fx("unitsquare.poly"))
    assert code == 0
    assert out.splitlines() == ["delzant = true"]

    code, out, _ = run(capsys, "delzant", fx("delzfail.poly"))
    assert code == 0
    assert out.splitlines() == [
        "delzant = false",
        "witness v1 = (1, 0) (1, 2)",
    ]


# ----------------------------------------------------------------- volume


def test_volume_subcommand(capsys) -> None:
    code, out, _ = run(capsys, "volume", fx("rect.poly"))
    assert code == 0
    lines = out.splitlines()
    assert "volume = 1.000000000000" in lines
    assert "volume_exact = 1" in lines

    code, out, _ = run(capsys, "volume", fx("symm1d.poly"))
    assert code == 0
    assert "volume = 0.000000000000" in out.splitlines()


def test_volume_flags(capsys) -> None:
    code, out, _ = run(capsys, "volume", fx("rect.poly"), "--eps", "1/100")
    assert code == 0
    assert "volume = 1.000000000000" in out.splitlines()


def test_volume_rejects_a_malformed_eps(capsys) -> None:
    for token in ("abc", "1/0"):
        with pytest.raises(SystemExit) as info:
            main(["volume", fx("rect.poly"), "--eps", token])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert f"not a rational number: {token!r}" in err


def _digest(code: int, out: str, err: str) -> tuple[int, str, str]:
    return code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()


def _recorded(invocation: str) -> tuple[int, str, str]:
    entry = RECORDED[invocation]
    return entry["exit"], entry["sha256"], entry["stderr_sha256"]


def test_a_parse_error_leaves_the_shared_parser_usable(capsys, monkeypatch) -> None:
    """One parser serves every ``main`` call of a process, also after a
    call that exits on a malformed option."""
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as info:
        main(["volume", "fixtures/rect.poly", "--eps", "abc"])
    assert info.value.code == 2
    assert "not a rational number: 'abc'" in capsys.readouterr().err
    invocation = "volume fixtures/gen1.poly"
    code = main(invocation.split(" "))
    captured = capsys.readouterr()
    assert _digest(code, captured.out, captured.err) == _recorded(invocation)
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("invocation", ["cohomology fixtures/torus.weld", "volume fixtures/compdelt.poly"])
def test_a_fresh_process_prints_the_recorded_output(invocation: str) -> None:
    """``python -m logaffine.cli`` builds its own parser: one success and
    one exit 1, each in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(logaffine.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "logaffine.cli", *invocation.split(" ")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert _digest(done.returncode, done.stdout, done.stderr) == _recorded(invocation)


def test_volume_far_from_the_strata(tmp_path, capsys) -> None:
    for name in ("quadrants.weld", "quadrant.fan"):
        (tmp_path / name).write_text(fixture_path(name).read_text())
    path = tmp_path / "far.poly"
    path.write_text(FAR_RECTANGLE)
    for extra in ((), ("--eps", "1/2"), ("--eps", "1e-25")):
        code, out, _ = run(capsys, "volume", str(path), *extra)
        assert code == 0
        assert "volume_exact = 88" in out.splitlines()


def test_volume_error_paths(capsys) -> None:
    code, _, err = run(capsys, "volume", fx("compdelt.poly"))
    assert code == 1
    assert "singular" in err

    code, _, err = run(capsys, "volume", fx("dim3.poly"))
    assert code == 3


# -------------------------------------------------------------------- cut


def test_cut_on_an_interval_with_a_rank_one_bundle(tmp_path, capsys) -> None:
    bundle = tmp_path / "line.bundle"
    bundle.write_text("logaffine bundle 1\nrank 1\nchern 1 = ()\n")
    code, out, _ = run(capsys, "cut", fx("line1d.poly"), str(bundle))
    assert code == 0
    assert "moduli = 0" in out.splitlines()
    code, out, _ = run(capsys, "cut", fx("line1d.poly"), str(bundle), "--record")
    assert code == 0
    assert "dim 1" in out.splitlines()
    assert "chern 1 = ()" in out.splitlines()


def test_cut_subcommand(capsys) -> None:
    code, out, _ = run(capsys, "cut", fx("unitsquare.poly"), fx("trivial.bundle"))
    assert code == 0
    lines = out.splitlines()
    for expected in (
        "euler = 4",
        "fixed_points = 4",
        "smooth_closed = true",
        "moduli = 0",
        "stratum interior = kind top, dim 2, fiber_rank 2",
        "stratum v1 = kind vertex, dim 0, fiber_rank 0",
    ):
        assert expected in lines


def test_cut_record_output(capsys) -> None:
    code, out, _ = run(
        capsys, "cut", fx("unitsquare.poly"), fx("trivial.bundle"), "--record"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "logaffine record 1"
    assert "moduli 0" in lines
    assert "chern 1 = (0)" in lines
    assert "constraint 1.x0 = (1, 0) + 0" in lines


def test_cut_requires_lattice_criterion(capsys) -> None:
    code, _, err = run(capsys, "cut", fx("delzfail.poly"), fx("trivial.bundle"))
    assert code == 1
    assert "lattice" in err


def test_cut_counts_the_chern_vectors_of_a_huge_rank(tmp_path, capsys) -> None:
    """A rank far beyond memory is reported, not listed index by index."""
    bundle = tmp_path / "huge.bundle"
    bundle.write_text("logaffine bundle 1\nrank 99999999999\n")
    code, out, err = run(capsys, "cut", fx("gen1.poly"), str(bundle))
    assert (code, out) == (2, "")
    assert err == f"error: {bundle}:2: expected chern vectors 1..99999999999\n"


# ----------------------------------------------------------------- render


def test_render_fan_arrows_and_cones(capsys) -> None:
    code, out, _ = run(capsys, "render", fx("wedge.fan"))
    assert code == 0
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    assert out.count('class="ray"') == 3
    assert out.count('class="cone"') == 1


def test_render_polytope_hatches_half_spaces(capsys) -> None:
    code, out, _ = run(capsys, "render", fx("compdelt.poly"))
    assert code == 0
    assert out.count('class="constraint"') == 2
    assert out.count('class="hatch"') > 0
    assert out.count('class="ray"') == 2


def test_render_welding_panels(capsys) -> None:
    code, out, _ = run(capsys, "render", fx("quadrants.weld"))
    assert code == 0
    assert out.count('<rect class="frame"') == 4
    assert "a[w1]" in out


def test_render_rejects_unsupported_inputs(capsys) -> None:
    code, _, err = run(capsys, "render", fx("dim3.fan"))
    assert code == 3
    code, _, err = run(capsys, "render", fx("halfline.fan"))
    assert code == 3
    code, _, err = run(capsys, "render", fx("trivial.bundle"))
    assert code == 1
    assert "picture" in err


def test_render_names_a_zero_vector(tmp_path, capsys) -> None:
    """A fan with a zero ray has no picture: exit 1, as ``validate``
    reports it, naming the vector."""
    path = tmp_path / "zero.fan"
    text = fixture_path("badfan.fan").read_text()
    path.write_text(text.replace("vector b = (2, 0)", "vector b = (0, 0)"))
    code, out, err = run(capsys, "render", str(path))
    assert (code, out, err) == (1, "", "error: vector b is zero\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "violation 1 = vector b is zero" in out.splitlines()


BIG = 10**400
FAN_OF_RAY = """logaffine fan 1
dim 2
vector a = ({a})
vector b = (0, 1)
cone []
cone [a]
cone [b]
cone [a b]
"""


@pytest.mark.parametrize("ray", [f"1/{BIG}, 0", f"{BIG}, 1"], ids=["tiny", "huge"])
def test_render_draws_a_ray_beyond_the_float_range(tmp_path, capsys, ray) -> None:
    """A valid ray whose coordinates underflow or overflow a float is
    drawn along its direction, here the x axis."""
    path = tmp_path / "far.fan"
    path.write_text(FAN_OF_RAY.format(a=ray))
    assert run(capsys, "validate", str(path))[1].splitlines()[1] == "valid = true"
    code, out, err = run(capsys, "render", str(path))
    assert (code, err) == (0, "")
    assert '<line class="ray" x1="150.00" y1="150.00" x2="245.00" y2="150.00"' in out


@pytest.mark.parametrize(
    "constraints, lines",
    [
        ([f"(1, 0) + {BIG}"], ['x1="80.00" y1="267.00" x2="80.00" y2="33.00"']),
        (
            [f"(1, 0) + 1/{BIG}", f"(0, 1) + 1/{BIG}"],
            [
                'x1="80.00" y1="267.00" x2="80.00" y2="33.00"',
                'x1="267.00" y1="220.00" x2="33.00" y2="220.00"',
            ],
        ),
    ],
    ids=["huge", "tiny"],
)
def test_render_scales_constants_beyond_the_float_range(
    tmp_path, capsys, constraints, lines
) -> None:
    """The largest constant sets the panel scale exactly, so a constant
    that overflows or underflows a float is drawn at the cone radius."""
    for name in ("plane.weld", "emptyfan.fan"):
        (tmp_path / name).write_text(fixture_path(name).read_text())
    path = tmp_path / "far.poly"
    path.write_text(
        "logaffine polytope 1\nwelding plane.weld\n"
        + "".join(f"constraint 1.c{i} = {c}\n" for i, c in enumerate(constraints))
        + "orientation +\n"
    )
    assert run(capsys, "validate", str(path))[1].splitlines()[1] == "valid = true"
    code, out, err = run(capsys, "render", str(path))
    assert (code, err) == (0, "")
    assert re.findall(r'<line class="constraint" (.*)/>', out) == lines


# ------------------------------------------------------------ determinism


def test_reports_are_deterministic(capsys) -> None:
    _, first, _ = run(capsys, "cohomology", fx("sphere.weld"))
    _, second, _ = run(capsys, "cohomology", fx("sphere.weld"))
    assert first == second

    _, first, _ = run(capsys, "render", fx("hexagon.fan"))
    _, second, _ = run(capsys, "render", fx("hexagon.fan"))
    assert first == second

    _, first, _ = run(capsys, "cut", fx("gen1.poly"), fx("trivial.bundle"))
    _, second, _ = run(capsys, "cut", fx("gen1.poly"), fx("trivial.bundle"))
    assert first == second


SEEDED = (
    "weld fixtures/genus2.weld",
    "topology fixtures/skewlines.weld",
    "cohomology fixtures/mobius.weld",
    "volume fixtures/gen1.poly",
    "cut fixtures/figmodel.poly fixtures/hopf.bundle --record",
    "render fixtures/quadrants.weld",
    "validate fixtures/badfan.fan",
)

# runs each invocation given as JSON in argv[1] and prints the exit
# codes and outputs as JSON
REPLAY = """
import contextlib, io, json, sys
from logaffine.cli import main
results = []
for invocation in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(invocation.split(" "))
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_reports_do_not_depend_on_the_hash_seed() -> None:
    """Two fresh interpreters whose string hashes differ print the
    recorded reports, byte for byte."""
    src = str(Path(logaffine.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "4242"):
        done = subprocess.run(
            [sys.executable, "-c", REPLAY, json.dumps(SEEDED)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert [_digest(*result) for result in runs[0]] == [_recorded(i) for i in SEEDED]


COMMANDS = {
    ".fan": ("validate", "render"),
    ".weld": ("weld", "cohomology", "topology", "validate", "render"),
    ".poly": ("volume", "delzant", "topology", "validate", "render", "cut"),
    ".bundle": ("cut",),
}


@st.composite
def mutants(draw) -> tuple[str, str]:
    """A fixture's suffix and its text with a few lines deleted,
    repeated or swapped, or an integer shifted."""
    path = draw(st.sampled_from(sorted(fixture_path("").iterdir())))
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "repeat", "swap", "shift")))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            numbers = list(re.finditer(r"\d+", lines[i]))
            if numbers:
                n = draw(st.sampled_from(numbers))
                shifted = int(n.group()) + draw(st.integers(-3, 3))
                lines[i] = lines[i][: n.start()] + str(shifted) + lines[i][n.end() :]
    return path.suffix, "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutant=mutants(), data=st.data())
def test_a_mutated_fixture_exits_with_a_report_or_an_error(mutant, data) -> None:
    """Whatever a few edits do to a fixture, the command line reports
    it or exits 1 to 3 with a message, never with an uncaught exception."""
    suffix, text = mutant
    command = data.draw(st.sampled_from(COMMANDS[suffix]))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for path in fixture_path("").iterdir():
            (tmp / path.name).write_text(path.read_text())
        mutated = tmp / f"mutant{suffix}"
        mutated.write_text(text)
        argv = [command, str(mutated)]
        if command == "cut":  # a polytope, then a bundle
            pair = (mutated, tmp / "hopf.bundle") if suffix == ".poly" else (tmp / "gen1.poly", mutated)
            argv = ["cut", *map(str, pair)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)


def test_out_flag_writes_file(capsys, tmp_path) -> None:
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "cohomology", fx("sphere.weld"), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "h2_log = 10" in target.read_text().splitlines()
