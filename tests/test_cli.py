"""Command-line interface: reports, validation, exit codes, drawing."""

from __future__ import annotations

import pytest

from logaffine.cli import main

from conftest import FAR_RECTANGLE, fixture_path


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


def test_out_flag_writes_file(capsys, tmp_path) -> None:
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "cohomology", fx("sphere.weld"), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "h2_log = 10" in target.read_text().splitlines()
