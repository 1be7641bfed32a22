"""The benchmark's own checks: seeded generators, oracles against the
program at the smallest size of each family, and the metric contract."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import generators as gen
import oracles
import run
import workloads
from calibration import Calibration
from tracing import NullTracer, Tracer

from logaffine import (
    betti_numbers,
    build_polytope,
    build_welded_space,
    cut_report,
    delzant_check,
    euler_characteristic,
    log_cohomology_dims,
    make_bundle,
    make_invariant_record,
    records_equivalent,
    regularized_volume,
)
from logaffine.fileio import parse_bundle_text, parse_polytope_text, parse_welding_text

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("work")
    for name, text in gen.LIBRARY.items():
        (path / name).write_text(text)
    return path


def _generated(seed: int) -> list[str]:
    rng = random.Random(seed)
    texts = [gen.grid_welding(rng, v, 2).text for v in gen.GRID_VARIANTS]
    for k, redundant in ((8, 0), (16, 8)):
        poly = gen.delzant_polygon(rng, k, redundant)
        texts.append(gen.polygon_text(rng, poly))
        texts.append(gen.polygon_text(rng, gen.shear_polygon(poly, gen.random_unimodular(rng))))
    return texts + [t for s in gen.STRIP_SHEARS for t in gen.strip_texts(s)]


def test_generators_repeat_for_a_seed() -> None:
    assert _generated(7) == _generated(7)
    assert _generated(7) != _generated(8)


def test_redundant_constraints_are_distinct_and_strict() -> None:
    for seed in range(200):
        poly = gen.delzant_polygon(random.Random(seed), 12, 6)
        assert len(set(poly.redundant)) == 6
        vertices = gen.polygon_vertices(poly.sides)
        assert all(n[0] * x + n[1] * y + c > 0 for n, c in poly.redundant for x, y in vertices)


def test_workload_rounds_repeat_for_a_seed(work) -> None:
    for name in run.WORKLOADS:
        w = workloads.workload(name, ROOT, work)
        labels = [[j.label for j in w.make_round(random.Random(3), i)] for i in range(2)]
        again = [[j.label for j in w.make_round(random.Random(3), i)] for i in range(2)]
        assert labels == again


@pytest.mark.parametrize("variant", gen.GRID_VARIANTS)
def test_grid_oracles_match_the_program_at_m_1(work, variant) -> None:
    case = gen.grid_welding(random.Random(0), variant, 1)
    space = build_welded_space(parse_welding_text(case.text, "grid.weld", base=work).spec)
    report = oracles.grid_weld_report(variant, 1)
    assert len(space.pairs) == report["pairs"]
    assert len(space.edges) == report["edges"]
    assert len(space.crossings) == report["crossings"]
    assert len(space.boundary_corners) == report["boundary_corners"]
    assert len(space.divisor_components) == report["divisor_components"]
    assert sum(c.closed for c in space.divisor_components) == report["closed_components"]
    assert (space.orientable, space.compact, space.has_boundary) == (
        report["orientable"],
        report["compact"],
        report["boundary"],
    )
    cohomology = oracles.grid_cohomology(variant, 1)
    assert betti_numbers(space) == cohomology["betti"]
    assert log_cohomology_dims(space) == cohomology["log_cohomology"]
    assert euler_characteristic(space) == cohomology["euler"]


@pytest.mark.parametrize("redundant", (0, 4))
def test_polygon_oracle_matches_the_program_at_k_8(work, redundant) -> None:
    rng = random.Random(1)
    poly = gen.delzant_polygon(rng, 8, redundant)
    bundle = parse_bundle_text(gen.ZERO_BUNDLE)

    def built(polygon):
        pf = parse_polytope_text(gen.polygon_text(rng, polygon), "p.poly", base=work)
        return build_polytope(build_welded_space(pf.spec.welding), pf.spec)

    p = built(poly)
    assert regularized_volume(p) == oracles.polygon_area(poly)
    assert delzant_check(p).ok
    assert cut_report(p, bundle).fixed_points == len(p.faces) == 8
    sheared = built(gen.shear_polygon(poly, gen.random_unimodular(rng)))
    assert records_equivalent(
        make_invariant_record(p, bundle), make_invariant_record(sheared, bundle)
    )


def test_strip_pair_oracle_matches_the_program_at_s_1(work) -> None:
    bundle = make_bundle(2, [(), ()])
    records = []
    for text in gen.strip_texts(1):
        pf = parse_polytope_text(text, "strip.poly", base=work)
        p = build_polytope(build_welded_space(pf.spec.welding), pf.spec)
        records.append(make_invariant_record(p, bundle))
    assert records_equivalent(*records)


def test_first_round_of_each_workload_checks_out(work) -> None:
    for name in run.WORKLOADS:
        w = workloads.workload(name, ROOT, work)
        job = w.make_round(random.Random(5), 0)[0]
        seconds, outputs, error = run.run_job(job, NullTracer())
        assert error is None, error
        assert job.check(outputs) in ("ok", "known-defect"), job.label


def test_self_times_account_for_the_root_span() -> None:
    tracer = Tracer()
    with tracer.span("job"):
        with tracer.span("a.outer"):
            with tracer.span("b.inner"):
                sum(range(10000))
        with tracer.span("b.inner"):
            sum(range(10000))
    totals = tracer.totals("job")
    layers = totals["a.self"] + totals["b.self"]
    assert layers == pytest.approx(totals["job"], rel=0.05)
    assert totals["b.inner"] == pytest.approx(totals["b.self"])


def test_every_queued_job_gets_a_scale_and_spans_follow_it() -> None:
    scales: list[float] = []
    calibration = Calibration()
    for _ in range(3):
        calibration.then(scales.append)
    calibration.flush()
    assert len(scales) == 3 and scales[0] > 0 and len(set(scales)) == 1

    tracer = Tracer()
    tracer.job = 1
    with tracer.span("job"):
        with tracer.span("a.outer"):
            sum(range(10000))
    plain = tracer.totals("job")
    tracer.scale[1] = 2.0
    scaled = tracer.totals("job")
    assert scaled["a.outer"] == pytest.approx(2 * plain["a.outer"])
    assert scaled["a.self"] == pytest.approx(2 * plain["a.self"])


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "weld-grid",
             "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        result = _last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "weld-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_cli_check_fails_on_changed_error_text(work) -> None:
    w = workloads.workload("cli-fixtures", ROOT, work)
    job = next(j for j in w.make_round(random.Random(1), 0) if j.label == "weld fixtures/cond1.weld")
    code, stdout, stderr = job.run(NullTracer())
    assert code == 1 and stderr and job.check((code, stdout, stderr)) == "ok"
    assert job.check((code, stdout, stderr + "changed\n")) != "ok"
