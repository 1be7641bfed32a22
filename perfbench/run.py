"""Run one benchmark workload against the checkout's ``src/logaffine``.

    python3 perfbench/run.py --workload weld-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client drives the program in a closed loop, in this process, with
no threads: a job starts when the previous one has returned.  Inputs
come from ``--seed``; every output is checked against an oracle.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs each round once untraced and once traced and prints the
per-layer metrics.  Times are scaled to a reference speed of the
machine (``calibration.py``).  The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import generators
from calibration import REFERENCE_LOOP_S, Calibration
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("weld-grid", "cohomology-grid", "polygon", "cli-fixtures")
SETUP_SAMPLES = 21

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "jobs_per_s": "1/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("fileio", "welding", "topology", "polytopes", "classification", "render", "cli")

# metric -> unit; layer_metrics says how each is computed from the trace
PER_LAYER = {
    "fileio.parse_s": "s",
    "fileio.bytes_parsed": "B",
    "fileio.self_s": "s",
    "welding.spec_s": "s",
    "welding.weld_s": "s",
    "welding.weld_exp": "exponent",
    "welding.pairs_listed": "count",
    "welding.pairs_coerced": "count",
    "welding.edges": "count",
    "welding.crossings": "count",
    "welding.boundary_corners": "count",
    "welding.self_s": "s",
    "topology.betti_s": "s",
    "topology.log_cohomology_s": "s",
    "topology.classify_s": "s",
    "topology.cells": "count",
    "topology.cohomology_exp": "exponent",
    "topology.self_s": "s",
    "polytopes.build_s": "s",
    "polytopes.delzant_s": "s",
    "polytopes.volume_s": "s",
    "polytopes.constraints": "count",
    "polytopes.faces": "count",
    "polytopes.face_ratio": "ratio",
    "polytopes.vertices": "count",
    "polytopes.build_exp": "exponent",
    "polytopes.volume_exp": "exponent",
    "polytopes.self_s": "s",
    "classification.cut_s": "s",
    "classification.record_s": "s",
    "classification.equiv_s": "s",
    "classification.equiv_correct_ratio": "ratio",
    "classification.self_s": "s",
    "render.svg_s": "s",
    "render.svg_bytes": "B",
    "render.self_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.exit_nonzero": "count",
    "trace.job_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# per-layer times that are the summed duration of one span name per job
SPAN_TIMES = {
    "fileio.parse_s": "fileio.parse",
    "welding.spec_s": "welding.spec",
    "welding.weld_s": "welding.weld",
    "topology.betti_s": "topology.betti",
    "topology.log_cohomology_s": "topology.log_cohomology",
    "topology.classify_s": "topology.classify",
    "polytopes.build_s": "polytopes.build",
    "polytopes.delzant_s": "polytopes.delzant",
    "polytopes.volume_s": "polytopes.volume",
    "classification.cut_s": "classification.cut",
    "classification.record_s": "classification.record",
    "classification.equiv_s": "classification.equiv",
    "render.svg_s": "render.svg",
    "cli.main_s": "cli.main",
}

# counters reported as means per job
JOB_COUNTS = (
    "fileio.bytes_parsed",
    "welding.pairs_listed",
    "welding.pairs_coerced",
    "welding.edges",
    "welding.crossings",
    "welding.boundary_corners",
    "topology.cells",
    "polytopes.constraints",
    "polytopes.faces",
    "polytopes.vertices",
)

EXPONENTS = {
    "welding.weld_exp": "welding.weld",
    "topology.cohomology_exp": "topology.log_cohomology",
    "polytopes.build_exp": "polytopes.build",
    "polytopes.volume_exp": "polytopes.volume",
}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import logaffine``,
    one subprocess at a time, after one unmeasured import that leaves
    the bytecode caches warm.  Each interpreter then times the reference
    loop, which scales its sample and is not counted in it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-c", "import logaffine, calibration; print(calibration.reference_loop())"]
    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(command, env=env, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        loop = float(done.stdout)
        samples.append((wall - loop) * REFERENCE_LOOP_S / loop)
    return statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples beyond)``."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Run:
    """Outcomes of the jobs of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # scaled to the reference speed
        self.raw_seconds = 0.0
        self.verdicts: dict[str, int] = {}
        self.failures: list[str] = []
        self.rounds = 0

    def record(self, job, seconds: float | None, outputs, error: str | None, scale: float) -> None:
        if error is None:
            try:
                verdict = job.check(outputs)
            except Exception as exc:  # a malformed output is a failed job
                verdict = f"check raised {exc!r}"
        else:
            verdict = error
        if seconds is not None:
            self.latencies.append(seconds * scale)
            self.raw_seconds += seconds
        kind = verdict if verdict in ("ok", "known-defect") else "failed"
        self.verdicts[kind] = self.verdicts.get(kind, 0) + 1
        if kind == "failed" and len(self.failures) < 5:
            self.failures.append(f"{job.label}: {verdict}")

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())


def run_job(job, tracer):
    """Run one job; returns (seconds or None, outputs, error)."""
    start = time.perf_counter()
    try:
        outputs = job.run(tracer)
    except Exception as exc:  # a raised exception is a failed job
        return None, None, f"raised {exc!r}"
    return time.perf_counter() - start, outputs, None


def rounds(workload, rng: random.Random, seconds: float, run: Run, min_rounds: int = 1):
    """Yield the jobs of whole rounds until the run has taken `seconds`,
    ending as close to it as a round allows, and holds at least
    `min_rounds` rounds."""
    start = time.perf_counter()
    while True:
        jobs = workload.make_round(rng, run.rounds)
        began = time.perf_counter()
        yield jobs
        run.rounds += 1
        now = time.perf_counter()
        if run.rounds >= min_rounds and now - start + (now - began) / 2 >= seconds:
            return


def run_untraced(workload, rng: random.Random, seconds: float) -> Run:
    null = NullTracer()
    result = Run()
    calibration = Calibration()
    for jobs in rounds(workload, rng, seconds, result, workload.min_rounds):
        for job in jobs:
            outcome = run_job(job, null)
            calibration.then(partial(result.record, job, *outcome))
        calibration.flush()
    return result


def run_traced(workload, rng: random.Random, seconds: float):
    """Each round runs untraced and traced on the same inputs, in
    alternating order; returns (traced Run, tracer, scaled untraced
    seconds)."""
    null, tracer = NullTracer(), Tracer()
    traced = Run()
    untraced = [0.0]
    calibration = Calibration()

    def add_untraced(elapsed: float | None, scale: float) -> None:
        untraced[0] += (elapsed or 0.0) * scale

    def record_traced(job_id: int, job, outcome, scale: float) -> None:
        tracer.scale[job_id] = scale
        traced.record(job, *outcome, scale)

    for jobs in rounds(workload, rng, seconds, traced):
        for traced_first in ((True, False) if traced.rounds % 2 == 0 else (False, True)):
            if not traced_first:
                for job in jobs:
                    elapsed, _, _ = run_job(job, null)
                    calibration.then(partial(add_untraced, elapsed))
                calibration.flush()
                continue
            patch = tracer.patched(*workload.patch) if workload.patch else nullcontext()
            with patch:
                for job in jobs:
                    tracer.job += 1
                    with tracer.span("job"):
                        outcome = run_job(job, tracer)
                    if job.probe is not None and outcome[2] is None:
                        job.probe(tracer, outcome[1])
                    calibration.then(partial(record_traced, tracer.job, job, outcome))
                calibration.flush()
    return traced, tracer, untraced[0]


def layer_metrics(traced: Run, tracer, untraced_seconds: float) -> dict[str, float]:
    totals = tracer.totals("job")
    jobs = max(1, tracer.job)
    counts = tracer.counts
    values = {name: totals.get(span, 0.0) / jobs for name, span in SPAN_TIMES.items()}
    values.update({name: counts.get(name, 0.0) / jobs for name in JOB_COUNTS})
    values.update({name: tracer.growth_exponent(span) for name, span in EXPONENTS.items()})
    for layer in LAYERS:
        values[f"{layer}.self_s"] = totals.get(f"{layer}.self", 0.0) / jobs
    faces, constraints = counts.get("polytopes.faces", 0.0), counts.get("polytopes.constraints", 0.0)
    values["polytopes.face_ratio"] = faces / constraints if constraints else 0.0
    calls = counts.get("classification.equiv_calls", 0.0)
    values["classification.equiv_correct_ratio"] = (
        counts.get("classification.equiv_correct", 0.0) / calls if calls else 0.0
    )
    renders = counts.get("render.calls", 0.0)
    values["render.svg_bytes"] = counts.get("render.svg_bytes", 0.0) / renders if renders else 0.0
    values["cli.exit_nonzero"] = counts.get("cli.exit_nonzero", 0.0) / max(1, traced.rounds)
    job_seconds = totals.get("job", 0.0)
    values["trace.job_s"] = job_seconds / jobs
    layer_self = sum(totals.get(f"{layer}.self", 0.0) for layer in LAYERS)
    values["trace.accounted_ratio"] = layer_self / job_seconds if job_seconds else 0.0
    values["trace.overhead_ratio"] = job_seconds / untraced_seconds if untraced_seconds else 0.0
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    os.chdir(ROOT)  # the CLI workload passes paths relative to the root
    setup = None if trace else measure_setup()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work_dir:
        work = Path(work_dir)
        for file_name, text in generators.LIBRARY.items():
            (work / file_name).write_text(text)
        workload = workloads.workload(name, ROOT, work)
        rng = random.Random(seed)
        # one unmeasured job from its own stream fills lazy imports and caches
        warm = workload.make_round(random.Random(f"warm-{seed}"), 0)[0]
        run_job(warm, NullTracer())
        if trace:
            result, tracer, untraced_seconds = run_traced(workload, rng, seconds)
        else:
            result = run_untraced(workload, rng, seconds)

    attempted = result.attempted
    failed = result.verdicts.get("failed", 0)
    defects = result.verdicts.get("known-defect", 0)
    busy = sum(result.latencies)
    print(
        f"workload {name}, seed {seed}: {attempted} jobs in {result.rounds} rounds, "
        f"{result.raw_seconds:.3f} s busy, {busy:.3f} s at the reference speed"
    )
    print(f"ok {result.verdicts.get('ok', 0)}, known records_equivalent defect {defects}, failed {failed}")
    for line in result.failures:
        print(f"FAILED {line}")

    if trace:
        values = layer_metrics(result, tracer, untraced_seconds)
        units = PER_LAYER
    else:
        value, percentile, beyond = tail(result.latencies)
        values = {
            "latency_p50_s": statistics.median(result.latencies) if result.latencies else 0.0,
            "latency_tail_s": value,
            "jobs_per_s": len(result.latencies) / busy if busy else 0.0,
            "ok_ratio": result.verdicts.get("ok", 0) / attempted,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(
            f"latency_tail_s is p{percentile:.1f}: {beyond} of {len(result.latencies)} samples lie beyond it"
        )
    for metric, unit in units.items():
        print(f"{metric} = {values[metric]!r} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another, so each
    reports its own peak memory; metric names get the workload prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "logaffine" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no src/logaffine and fixtures/ to benchmark", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
