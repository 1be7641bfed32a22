"""Traced layer times at the sizes of the ROADMAP's uncommitted baseline.

    python3 perfbench/roadmap_sizes.py

The ROADMAP's uncommitted baseline timed ``build_welded_space`` on
144- and 256-domain torus grids and ``log_cohomology_dims`` on a
64-domain torus grid.  This script runs the weld-grid and
cohomology-grid jobs at exactly those sizes, for all four grid
variants, with the benchmark's tracer, on the inputs of seed 1, and
prints the median seconds of each span over three rounds, scaled to
the reference speed like every benchmark time (``calibration.py``).
The workloads themselves use smaller grids so that a timed run holds
enough jobs; README.md explains the choice and keeps the torus rows
beside the baseline.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import tempfile
from collections import defaultdict
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
REPEATS = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import generators
    import workloads
    from calibration import Calibration
    from tracing import Tracer

    os.chdir(ROOT)
    seconds = defaultdict(list)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work_dir:
        work = Path(work_dir)
        for name, text in generators.LIBRARY.items():
            (work / name).write_text(text)
        rng = random.Random(SEED)
        calibration = Calibration()
        for workload in (workloads.weld_grid(work, (6, 8)), workloads.cohomology_grid(work, (4,))):
            for _ in range(REPEATS):
                for job in workload.make_round(rng, 0):
                    tracer = Tracer()
                    outputs = job.run(tracer)
                    calibration.then(partial(tracer.scale.__setitem__, tracer.job))
                    calibration.flush()
                    verdict = job.check(outputs)
                    if verdict != "ok":
                        raise SystemExit(f"{job.label}: {verdict}")
                    for span, total in tracer.totals("job").items():
                        if "." in span and not span.endswith(".self"):
                            seconds[(workload.name, job.label, span)].append(total)
    for (workload, label, span), values in sorted(seconds.items()):
        print(f"{workload:16s} {label:12s} {span:26s} {statistics.median(values):.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
