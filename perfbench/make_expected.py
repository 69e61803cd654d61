"""Regenerate the committed oracle miss counts in ``perfbench/expected/``.

Every count comes from the per-event oracle engine (``kernel="event"``),
so the benchmark's batch-kernel runs are checked against the reference
loop, not against themselves.  Run from the repository root::

    PYTHONPATH=src python3 -m perfbench.make_expected [sweep] [long]

The sweep catalog takes a few minutes on two workers; the long-trace
catalog about a minute.  Regenerate only when the catalog or the
predictor model changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from perfbench import catalog

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SCHEMA = "perfbench-expected/1"


def practical(assoc: object, size: int, path: int):
    from repro.experiments.fig16 import practical_config

    return practical_config(path, size, assoc)


def make_sweep() -> dict:
    from repro.sim.suite_runner import SuiteRunner
    from repro.sim.sweep import sweep
    from repro.workloads.suite import benchmark_names

    names = benchmark_names()
    points = {catalog.sweep_label(*point): practical(*point)
              for point in catalog.sweep_catalog()}
    with tempfile.TemporaryDirectory(dir=".") as cache:
        runner = SuiteRunner(cache_dir=cache, workers=2, kernel="event",
                             progress=False)
        sweep(points, runner=runner, benchmarks=names, groups=False)
        counts = {label: [runner.result(config, name).mispredictions
                          for name in names]
                  for label, config in points.items()}
    return {"schema": SCHEMA, "workload": "sweep", "kernel": "event",
            "benchmarks": names, "misses": counts}


def make_long() -> dict:
    from repro.core.factory import build_predictor
    from repro.sim.engine import simulate
    from repro.workloads.program import generate_trace
    from repro.workloads.suite import workload_config

    counts = {}
    for name in catalog.LONG_BENCHMARKS:
        trace = generate_trace(workload_config(name, catalog.LONG_SCALE))
        row = {"events": len(trace)}
        for role, point in catalog.LONG_CONFIGS.items():
            row[role] = simulate(build_predictor(practical(*point)),
                                 trace, kernel="event").mispredictions
        counts[name] = row
        print(f"{name}: {row}", file=sys.stderr)
    return {"schema": SCHEMA, "workload": "long-trace", "kernel": "event",
            "scale": catalog.LONG_SCALE,
            "configs": {role: catalog.sweep_label(*point)
                        for role, point in catalog.LONG_CONFIGS.items()},
            "misses": counts}


def main(argv) -> int:
    os.environ.pop("REPRO_TRACE_SCALE", None)
    targets = argv or ["sweep", "long"]
    EXPECTED_DIR.mkdir(exist_ok=True)
    makers = {"sweep": (make_sweep, "sweep.json"),
              "long": (make_long, "long_trace.json")}
    for target in targets:
        make, filename = makers[target]
        data = make()
        (EXPECTED_DIR / filename).write_text(
            json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {EXPECTED_DIR / filename}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
