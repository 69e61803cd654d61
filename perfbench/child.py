"""Child processes of the offline workloads.

Each measured offline pass runs in its own interpreter, so ``setup_s``
starts at process launch and ``peak_rss_mb`` is the pass's own peak (plus
its pool workers), never the orchestrator's.  Usage::

    python3 -m perfbench.child {sweep,long} PLAN.json [--setup-only] [--trace]

The child prints ``ready`` once set-up is done, then (unless
``--setup-only``) runs the plan and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from perfbench.catalog import sweep_label
from perfbench.common import Spans, rusage_rss_mb


def practical(point):
    from repro.experiments.fig16 import practical_config

    assoc, size, path = point
    return practical_config(path, size, assoc)


# -- sweep --------------------------------------------------------------------


def sweep_setup(plan: dict):
    """Fill the on-disk trace cache: every benchmark generated and stored."""
    import repro.runtime.checkpoint  # noqa: F401 - imported before timing
    import repro.sim.sweep  # noqa: F401
    from repro.sim.suite_runner import SuiteRunner
    from repro.workloads.suite import benchmark_names

    filler = SuiteRunner(cache_dir=plan["cache_dir"], progress=False)
    for name in benchmark_names():
        filler.trace(name)


def sweep_run(plan: dict, traced: bool) -> dict:
    from repro.runtime.cache import TraceCache
    from repro.runtime.checkpoint import CheckpointJournal
    from repro.sim.suite_runner import SuiteRunner
    from repro.sim.sweep import sweep
    from repro.workloads.program import generate_trace
    from repro.workloads.suite import benchmark_names

    spans = Spans(traced)
    names = benchmark_names()
    journal = CheckpointJournal(plan["journal"], resume=False)
    journal.record = spans.wrap("runtime.checkpoint.record", journal.record)
    parent_generated = []  # lengths of the traces the parent generated

    def generate(config):
        trace = generate_trace(config)
        parent_generated.append(len(trace))
        return trace

    runner = SuiteRunner(
        cache_dir=TraceCache(plan["cache_dir"]), checkpoint=journal,
        workers=2, kernel="auto", progress=False, generate_fn=generate)
    points = {sweep_label(*point): practical(point)
              for point in plan["configs"]}
    started = time.perf_counter()
    sweep(points, runner=runner, benchmarks=names, groups=False)
    wall = time.perf_counter() - started
    journal.close()

    misses = {label: [runner.result(config, name).mispredictions
                      for name in names]
              for label, config in points.items()}
    events = sum(runner.result(config, name).events
                 for config in points.values() for name in names)
    summary = runner.metrics_summary()
    result = {
        "wall_s": wall,
        "events": events,
        "misses": misses,
        "benchmarks": names,
        "unit_seconds": [unit["seconds"] for unit in summary["per_unit"]],
        "units": summary["units"],
        "rss_mb": rusage_rss_mb(),
    }
    if traced:
        # Generation and cache loads are timed by the runner itself, in
        # the parent and in every worker; only the parent's generated
        # lengths need counting here.
        phases = summary["phases"]
        loads = summary["trace_loads"]
        parent = summary.get("parent_trace_cache", {})
        first = next(iter(points.values()))
        lengths = {name: runner.result(first, name).events for name in names}
        worker_generated = sum(lengths[unit["benchmark"]]
                               for unit in summary["per_unit"]
                               if unit["trace_source"] == "generated")
        worker_lookups = loads.get("cache", 0) + loads.get("generated", 0)
        lookups = worker_lookups + parent.get("hits", 0) \
            + parent.get("misses", 0)
        hits = loads.get("cache", 0) + parent.get("hits", 0)
        utilization = list(summary["worker_utilization"].values())
        result["layers"] = {
            "workloads.generate_s":
                phases.get("trace_gen", {}).get("seconds", 0.0),
            "workloads.generate_events":
                worker_generated + sum(parent_generated),
            "sim.kernel_s": phases.get("simulate", {}).get("seconds", 0.0),
            "sim.kernel_events": events,
            "runtime.cache.load_s":
                phases.get("trace_load", {}).get("seconds", 0.0),
            "runtime.cache.hit_frac": hits / lookups if lookups else 0.0,
            "runtime.checkpoint.record_s":
                spans.seconds("runtime.checkpoint.record"),
            "runtime.parallel.unit_s": sum(result["unit_seconds"]),
            "runtime.parallel.utilization":
                sum(utilization) / len(utilization) if utilization else 0.0,
            "runtime.parallel.requeued": summary["units"]["requeued"],
        }
    return result


# -- long-trace ---------------------------------------------------------------


def long_setup(plan: dict):
    """Import the generator and the three engines; build each config once."""
    import repro.sim.attribution  # noqa: F401 - imported before timing
    import repro.sim.engine  # noqa: F401
    import repro.sim.kernel  # noqa: F401
    import repro.workloads.program  # noqa: F401
    from repro.core.factory import build_predictor

    for point in plan["configs"].values():
        build_predictor(practical(point))


def long_run(plan: dict, traced: bool) -> dict:
    from repro.core.factory import build_predictor
    from repro.sim.attribution import AttributionCollector
    from repro.sim.engine import simulate
    from repro.workloads.program import generate_trace
    from repro.workloads.suite import workload_config

    spans = Spans(traced)
    kernel_config = practical(plan["configs"]["kernel"])
    event_config = practical(plan["configs"]["event"])
    trace_seconds = []
    events = 0
    generated = 0
    misses = {}

    started = time.perf_counter()
    for name in plan["benchmarks"]:
        began = time.perf_counter()
        with spans.span("workloads.generate"):
            trace = generate_trace(workload_config(name, plan["scale"]))
        generated += len(trace)
        with spans.span("sim.kernel"):
            kernel = simulate(build_predictor(kernel_config), trace,
                              kernel="batch")
        with spans.span("sim.event"):
            event = simulate(build_predictor(event_config), trace,
                             kernel="event")
        with spans.span("sim.attribution"):
            attributed = simulate(build_predictor(kernel_config), trace,
                                  attribution=AttributionCollector())
        trace_seconds.append(time.perf_counter() - began)
        events += kernel.events + event.events + attributed.events
        misses[name] = {"events": len(trace), "kernel": kernel.mispredictions,
                        "event": event.mispredictions,
                        "attribution": attributed.mispredictions}
    wall = time.perf_counter() - started
    result = {"wall_s": wall, "events": events, "misses": misses,
              "trace_seconds": trace_seconds, "rss_mb": rusage_rss_mb()}
    if traced:
        kernel_events = sum(row["events"] for row in misses.values())
        result["layers"] = {
            "workloads.generate_s": spans.seconds("workloads.generate"),
            "workloads.generate_events": generated,
            "sim.kernel_s": spans.seconds("sim.kernel"),
            "sim.kernel_events": kernel_events,
            "sim.event_s": spans.seconds("sim.event"),
            "sim.attribution_s": spans.seconds("sim.attribution"),
            "sim.attribution_events": kernel_events,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("workload", choices=("sweep", "long"))
    parser.add_argument("plan")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    setup, run = {"sweep": (sweep_setup, sweep_run),
                  "long": (long_setup, long_run)}[args.workload]
    setup(plan)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(run(plan, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
