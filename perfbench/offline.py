"""The offline workloads: ``sweep`` and ``long-trace``.

The orchestrator side: it launches :mod:`perfbench.child` processes
(each measured pass in its own interpreter), times their set-up from
launch to ``ready``, and checks every miss count they report against the
committed oracle counts in ``perfbench/expected/``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import List

from perfbench import catalog
from perfbench.common import (
    CHILD_TIMEOUT_S, SETUP_REPEATS, BenchError, Outcome, finish_child,
    launch_child, percentile, read_ready, share,
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / name).read_text())


def run_pass(ctx, workload: str, plan: dict, name: str,
             flags: List[str]) -> tuple:
    """Launch one child on ``plan``.

    Returns (seconds from launch until the child is ready, its result, or
    ``None`` for a ``--setup-only`` pass).
    """
    path = ctx.work_dir / f"plan-{name}.json"
    path.write_text(json.dumps(plan))
    started = time.perf_counter()
    child = launch_child(ctx.root, [workload, str(path), *flags])
    try:
        read_ready(child)
        ready = time.perf_counter() - started
        if "--setup-only" in flags:
            child.communicate(timeout=CHILD_TIMEOUT_S)
            return ready, None
        return ready, finish_child(child)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def run_children(ctx, workload: str, plan_for) -> tuple:
    """Set-up repeats around the measured pass (and, traced, a second one).

    ``plan_for(index)`` returns the plan of set-up repeat ``index``.  The
    middle repeat goes on into the measured pass; the others stop once
    set up, half of them before the measured pass and half after, so that
    the set-up median spans the whole run.  Returns (set-up seconds,
    untraced result, traced result or None).
    """
    repeats = 1 if ctx.trace else SETUP_REPEATS
    measured = (repeats - 1) // 2
    setups: List[float] = []
    for index in range(repeats):
        if index == measured:
            plan = plan_for(index)
            ready, result = run_pass(ctx, workload, plan, "run", [])
        else:
            ready, _ = run_pass(ctx, workload, plan_for(index),
                                f"setup{index}", ["--setup-only"])
        setups.append(ready)
    traced = None
    if ctx.trace:
        if "journal" in plan:
            plan = dict(plan, journal=str(
                ctx.work_dir / "journal-traced.jsonl"))
        _, traced = run_pass(ctx, workload, plan, "traced", ["--trace"])
    return setups, result, traced


def fill(outcome: Outcome, ctx, setups, result, traced, samples) -> None:
    """End-to-end metrics (untraced) or layers + overhead (traced)."""
    if not ctx.trace:
        outcome.metrics = {
            "events_per_s": (result["events"] / result["wall_s"], "1/s"),
            "batch_p50_ms": (1000 * percentile(samples, 0.50), "ms"),
            "batch_p99_ms": (1000 * percentile(samples, 0.99), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["rss_mb"], "MB"),
            "ok_frac": ((outcome.attempted - outcome.failed)
                        / outcome.attempted, "frac"),
        }
        return
    layers = dict(traced["layers"])
    layers["workloads.generate_share"] = share(
        layers["workloads.generate_s"], traced["wall_s"])
    layers["bench.trace_overhead_frac"] = \
        traced["wall_s"] / result["wall_s"] - 1
    outcome.layers = layers


def sweep(ctx) -> Outcome:
    expected = load_expected("sweep.json")
    configs = catalog.sweep_plan(ctx.seed, ctx.work)

    def plan_for(index: int) -> dict:
        return {"cache_dir": str(ctx.work_dir / f"cache-{index}"),
                "journal": str(ctx.work_dir / "journal.jsonl"),
                "configs": configs}

    setups, result, traced = run_children(ctx, "sweep", plan_for)
    names = result["benchmarks"]
    if names != expected["benchmarks"]:
        raise BenchError(f"benchmark list changed: {names}")
    outcome = Outcome(attempted=len(configs) * len(names))
    outcome.failed = result["units"]["poisoned"]
    for run in filter(None, (result, traced)):
        for label, row in run["misses"].items():
            if row != expected["misses"][label]:
                outcome.problems.append(
                    f"sweep {label}: misses {row}, oracle "
                    f"{expected['misses'][label]}")
    outcome.counts = {"sim.misses": sum(map(sum, result["misses"].values())),
                      "sweep.units": result["units"]["completed"],
                      "sweep.events": result["events"]}
    samples = result["unit_seconds"]
    outcome.samples = {"batch": len(samples), "setup": len(setups)}
    fill(outcome, ctx, setups, result, traced, samples)
    return outcome


def long_trace(ctx) -> Outcome:
    expected = load_expected("long_trace.json")
    plan = {"benchmarks": catalog.long_plan(ctx.seed, ctx.work),
            "scale": catalog.LONG_SCALE, "configs": catalog.LONG_CONFIGS}
    setups, result, traced = run_children(ctx, "long", lambda index: plan)
    outcome = Outcome(attempted=len(result["trace_seconds"]))
    for run in filter(None, (result, traced)):
        for name, row in run["misses"].items():
            oracle = expected["misses"][name]
            want = {"events": oracle["events"], "kernel": oracle["kernel"],
                    "event": oracle["event"], "attribution": oracle["kernel"]}
            if row != want:
                outcome.problems.append(
                    f"long-trace {name}: {row}, oracle {want}")
    outcome.counts = {
        "sim.misses": sum(row["kernel"] + row["event"] + row["attribution"]
                          for row in result["misses"].values()),
        "long.events": result["events"]}
    samples = result["trace_seconds"]
    outcome.samples = {"batch": len(samples), "setup": len(setups)}
    fill(outcome, ctx, setups, result, traced, samples)
    return outcome
