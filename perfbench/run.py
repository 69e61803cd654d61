"""Entry point of the benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` prints the per-layer metrics of a traced run plus the tracing
overhead, the traced over the untraced time of the same work.
``--seconds`` sizes the fixed amount of work (about that many seconds of
measurement on a 2-vCPU host); it is never a timer.  The last stdout line is the result object; the line
before it is the run's environment record (host-speed probe, CPU steal,
sample counts, exact counts), also appended to
``.perfbench-state/runs.jsonl``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("sweep", "long-trace", "serve-churn")

#: serve-churn events per request batch.  An assumption, not recorded
#: traffic: 16x loadgen's default of 64, chosen for fewer process wake-ups
#: per event (see perfbench/README.md, "Serving traffic").
BATCH_EVENTS = 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--batch-events", type=int, default=BATCH_EVENTS,
        help=f"serve-churn only: events per request batch (default "
             f"{BATCH_EVENTS}; the program's loadgen default is 64)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.batch_events < 1:
        parser.error("--batch-events must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are not in this "
              "directory; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    os.environ.pop("REPRO_TRACE_SCALE", None)
    from perfbench import common, offline, serving

    spec = json.loads((root / "BENCHMARK.json").read_text())
    runners = {"sweep": offline.sweep, "long-trace": offline.long_trace,
               "serve-churn": serving.churn}
    work_dir = root / common.WORK_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = SimpleNamespace(root=root, work_dir=work_dir, seed=args.seed,
                          work=args.seconds / 10.0, trace=bool(args.trace),
                          batch_events=args.batch_events)
    started = time.perf_counter()
    probe_before = common.host_probe()
    ticks_before = common.cpu_ticks()
    try:
        outcome = runners[args.workload](ctx)
    except common.BenchError as exc:
        outcome = common.Outcome(attempted=1)
        outcome.failed = 1
        outcome.problems.append(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    ticks = [after - before for after, before
             in zip(common.cpu_ticks(), ticks_before)]
    probe_after = common.host_probe()

    ledger = common.Ledger(root, args.workload, args.seed, args.seconds,
                           args.batch_events)
    diffs = ledger.check(outcome.counts)
    outcome.problems.extend(f"count changed across runs of one seed: {d}"
                            for d in diffs)
    if args.trace:
        metrics = {entry["name"]: {
            "value": float(outcome.layers.get(entry["name"], 0.0)),
            "unit": entry["unit"]} for entry in spec["per_layer"]}
    else:
        metrics = {name: {"value": float(value), "unit": unit}
                   for name, (value, unit) in outcome.metrics.items()}
        missing = [entry["name"] for entry in spec["end_to_end"]
                   if entry["name"] not in metrics]
        if missing and not outcome.problems:
            outcome.problems.append(f"metrics not measured: {missing}")
    correct = not outcome.problems and outcome.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "batch_events": args.batch_events,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "cpu_steal_frac": round(common.share(*ticks), 4),
        "elapsed_s": round(time.perf_counter() - started, 3),
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "samples": outcome.samples, "counts": outcome.counts,
        "problems": outcome.problems[:20],
    }
    common.append_record(root, record)
    print(json.dumps({"env": record}, sort_keys=True))
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
