"""The serving workload: ``repro serve`` driven by a closed loop.

Each shard gets one client thread, and each thread sends only the
batches of the tenants ``protocol.shard_for`` routes to its shard, in a
fixed order.  A tenant waits for each reply before its next batch id, so
every shard sees the same arrival order on every run of a seed.  All
streams are generated and cut into batches before timing starts.

``serve-churn`` gives each shard ``HOT`` tenants that send every round
and ``COLD`` tenants that take turns sending one batch a round, with
``--max-resident HOT + 1``: each cold batch evicts the previous cold
tenant and reloads its own (replaying its whole stream), so after
warm-up a fixed fifth of all batches reload, while the hot four fifths
are incremental applies.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import catalog
from perfbench.common import (
    SETUP_REPEATS, BenchError, Outcome, Spans, child_env, child_pids,
    percentile, share, vm_hwm_mb,
)

#: Churn population per shard; the cold tenants share one resident slot.
HOT = 4
COLD = 2
CHURN_RESIDENT = HOT + 1
CHURN_ROUNDS = 90

#: ``repro serve --checkpoint-interval`` default, used by the replay too.
CHECKPOINT_INTERVAL = 256

Batch = Tuple[str, int, List[int], List[int]]


class ServeWorkload:
    """One shard-partitioned, seeded batch schedule."""

    def __init__(self, seed: int, work: float, batch_events: int) -> None:
        from repro.workloads.program import WorkloadConfig, generate_trace

        self.batch_events = batch_events
        rng = random.Random(seed)
        # Reload cost grows with the stream, so time ~ rounds squared.
        rounds = max(COLD, round(CHURN_ROUNDS * work ** 0.5))
        # Per shard: the ordered list of tenants each round sends.
        schedules = []
        for names in catalog.shard_tenants(seed, HOT + COLD):
            names = list(names)
            rng.shuffle(names)
            hot, cold = names[:HOT], names[HOT:]
            schedules.append([[cold[r % COLD]] + hot for r in range(rounds)])
        counts: Dict[str, int] = {}
        for schedule in schedules:
            for round_tenants in schedule:
                for tenant in round_tenants:
                    counts[tenant] = counts.get(tenant, 0) + 1
        self.streams = {}
        for index, tenant in enumerate(sorted(counts)):
            self.streams[tenant] = generate_trace(WorkloadConfig(
                name=tenant, events=counts[tenant] * batch_events,
                seed=1000 * seed + index))
        self.shards: List[List[Batch]] = []
        for schedule in schedules:
            sent: Dict[str, int] = {}
            batches = []
            for round_tenants in schedule:
                for tenant in round_tenants:
                    bid = sent.get(tenant, 0) + 1
                    sent[tenant] = bid
                    start = (bid - 1) * batch_events
                    end = start + batch_events
                    trace = self.streams[tenant]
                    batches.append((tenant, bid, list(trace.pcs[start:end]),
                                    list(trace.targets[start:end])))
            self.shards.append(batches)

    @property
    def requests(self) -> int:
        return sum(len(batches) for batches in self.shards)

    @property
    def events(self) -> int:
        return self.requests * self.batch_events


# -- the server process -------------------------------------------------------


class Server:
    """One ``repro serve`` process; ``setup_s`` is launch to first ping."""

    def __init__(self, root: Path, run_dir: Path) -> None:
        endpoint = run_dir / "endpoint.json"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", catalog.SERVE_SPEC,
             "--run-dir", str(run_dir), "--shards", str(catalog.SERVE_SHARDS),
             "--max-resident", str(CHURN_RESIDENT),
             "--checkpoint-interval", str(CHECKPOINT_INTERVAL)],
            cwd=str(root), env=child_env(root), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            info = None
            while info is None:
                if self.process.poll() is not None:
                    raise BenchError(
                        f"server exited {self.process.returncode} at start")
                if time.perf_counter() - started > 60:
                    raise BenchError("server did not publish its endpoint")
                try:
                    info = json.loads(endpoint.read_text())
                except (OSError, ValueError):
                    time.sleep(0.005)
            self.host, self.port = info["host"], info["port"]
            self.pid = info["pid"]
            with self.client() as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, deadline=30.0)

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its shard processes."""
        return sum(vm_hwm_mb(pid)
                   for pid in [self.pid] + child_pids(self.pid))

    def shutdown(self) -> None:
        with self.client() as client:
            client.shutdown()
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop after shutdown")
        if code != 0:
            raise BenchError(f"server exited {code} (0 = clean)")

    def kill(self) -> None:
        """Error path: SIGKILL the shards and the server, reap the server.

        Shards are the server's children, not ours, so they cannot be
        waited for here; a killed shard is gone at once, and any shard
        this misses exits on its own orphan check.
        """
        if self.process.poll() is None:
            try:
                for pid in child_pids(self.process.pid):
                    os.kill(pid, signal.SIGKILL)
            except (FileNotFoundError, ProcessLookupError):
                pass  # the server or a shard exited meanwhile
            self.process.kill()
        self.process.wait()


# -- the closed loop ----------------------------------------------------------


def drive(server: Server, workload: ServeWorkload, keep_replies: bool
          ) -> dict:
    """Send every shard's batches from its own thread; collect samples."""
    shards = len(workload.shards)
    latencies: List[List[float]] = [[] for _ in range(shards)]
    replies: List[List[dict]] = [[] for _ in range(shards)]
    errors: List[str] = []
    barrier = threading.Barrier(shards + 1, timeout=60)

    def loop(shard: int) -> None:
        with server.client() as client:
            client.ping()
            barrier.wait()
            samples = latencies[shard]
            kept = replies[shard]
            for tenant, bid, pcs, targets in workload.shards[shard]:
                began = time.perf_counter()
                try:
                    reply = client.send_events(tenant, bid, pcs, targets)
                except Exception as exc:  # a failed request is counted
                    errors.append(f"{tenant}#{bid}: {exc}")
                    continue
                samples.append(time.perf_counter() - began)
                if reply.get("status") != "ok" or not reply.get("applied"):
                    errors.append(f"{tenant}#{bid}: {reply.get('status')} "
                                  f"{reply.get('reason', '')}".strip())
                if keep_replies or bid == len(workload.streams[tenant]) \
                        // workload.batch_events:
                    kept.append(reply)

    threads = [threading.Thread(target=loop, args=(shard,))
               for shard in range(shards)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    with server.client() as client:
        stats = client.stats()
    return {"wall_s": wall, "latencies": latencies, "replies": replies,
            "errors": errors, "stats": stats,
            "rss_mb": server.peak_rss_mb()}


def shard_counts(stats: dict) -> Dict[str, int]:
    """Exact counts from one ``ShardCore.stats()`` payload."""
    shard = stats["shard"]
    counters = stats["metrics"]["counters"]
    return {f"shard{shard}.batches": stats["batches"],
            f"shard{shard}.events": counters.get("shard.events", 0),
            f"shard{shard}.evictions": stats["evictions"],
            f"shard{shard}.reloads": stats["reloads"],
            f"shard{shard}.compactions": counters.get("shard.compactions", 0)}


def live_counts(stats: dict) -> Dict[str, int]:
    """Exact counts of every shard, from the server's ``stats`` reply."""
    counts = {}
    for payload in stats["shards"]:
        if not payload.get("available"):
            raise BenchError(f"shard {payload.get('shard')} unavailable")
        counts.update(shard_counts(payload))
    return counts


def check_tenants(workload: ServeWorkload, run: dict) -> Tuple[List[str], int]:
    """Live == replay: each tenant's final counters vs offline simulate."""
    from repro.core.factory import predictor_from_spec
    from repro.sim.engine import simulate

    final = {}
    for kept in run["replies"]:
        for reply in kept:
            final[reply["tenant"]] = reply
    problems = []
    misses = 0
    for tenant, trace in sorted(workload.streams.items()):
        offline = simulate(predictor_from_spec(catalog.SERVE_SPEC), trace,
                           kernel="auto")
        reply = final.get(tenant)
        misses += offline.mispredictions
        if reply is None:
            problems.append(f"{tenant}: no final reply")
        elif (reply.get("events"), reply.get("misses")) != (
                offline.events, offline.mispredictions):
            problems.append(
                f"{tenant}: served {reply.get('events')} events/"
                f"{reply.get('misses')} misses, offline simulate says "
                f"{offline.events}/{offline.mispredictions}")
    return problems, misses


# -- the in-process replay (per-layer) ----------------------------------------


class ShardReplay:
    """One in-process ShardCore fed a shard's fixed batch sequence.

    With ``spans`` enabled, every layer is timed around the public call
    the shard makes into it, from outside the program; disabled, nothing
    is wrapped.  ``wall_s`` sums the time spent in ``handle``.
    """

    def __init__(self, shard: int, run_dir: Path, spans: Spans,
                 replay: dict) -> None:
        from repro.service.shard import ShardCore

        self.run_dir = run_dir
        self.spans = spans
        self.replay = replay
        self.wall_s = 0.0
        self.core = core = ShardCore(
            shard, catalog.SERVE_SPEC, run_dir, max_resident=CHURN_RESIDENT,
            checkpoint_interval=CHECKPOINT_INTERVAL)
        append = core.journal.append
        path = core.journal.path

        def timed_append(*args, **kwargs):
            before = os.path.getsize(path)
            with spans.span("service.state.journal_append"):
                accepted = append(*args, **kwargs)
            replay["journal_bytes"] += os.path.getsize(path) - before
            return accepted

        if spans.enabled:
            core.journal.append = timed_append
        store = core.store
        store.apply_batch = spans.wrap("service.state.apply",
                                       store.apply_batch)
        store.evict = spans.wrap("service.state.evict", store.evict)
        store.cache.load = spans.wrap("service.state.reload_load",
                                      store.cache.load)
        core.compact = spans.wrap("service.shard.compact", core.compact)
        self.handle = spans.wrap("service.shard.handle", core.handle)

    def send(self, batch: Batch) -> None:
        from repro.service.state import TenantState

        tenant, bid, pcs, targets = batch
        original_rebuild = TenantState.rebuild
        TenantState.rebuild = self.spans.wrap("service.state.rebuild",
                                              original_rebuild)
        try:
            started = time.perf_counter()
            reply = self.handle(tenant, bid, pcs, targets)
            self.wall_s += time.perf_counter() - started
        finally:
            TenantState.rebuild = original_rebuild
        if reply.get("status") != "ok":
            raise BenchError(f"replay of {tenant}#{bid}: {reply}")

    def finish(self) -> None:
        """Record the shard's exact counts, close it, remove its files."""
        self.replay["counts"].append(shard_counts(self.core.stats()))
        self.core.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


def replay_shards(workload: ServeWorkload, work_dir: Path) -> dict:
    """Replay every shard traced; shard 0 untraced as well, for the overhead.

    Shard 0's two replays take turns batch by batch, each going first on
    every other batch, so host speed swings and warm-up fall on both
    alike.  The tracing overhead is the traced handle time over the
    untraced one, minus 1.
    """
    spans = Spans()
    replay = {"spans": spans, "journal_bytes": 0, "counts": []}
    for shard, batches in enumerate(workload.shards):
        traced = ShardReplay(shard, work_dir / f"replay-{shard}", spans,
                             replay)
        pair = [traced]
        if shard == 0:
            untraced = ShardReplay(shard, work_dir / "replay-untraced",
                                   Spans(enabled=False), replay)
            pair = [untraced, traced]
        for batch in batches:
            for side in pair:
                side.send(batch)
            pair.reverse()
        for side in pair:
            side.finish()
        if shard == 0:
            replay["overhead_frac"] = traced.wall_s / untraced.wall_s - 1
    return replay


def protocol_costs(workload: ServeWorkload, replies: List[List[dict]]
                   ) -> dict:
    """Encode + decode every request and reply of the run, timed."""
    from repro.service.protocol import HEADER, decode_payload, encode_frame

    messages = [{"op": "events", "tenant": tenant, "bid": bid,
                 "priority": 1, "pcs": pcs, "targets": targets}
                for batches in workload.shards
                for tenant, bid, pcs, targets in batches]
    request_bytes = 0
    encode = decode = 0.0
    for group, is_request in ((messages, True),
                              ([r for kept in replies for r in kept], False)):
        for message in group:
            started = time.perf_counter()
            frame = encode_frame(message)
            middle = time.perf_counter()
            decode_payload(frame[HEADER.size:])
            encode += middle - started
            decode += time.perf_counter() - middle
            if is_request:
                request_bytes += len(frame)
    return {"encode_s": encode, "decode_s": decode,
            "request_bytes": request_bytes}


# -- the workload entry points ------------------------------------------------


def churn(ctx) -> Outcome:
    workload = ServeWorkload(ctx.seed, ctx.work, ctx.batch_events)
    outcome = Outcome(attempted=workload.requests)
    # Set-ups before and after the measured one, so that their median
    # spans the whole run.  A traced run keeps every reply (for the
    # codec timing) and has one set-up.
    repeats = 1 if ctx.trace else SETUP_REPEATS
    measured = (repeats - 1) // 2
    servers = []
    setups = []
    try:
        for index in range(repeats):
            server = Server(ctx.root, ctx.work_dir / f"serve-{index}")
            servers.append(server)
            setups.append(server.setup_s)
            if index == measured:
                live = drive(server, workload, keep_replies=ctx.trace)
            server.shutdown()
    finally:
        for server in servers:
            server.kill()

    samples = [s for shard in live["latencies"] for s in shard]
    outcome.failed = len(live["errors"])
    outcome.problems.extend(live["errors"][:5])
    problems, misses = check_tenants(workload, live)
    outcome.problems.extend(problems)
    counts = live_counts(live["stats"])
    counts["sim.misses"] = misses
    outcome.samples = {"batch": len(samples), "setup": len(setups)}
    events_per_s = workload.events / live["wall_s"]
    if not ctx.trace:
        outcome.metrics = {
            "events_per_s": (events_per_s, "1/s"),
            "batch_p50_ms": (1000 * percentile(samples, 0.50), "ms"),
            "batch_p99_ms": (1000 * percentile(samples, 0.99), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (live["rss_mb"], "MB"),
            "ok_frac": ((workload.requests - outcome.failed)
                        / workload.requests, "frac"),
        }
        outcome.counts = counts
        return outcome

    replay = replay_shards(workload, ctx.work_dir)
    replayed: Dict[str, int] = {}
    for shard in replay["counts"]:
        for name, value in shard.items():
            replayed[name] = value
            if counts.get(name) != value:
                outcome.problems.append(
                    f"{name}: live server {counts.get(name)}, in-process "
                    f"replay {value}")
    spans = replay["spans"]
    protocol = protocol_costs(workload, live["replies"])
    shard_seconds = sum(reply.get("shard_seconds", 0.0)
                        for kept in live["replies"] for reply in kept)
    handle = spans.seconds("service.shard.handle")

    def fleet(source: Dict[str, int], suffix: str) -> int:
        return sum(value for name, value in source.items()
                   if name.endswith(suffix))

    rebuild = spans.seconds("service.state.rebuild") \
        + spans.seconds("service.state.reload_load")
    counts.update({
        "service.state.journal_bytes": replay["journal_bytes"],
        "service.protocol.request_bytes": protocol["request_bytes"],
    })
    outcome.counts = counts
    depth = live["stats"].get("queue_depth", {}).get("mean", 0.0)
    outcome.layers = {
        "service.protocol.encode_s": protocol["encode_s"],
        "service.protocol.decode_s": protocol["decode_s"],
        "service.protocol.bytes_per_event":
            protocol["request_bytes"] / workload.events,
        "service.unattributed_frac": 1.0 - shard_seconds / sum(samples),
        "service.shard.handle_s": handle,
        "service.state.journal_append_s":
            spans.seconds("service.state.journal_append"),
        "service.state.journal_bytes": replay["journal_bytes"],
        "service.state.apply_s": spans.self_seconds("service.state.apply"),
        "service.shard.compact_s": spans.seconds("service.shard.compact"),
        "service.shard.compactions": spans.calls("service.shard.compact"),
        "service.state.rebuild_s": rebuild,
        "service.state.reloads": spans.calls("service.state.rebuild"),
        "service.state.evict_s": spans.seconds("service.state.evict"),
        "service.state.evictions": fleet(replayed, ".evictions"),
        "server.queue_depth_mean": depth,
        "shard.batches": fleet(counts, ".batches"),
        "shard.events": fleet(counts, ".events"),
        "shard.reloads": fleet(counts, ".reloads"),
        "shard.evictions": fleet(counts, ".evictions"),
        "service.state.journal_append_share": share(
            spans.seconds("service.state.journal_append"), handle),
        "service.state.rebuild_share": share(rebuild, handle),
        "bench.trace_overhead_frac":
            replay["overhead_frac"],
    }
    return outcome

