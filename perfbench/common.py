"""Shared pieces of the benchmark: spans, percentiles, probes, the ledger.

Nothing here imports the program under test, so the entry point can
check that the program's sources exist before touching them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence

#: Per-checkout directories (both listed in .gitignore).
WORK_DIR = ".perfbench-work"
STATE_DIR = ".perfbench-state"

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 7

#: Upper bound on any one child process the benchmark waits for.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A failed output check or invariant: the run is not correct."""


class Outcome:
    """What one workload run hands back to the entry point.

    ``metrics`` maps end-to-end names to ``(value, unit)``; ``layers``
    maps per-layer names to values (units come from BENCHMARK.json).
    ``counts`` must repeat exactly across runs of one seed; ``problems``
    lists every failed output check.
    """

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed = 0
        self.metrics: Dict[str, tuple] = {}
        self.layers: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, int] = {}
        self.problems: List[str] = []


# -- spans --------------------------------------------------------------------


class Spans:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``[name, start, end, parent index]``.
    :meth:`self_seconds` subtracts the time of child spans, so a layer
    that calls another (apply -> rebuild) is not counted twice.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a ``name`` span."""
        if not self.enabled:
            return function

        def timed(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return timed

    def seconds(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.records
                   if span_name == name)

    def calls(self, name: str) -> int:
        return sum(1 for record in self.records if record[0] == name)

    def self_seconds(self, name: str) -> float:
        total = 0.0
        children: Dict[int, float] = {}
        for _, start, end, parent in self.records:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        for index, (span_name, start, end, _) in enumerate(self.records):
            if span_name == name:
                total += (end - start) - children.get(index, 0.0)
        return total


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Exact nearest-rank percentile of raw samples (no interpolation)."""
    if not samples:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


# -- host probes --------------------------------------------------------------


def host_probe(loops: int = 5, size: int = 120_000) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed now.

    Stored in the run's environment record, never as a metric, so a
    noisy set of runs can be traced to the host rather than the program.
    """
    timings = []
    for _ in range(loops):
        started = time.perf_counter()
        total = 0
        for value in range(size):
            total += (value * value) & 7
        timings.append(time.perf_counter() - started)
    return round(statistics.median(timings), 6)


def cpu_ticks() -> List[int]:
    """The machine's (steal, total) CPU ticks so far, from /proc/stat.

    Steal is time the hypervisor gave the vCPUs to someone else; its
    share over a run, stored in the environment record next to the
    probe, shows whether a slow run was starved by a neighbour.
    """
    with open("/proc/stat") as stat:
        fields = [int(token) for token in stat.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return [steal, sum(fields[:8])]


def rusage_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB.

    ``ru_maxrss`` is in KiB on Linux.  The children figure is the
    largest single child (pool worker) the kernel recorded.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (from each thread's children list)."""
    found: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        found.extend(int(token) for token in text.split())
    return sorted(set(found))


# -- children -----------------------------------------------------------------


def child_env(root: Path) -> Dict[str, str]:
    """Environment for program processes: the checkout's sources first."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE_SCALE", None)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(root / WORK_DIR)
    return env


def launch_child(root: Path, args: Sequence[str]) -> subprocess.Popen:
    """Start ``python3 -m perfbench.child <args>`` with piped stdout."""
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *args], cwd=str(root),
        env=child_env(root), stdout=subprocess.PIPE, text=True)


def read_ready(process: subprocess.Popen) -> None:
    """Block until a child prints its ``ready`` line."""
    line = process.stdout.readline()
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise BenchError(f"child did not get ready (said {line!r})")


def finish_child(process: subprocess.Popen) -> dict:
    """Wait for a child and parse the JSON object on its last line."""
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchError("child timed out")
    if process.returncode != 0:
        raise BenchError(f"child exited {process.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


# -- exact-count ledger -------------------------------------------------------


def code_digest(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's source files.

    The ledger keys on it, so counts are only compared between runs of
    the same code: a change that alters a count (a smaller wire format,
    a smaller journal) starts a new entry instead of failing.
    """
    digest = hashlib.sha256()
    files = sorted(path for pattern in ("src/repro/**/*.py",
                                        "perfbench/**/*.py",
                                        "perfbench/**/*.json")
                   for path in root.glob(pattern))
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class Ledger:
    """Counts that must repeat exactly across runs of one seed.

    The first run of a (code, workload, seed) in a checkout records its
    counts; every later run compares, and any difference fails the run —
    a count is never averaged away.
    """

    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: int, batch_events: int) -> None:
        self.path = root / STATE_DIR / "counts.json"
        self.key = (f"code={code_digest(root)}/{workload}/seed={seed}/"
                    f"seconds={seconds}/batch={batch_events}")

    def check(self, counts: Dict[str, int]) -> List[str]:
        """Compare with (then extend) the recorded counts; returns diffs."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = json.loads(self.path.read_text()) if self.path.exists() else {}
        recorded = data.setdefault(self.key, {})
        diffs = [f"{name}: recorded {recorded[name]}, now {value}"
                 for name, value in sorted(counts.items())
                 if name in recorded and recorded[name] != value]
        if not diffs:
            recorded.update(counts)
            scratch = self.path.with_suffix(".tmp")
            scratch.write_text(json.dumps(data, indent=1, sort_keys=True))
            os.replace(scratch, self.path)
        return diffs


def append_record(root: Path, record: dict) -> None:
    """Append one run's environment record to the state directory."""
    path = root / STATE_DIR / "runs.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as sink:
        sink.write(json.dumps(record, sort_keys=True) + "\n")


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0
