"""Checkpointed result store: an append-only JSONL journal.

Every completed ``(config, benchmark)`` simulation is appended to the
journal as one self-contained JSON line and flushed (``flush`` +
``fsync``), so a killed ``--full`` sweep loses at most the simulation that
was in flight.  On resume the journal is replayed into the runner's memo
table and completed pairs are never re-simulated.

Configurations are keyed by :func:`config_key`, a canonical JSON encoding
of the frozen config dataclass (class name + sorted fields), which is
stable across processes — unlike ``hash()`` — and survives config-class
field additions as long as defaults are preserved.

The journal is a :mod:`repro.runtime.log` log, so its committed-record
rule holds: an uncommitted final line (the signature of a crash
mid-append) is dropped and truncated away on resume; corruption anywhere
earlier, or a committed record that is not a valid result, raises
:class:`~repro.errors.CheckpointError`, since silently dropping completed
work would make a resumed sweep quietly re-run or — worse — skip pairs.

**Degradation.**  An append that fails with :class:`OSError` (disk full,
or an injected ``journal.append`` chaos fault) turns checkpointing *off*
for the rest of the run: results stay memoised in memory so the run
completes with bit-identical output, a ``checkpoint_off`` telemetry event
announces the lost durability, and the CLI's exit-code policy reports the
degradation (DESIGN.md §3.9).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from ..errors import CheckpointError
from ..sim.engine import SimulationResult
from .chaos import active as active_chaos
from .log import LogAppender, LogContents, read_log
from .telemetry import NULL_TRACER

PathLike = Union[str, Path]

_HEADER = {"format": "repro-checkpoint", "version": 1}


def config_key(config: object) -> str:
    """A canonical, process-stable string key for a predictor config."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        data = dataclasses.asdict(config)
    elif isinstance(config, str):
        return config
    else:
        raise CheckpointError(
            f"cannot key a {type(config).__name__}; expected a config dataclass"
        )
    payload = {"kind": type(config).__name__, "fields": data}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def read_journal(
    path: PathLike,
    error: Callable[[str], Exception] = CheckpointError,
) -> Tuple[LogContents, Dict[Tuple[str, str], dict]]:
    """Read-only parse of a checkpoint journal.

    Returns the log's committed prefix and its records keyed by
    ``(config key, benchmark)``; an empty log has no entries.  ``error``
    builds the exception for a foreign header or a malformed record.
    """
    log = read_log(path, error)
    header = log.header
    if header is not None and any(header.get(key) != value
                                  for key, value in _HEADER.items()):
        raise error(f"{path}: not a checkpoint journal (header {header!r})")
    entries: Dict[Tuple[str, str], dict] = {}
    for number, record in enumerate(log.records, start=2):
        try:
            result = SimulationResult.from_dict(record["result"])
            if not 0 <= result.mispredictions <= result.events:
                raise ValueError("inconsistent result counts")
            entries[(record["config"], record["benchmark"])] = record
        except Exception as exc:
            raise error(f"{path}:{number}: malformed record: {exc}") from exc
    return log, entries


class CheckpointJournal:
    """Append-only JSONL journal of completed simulation results.

    Args:
        path: journal file; created (with parents) if missing.
        resume: when ``True`` existing records are loaded and served;
            when ``False`` an existing journal is truncated and the run
            starts fresh.
    """

    def __init__(self, path: PathLike, resume: bool = True) -> None:
        self.path = Path(path)
        self._entries: Dict[Tuple[str, str], SimulationResult] = {}
        self.tracer = NULL_TRACER
        #: ``True`` once an append failed: checkpointing is off for the
        #: rest of the run (results stay memoised in memory only).
        self.disabled = False
        self.dropped_partial = False
        committed = 0
        if resume and self.path.exists():
            log, records = read_journal(self.path)
            self._entries = {key: SimulationResult.from_dict(record["result"])
                             for key, record in records.items()}
            self.dropped_partial = log.dropped_partial
            committed = log.committed
        # The header goes through _append so an unwritable journal
        # degrades to checkpoint-off right at open.
        self._log = LogAppender(self.path, committed=committed)
        if not committed:
            self._append(_HEADER)

    def attach_tracer(self, tracer: object) -> None:
        """Adopt the run's tracer; announces the replayed journal state."""
        self.tracer = tracer
        tracer.event(
            "journal_replay",
            path=str(self.path),
            entries=len(self._entries),
            dropped_partial=self.dropped_partial,
        )
        if self.disabled:
            # The header append already failed (e.g. the disk filled
            # before the run started): re-announce on the run's tracer so
            # the degradation reaches the metrics record.
            tracer.event("checkpoint_off", path=str(self.path),
                         reason="journal unwritable at open")

    def get(self, config: object, benchmark: str) -> Optional[SimulationResult]:
        """The journalled result for one pair, or ``None``."""
        return self._entries.get((config_key(config), benchmark))

    def __contains__(self, pair: Tuple[object, str]) -> bool:
        config, benchmark = pair
        return (config_key(config), benchmark) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Tuple[str, str], SimulationResult]]:
        return iter(self._entries.items())

    # -- writing ------------------------------------------------------------

    def _append(self, record: dict) -> None:
        """Write one fsync'd journal line; degrades to checkpoint-off.

        On :class:`OSError` — a full disk or an injected
        ``journal.append`` fault — the journal is disabled rather than
        crashing the run: losing *durability* is recoverable (the sweep
        re-runs on the next resume), losing the *run* is not.
        """
        if self.disabled:
            return
        try:
            active_chaos().inject("journal.append",
                                  label=str(record.get("benchmark", "")))
            self._log.append(record)
        except OSError as exc:
            self.disabled = True
            try:
                self._log.close()
            except OSError:  # pragma: no cover - double-fault close
                pass
            self.tracer.event("checkpoint_off", path=str(self.path),
                              reason=str(exc))

    def record(self, config: object, benchmark: str,
               result: SimulationResult) -> None:
        """Journal one completed simulation (idempotent per pair)."""
        key = (config_key(config), benchmark)
        if key in self._entries:
            return
        self._entries[key] = result
        with self.tracer.span("journal", benchmark=benchmark):
            self._append({
                "config": key[0],
                "benchmark": benchmark,
                "label": getattr(config, "label", str(config)),
                "result": result.to_dict(),
            })

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointJournal({str(self.path)!r}, entries={len(self)})"
