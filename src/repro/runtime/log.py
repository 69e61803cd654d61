"""The durable JSONL log behind every journal and stream in the repo.

One file format, one set of mechanics.  A log is line-delimited JSON:
line 1 is a header object supplied by the owner (schema, shard, ...),
every later line is one record, serialized as
``json.dumps(record, sort_keys=True)`` plus ``"\\n"``.  Owners — the
checkpoint journal, the shard journal, the trace log, the attribution
artifact, ``sheds.jsonl`` and ``metrics-stream.jsonl`` — keep their own
header and record validation and their own exception type; framing and
durability live here only.

**The committed-record rule.**  A line is committed only if it ends in
``\\n`` *and* parses as a JSON object.  The final line of a file, when
uncommitted, is the signature of a crash mid-append: it is dropped (and
:class:`LogAppender` truncates it away before appending again).  Any
other uncommitted line is corruption and raises an error naming
``path:line``.  A complete record that lost its newline is therefore
dropped too — keeping it would make the next append land on the same
line and destroy both records.

Three pieces:

* :func:`read_log` — read-only parse into :class:`LogContents`;
* :class:`LogAppender` — one write + flush + fsync per record;
* :func:`write_log` — a whole fsync'd segment, without rename (the
  caller publishes it, e.g. shard-journal compaction).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Union

PathLike = Union[str, Path]


@dataclass
class LogContents:
    """The committed prefix of a log file.

    ``header`` is ``None`` when not even the header line is committed
    (an empty file, or a crash while writing the header); ``records``
    are the committed lines after it; ``committed`` is the byte length
    of the committed prefix; ``dropped_partial`` says an uncommitted
    final line was dropped.
    """

    header: Optional[dict]
    records: List[dict]
    committed: int
    dropped_partial: bool


def read_log(path: PathLike,
             error: Callable[[str], Exception] = ValueError) -> LogContents:
    """Parse a log without modifying it; ``error`` builds the exception.

    Record ``i`` of :attr:`LogContents.records` sits on line ``i + 2``.
    """
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    tail = lines.pop()  # bytes after the last newline: never committed
    dropped = bool(tail)
    parsed: List[dict] = []
    committed = 0
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            record = None
        if not isinstance(record, dict):
            if number == len(lines) and not tail:
                dropped = True
                break
            raise error(f"{path}:{number}: corrupt log line")
        parsed.append(record)
        committed += len(line) + 1
    header = parsed.pop(0) if parsed else None
    return LogContents(header, parsed, committed, dropped)


def _line(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"


class LogAppender:
    """Append-only, fsync'd writer of one log file.

    Args:
        path: the log; its parent directories are created.
        header: written first when the log starts fresh (``committed``
            0); ``None`` leaves the header to the caller's first
            :meth:`append`.
        committed: bytes of the existing file to keep — the
            :attr:`LogContents.committed` of a prior :func:`read_log`.
            Anything after it (a dropped torn tail) is truncated away;
            0 starts the file over.
    """

    def __init__(self, path: PathLike, header: Optional[dict] = None,
                 committed: int = 0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if committed:
            os.truncate(self.path, committed)
            self._stream = open(self.path, "ab")
        else:
            self._stream = open(self.path, "wb")
            if header is not None:
                self.append(header)

    def append(self, record: dict) -> None:
        """Durably append one record: one write, one flush, one fsync."""
        self._stream.write(_line(record))
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "LogAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_log(path: PathLike, header: dict, records: Iterable[dict]) -> None:
    """Write a whole log segment in one fsync'd pass (no rename)."""
    with open(path, "wb") as sink:
        sink.write(_line(header))
        for record in records:
            sink.write(_line(record))
        sink.flush()
        os.fsync(sink.fileno())
