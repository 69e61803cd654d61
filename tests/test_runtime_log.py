"""Tests for the shared durable JSONL log and its committed-record rule."""

import json
import re

import pytest

from repro.errors import ServiceError
from repro.runtime import log as durable_log
from repro.runtime.log import LogAppender, read_log, write_log

HEADER = {"schema": "test-log/1"}


def line(record):
    return json.dumps(record, sort_keys=True).encode() + b"\n"


def write(path, *chunks):
    path.write_bytes(b"".join(chunks))
    return path


class TestReadLog:
    def test_committed_prefix(self, tmp_path):
        path = write(tmp_path / "l.jsonl", line(HEADER), line({"n": 1}))
        log = read_log(path)
        assert log.header == HEADER
        assert log.records == [{"n": 1}]
        assert log.committed == path.stat().st_size
        assert not log.dropped_partial

    @pytest.mark.parametrize("tail", [
        b'{"n": 2',            # torn mid-record
        line({"n": 2})[:-1],   # complete record, newline lost
        b"not json\n",         # terminated but unparsable
        b"[2]\n",              # JSON, but not an object
    ])
    def test_uncommitted_final_line_is_dropped(self, tmp_path, tail):
        good = line(HEADER) + line({"n": 1})
        log = read_log(write(tmp_path / "l.jsonl", good, tail))
        assert log.records == [{"n": 1}]
        assert log.committed == len(good)
        assert log.dropped_partial

    @pytest.mark.parametrize("bad", [b"not json\n", b"[2]\n", b"\n"])
    def test_interior_bad_line_names_path_and_line(self, tmp_path, bad):
        path = write(tmp_path / "l.jsonl", line(HEADER), bad, line({"n": 3}))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            read_log(path)

    def test_bad_line_before_a_torn_tail_is_interior(self, tmp_path):
        path = write(tmp_path / "l.jsonl", line(HEADER), b"oops\n", b'{"n"')
        with pytest.raises(ServiceError, match=":2: "):
            read_log(path, ServiceError)

    def test_empty_and_torn_header_have_no_header(self, tmp_path):
        assert read_log(write(tmp_path / "a", b"")).header is None
        torn = read_log(write(tmp_path / "b", line(HEADER)[:-1]))
        assert torn.header is None and torn.committed == 0
        assert torn.dropped_partial


class TestLogAppender:
    def test_fresh_log_starts_with_header(self, tmp_path):
        path = tmp_path / "deep" / "l.jsonl"
        with LogAppender(path, HEADER) as appender:
            appender.append({"n": 1})
        assert path.read_bytes() == line(HEADER) + line({"n": 1})

    def test_reopen_truncates_to_committed_prefix(self, tmp_path):
        good = line(HEADER) + line({"n": 1})
        path = write(tmp_path / "l.jsonl", good, line({"n": 2})[:-1])
        log = read_log(path)
        with LogAppender(path, HEADER, log.committed) as appender:
            appender.append({"n": 3})
        assert path.read_bytes() == good + line({"n": 3})

    def test_one_write_flush_fsync_per_record(self, tmp_path, monkeypatch):
        appender = LogAppender(tmp_path / "l.jsonl", HEADER)
        synced = []
        monkeypatch.setattr(durable_log.os, "fsync", synced.append)
        appender.append({"n": 1})
        appender.close()
        assert len(synced) == 1


def test_write_log_matches_appended_bytes(tmp_path):
    records = [{"n": 1}, {"b": [1, 2], "a": "x"}]
    with LogAppender(tmp_path / "appended", HEADER) as appender:
        for record in records:
            appender.append(record)
    write_log(tmp_path / "segment", HEADER, records)
    assert (tmp_path / "segment").read_bytes() \
        == (tmp_path / "appended").read_bytes()
