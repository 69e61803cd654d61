"""Tests for the misprediction attribution engine (repro.sim.attribution).

The load-bearing property: for every predictor family, the instrumented
classifying loop produces *exactly* the fast path's misprediction count,
and every miss lands in exactly one cause bucket — no double-counting,
no ``unknown`` leakage on supported predictors.
"""

from __future__ import annotations

import json

import pytest

from repro.core.base import default_run_trace
from repro.core.config import BTBConfig, HybridConfig, TwoLevelConfig
from repro.core.factory import build_predictor, config_from_spec
from repro.sim.attribution import (
    ATTRIBUTION_SCHEMA,
    CAUSES,
    AttributionCollector,
    InstrumentedRun,
    OCCUPANCY_SAMPLES,
    attribute,
    read_attribution,
)
from repro.workloads import Trace, TraceMetadata


def crafted_trace(pairs, name="crafted"):
    pcs = [pc for pc, _ in pairs]
    targets = [target for _, target in pairs]
    return Trace(pcs, targets, TraceMetadata(name=name, seed=0))


#: One spec per distinct (family, table organisation, metapredictor) lane.
FAMILY_SPECS = (
    "btb",
    "btb:entries=64,assoc=4",
    "btb:entries=64,assoc=full",
    "btb:entries=64,assoc=tagless",
    "btb:entries=8,assoc=full",
    "twolevel:p=4",
    "twolevel:p=4,entries=128,assoc=2",
    "twolevel:p=6,entries=128,assoc=tagless",
    "twolevel:p=2,entries=64,assoc=full",
    "twolevel:p=6,entries=16,assoc=1",
    "hybrid:p1=3,p2=1,entries=128,assoc=4",
    "hybrid:p1=3,p2=1,entries=128,assoc=4,meta=bpst",
    "hybrid:p1=5,p2=2,entries=64,assoc=tagless",
)


class TestExactness:
    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_misses_match_fast_path_and_causes_sum(self, spec, small_trace):
        config = config_from_spec(spec)
        fast = build_predictor(config).run_trace(
            small_trace.pcs, small_trace.targets)
        result = attribute(config, small_trace)
        assert result.mispredictions == fast
        assert sum(result.causes.values()) == fast
        assert "unknown" not in result.causes
        assert set(result.causes) <= set(CAUSES)

    @pytest.mark.parametrize(
        "spec", ["btb", "twolevel:p=4,entries=128,assoc=2",
                 "hybrid:p1=3,p2=1,entries=128,assoc=4,meta=bpst"])
    def test_matches_stepwise_reference_loop(self, spec, small_trace):
        config = config_from_spec(spec)
        reference = default_run_trace(
            build_predictor(config), small_trace.pcs, small_trace.targets)
        assert attribute(config, small_trace).mispredictions == reference

    def test_site_misses_sum_to_total(self, small_trace):
        result = attribute(
            config_from_spec("hybrid:p1=3,p2=1,entries=128,assoc=4"),
            small_trace)
        assert sum(s.misses for s in result.sites.values()) == \
            result.mispredictions
        for stats in result.sites.values():
            assert sum(stats.causes.values()) == stats.misses
            assert stats.misses <= stats.executions
        assert sum(s.executions for s in result.sites.values()) == \
            len(small_trace)


class TestCauseClassification:
    def test_training_misses_on_alternating_targets(self):
        # One site flip-flopping between two targets: the entry is always
        # present under the right key but always stale.
        trace = crafted_trace(
            [(0x1000, 0x2000 if i % 2 == 0 else 0x3000) for i in range(400)])
        result = attribute(BTBConfig(update_rule="always"), trace)
        assert result.causes == {"cold": 1, "training": 399}

    def test_capacity_misses_on_lru_thrash(self):
        # Three stable-target sites round-robin through a 2-entry
        # fully-associative table: every access beyond the cold ones
        # finds its entry LRU-evicted.
        sites = [(0x1000, 0xA), (0x2000, 0xB), (0x3000, 0xC)]
        trace = crafted_trace([sites[i % 3] for i in range(300)])
        result = attribute(BTBConfig(num_entries=2, associativity="full"), trace)
        assert result.causes == {"cold": 3, "capacity": 297}

    def test_conflict_misses_in_one_set(self):
        # Two stable-target sites whose keys share a direct-mapped set of
        # a 4-entry 1-way table: they evict each other every access.
        sites = [(0x1000, 0xA), (0x1010, 0xB)]  # keys 0x400/0x404, set 0
        trace = crafted_trace([sites[i % 2] for i in range(200)])
        result = attribute(BTBConfig(num_entries=4, associativity=1), trace)
        assert result.causes == {"cold": 2, "conflict": 198}

    def test_tagless_aliasing_is_conflict(self):
        # Same two sites on a tagless table: the alien entry is returned
        # (not a cold miss) and its target is wrong — negative
        # interference, classified conflict.  Only the very first access
        # sees an empty slot.
        sites = [(0x1000, 0xA), (0x1010, 0xB)]
        trace = crafted_trace([sites[i % 2] for i in range(200)])
        result = attribute(
            BTBConfig(num_entries=4, associativity="tagless",
                      update_rule="always"), trace)
        assert result.causes == {"cold": 1, "conflict": 199}

    def test_tagless_2bc_hysteresis_protects_owner(self):
        # Same aliasing pair under 2bc: the first writer keeps the slot
        # (one consecutive miss never replaces), so only the alien site
        # misses — and every one of its misses is a conflict.
        sites = [(0x1000, 0xA), (0x1010, 0xB)]
        trace = crafted_trace([sites[i % 2] for i in range(200)])
        result = attribute(
            BTBConfig(num_entries=4, associativity="tagless"), trace)
        assert result.causes == {"cold": 1, "conflict": 100}

    def test_tagless_positive_interference_counted(self):
        # Aliasing sites that *agree* on the target: every post-cold
        # access is a hit served by the other site's entry.
        sites = [(0x1000, 0xA), (0x1010, 0xA)]
        trace = crafted_trace([sites[i % 2] for i in range(200)])
        result = attribute(
            BTBConfig(num_entries=4, associativity="tagless"), trace)
        assert result.causes == {"cold": 1}
        assert result.tables[0]["positive_interference"] == 199

    def test_metapredictor_misses_on_hybrid(self, small_trace):
        result = attribute(
            config_from_spec("hybrid:p1=3,p2=1,entries=256,assoc=4"),
            small_trace)
        assert result.causes.get("metapredictor", 0) > 0
        # The confusion matrix covers every event and its metapredictor-
        # blamable cells match the cause count: arbitration followed a
        # wrong component while a correct one existed.
        total = sum(
            count for cells in result.confusion.values()
            for count in cells.values())
        assert total == len(small_trace)
        blamable = sum(
            count
            for row, cells in result.confusion.items()
            for col, count in cells.items()
            if col != "none" and row not in col.split(","))
        assert blamable == result.causes["metapredictor"]

    def test_unknown_only_for_foreign_predictors(self, alternating_trace):
        class NeverRight:
            def predict(self, pc):
                return None

            def update(self, pc, target):
                pass

            def reset(self):
                pass

        result = attribute(NeverRight(), alternating_trace)
        assert result.causes == {"unknown": len(alternating_trace)}
        assert result.tables == []


class TestInstrumentation:
    def test_observer_detached_after_run(self, small_trace):
        predictor = build_predictor(config_from_spec("btb:entries=64,assoc=4"))
        InstrumentedRun(predictor).run(small_trace)
        assert predictor.table.observer is None

    def test_observer_detached_on_error(self):
        predictor = build_predictor(config_from_spec("btb:entries=64,assoc=4"))
        bad = Trace([1, 2], [0xA, 0xB], TraceMetadata(name="bad", seed=0))
        bad.pcs = None  # force the loop to blow up
        with pytest.raises(TypeError):
            InstrumentedRun(predictor).run(bad)
        assert predictor.table.observer is None

    def test_occupancy_sampling_bounded_and_monotonic(self, small_trace):
        result = attribute(
            config_from_spec("twolevel:p=4,entries=128,assoc=2"), small_trace)
        samples = result.tables[0]["occupancy"]
        assert 1 <= len(samples) <= OCCUPANCY_SAMPLES
        events = [sample["event"] for sample in samples]
        assert events == sorted(events)
        for sample in samples:
            assert 0.0 <= sample["utilization"] <= 1.0

    def test_instrumented_rerun_is_deterministic(self, small_trace):
        config = config_from_spec("hybrid:p1=3,p2=1,entries=128,assoc=4")
        first = attribute(config, small_trace).to_dict()
        second = attribute(config, small_trace).to_dict()
        assert first == second


class TestArtifact:
    def test_round_trip_and_summary(self, tmp_path, small_trace):
        collector = AttributionCollector()
        for spec in ("btb", "twolevel:p=4"):
            collector.add(attribute(config_from_spec(spec), small_trace))
        path = tmp_path / "attribution.jsonl"
        collector.write(path)

        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": ATTRIBUTION_SCHEMA}  # no pid: deterministic
        records = read_attribution(path)
        assert [r["kind"] for r in records] == ["record", "record", "summary"]
        summary = records[-1]
        assert summary["records"] == 2
        assert summary["mispredictions"] == sum(
            r["mispredictions"] for r in records[:-1])
        for cause in CAUSES:
            assert summary["causes"][cause] == sum(
                r["causes"][cause] for r in records[:-1])

    def test_wrong_schema_rejected(self, tmp_path):
        from repro.runtime.log import LogAppender
        from repro.runtime.telemetry import TRACE_LOG_SCHEMA

        path = tmp_path / "not_attribution.jsonl"
        LogAppender(path, {"schema": TRACE_LOG_SCHEMA}).close()
        with pytest.raises(ValueError, match=ATTRIBUTION_SCHEMA):
            read_attribution(path)

    def test_merge_order_does_not_change_bytes(self, tmp_path, small_trace):
        results = [
            attribute(config_from_spec(spec), small_trace)
            for spec in ("twolevel:p=4", "btb", "btb:entries=64,assoc=4")
        ]
        forward, backward = AttributionCollector(), AttributionCollector()
        for result in results:
            forward.add(result)
        for result in reversed(results):
            backward.add_dict(result.to_dict())
        forward.write(tmp_path / "forward.jsonl")
        backward.write(tmp_path / "backward.jsonl")
        assert (tmp_path / "forward.jsonl").read_bytes() == \
            (tmp_path / "backward.jsonl").read_bytes()

    def test_top_site_truncation(self, small_trace):
        result = attribute(config_from_spec("btb"), small_trace)
        record = result.to_dict(top=3)
        assert len(record["sites"]) == 3
        assert record["site_count"] == len(result.sites)
        misses = [site["misses"] for site in record["sites"]]
        assert misses == sorted(misses, reverse=True)


class TestRunnerIntegration:
    def test_serial_and_parallel_artifacts_bit_identical(self, tmp_path):
        from repro.sim.suite_runner import SuiteRunner

        config = config_from_spec("hybrid:p1=3,p2=1,entries=128,assoc=4")
        paths = {}
        for mode, workers in (("serial", 1), ("parallel", 2)):
            runner = SuiteRunner(
                benchmarks=("perl", "ixx"), scale=0.05, workers=workers,
                cache_dir=tmp_path / "traces", attribution=True,
                progress=False)
            runner.rates(config)
            paths[mode] = tmp_path / f"{mode}.jsonl"
            assert runner.write_attribution(paths[mode]) is True
            assert runner.metrics_summary()["attribution_records"] == 2
        assert paths["serial"].read_bytes() == paths["parallel"].read_bytes()

    def test_write_attribution_noop_when_off(self, tiny_runner, tmp_path):
        target = tmp_path / "off.jsonl"
        assert tiny_runner.write_attribution(target) is False
        assert not target.exists()
        assert "attribution_records" not in tiny_runner.metrics_summary()

    def test_simulate_with_collector_matches_plain_result(self, small_trace):
        from repro.sim.engine import simulate

        predictor = build_predictor(config_from_spec("btb:entries=64,assoc=4"))
        plain = simulate(predictor, small_trace)
        collector = AttributionCollector()
        instrumented = simulate(predictor, small_trace, attribution=collector)
        assert instrumented == plain
        [record] = collector.records()
        assert record["mispredictions"] == plain.mispredictions


class TestBreakdownDelegation:
    def test_decompose_misses_unchanged(self, small_trace):
        from repro.analysis.breakdown import decompose_misses

        config = TwoLevelConfig(path_length=4, num_entries=128, associativity=2)
        breakdown = decompose_misses(config, small_trace)
        # Reference values straight from the fast paths, as the
        # pre-delegation implementation computed them.
        from dataclasses import replace

        constrained = build_predictor(config).run_trace(
            small_trace.pcs, small_trace.targets)
        full = build_predictor(replace(config, associativity="full")).run_trace(
            small_trace.pcs, small_trace.targets)
        unconstrained = build_predictor(
            replace(config, num_entries=None, associativity="full")
        ).run_trace(small_trace.pcs, small_trace.targets)
        assert breakdown.total == constrained
        assert breakdown.intrinsic == unconstrained
        assert breakdown.capacity == full - unconstrained
        assert breakdown.conflict == constrained - full

    def test_per_site_breakdown_matches_stepwise_loop(self, small_trace):
        from repro.analysis.breakdown import per_site_breakdown

        config = HybridConfig(components=(
            TwoLevelConfig(path_length=3, num_entries=128, associativity=4),
            TwoLevelConfig(path_length=1, num_entries=128, associativity=4),
        ))
        reports = per_site_breakdown(config, small_trace)
        # Reference: the historical stepwise predict/update loop.
        predictor = build_predictor(config)
        executions, misses, targets = {}, {}, {}
        for pc, target in small_trace:
            executions[pc] = executions.get(pc, 0) + 1
            if predictor.predict(pc) != target:
                misses[pc] = misses.get(pc, 0) + 1
            predictor.update(pc, target)
            targets.setdefault(pc, set()).add(target)
        assert [(r.pc, r.executions, r.misses, r.distinct_targets)
                for r in reports] == sorted(
            [(pc, executions[pc], misses.get(pc, 0), len(targets[pc]))
             for pc in executions],
            key=lambda row: -row[2])


class TestCli:
    def test_simulate_attribution_artifact(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "nested" / "dir" / "attribution.jsonl"
        argv = ["simulate", "btb", "perl", "ixx", "--scale", "0.05"]
        assert main(argv) == 0
        plain_out = capsys.readouterr().out
        assert main(argv + ["--attribution", str(path)]) == 0
        # Instrumentation must not perturb the reported rates.
        assert capsys.readouterr().out == plain_out
        records = read_attribution(path)
        assert sum(1 for r in records if r["kind"] == "record") == 2
        assert records[-1]["kind"] == "summary"

    @pytest.mark.parametrize("flag", ["--attribution", "--trace-log"])
    def test_unwritable_path_exits_1(self, flag, tmp_path, capsys):
        from repro.__main__ import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "out.jsonl"  # parent is a file: mkdir -> OSError
        assert main(["simulate", "btb", "perl", "--scale", "0.05",
                     flag, str(target)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_experiments_attribution_with_checkpoint(self, tmp_path, capsys,
                                                     monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.01")
        path = tmp_path / "attribution.jsonl"
        assert main(["experiments", "fig2",
                     "--checkpoint-dir", str(tmp_path / "ckpt"),
                     "--attribution", str(path)]) == 0
        capsys.readouterr()
        records = read_attribution(path)
        assert records[-1]["kind"] == "summary"
        assert records[-1]["records"] > 0


class TestReportTool:
    def test_report_renders_artifact(self, tmp_path, capsys, small_trace):
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "tools"))
        try:
            import attribution_report
        finally:
            sys.path.pop(0)

        collector = AttributionCollector()
        collector.add(attribute(
            config_from_spec("hybrid:p1=3,p2=1,entries=128,assoc=4"),
            small_trace))
        path = tmp_path / "attribution.jsonl"
        collector.write(path)
        assert attribution_report.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "miss causes" in out
        assert "hot sites" in out
        assert "hybrid component confusion" in out
        assert "aggregate miss causes" in out

    def test_report_rejects_garbage(self, tmp_path, capsys):
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "tools"))
        try:
            import attribution_report
        finally:
            sys.path.pop(0)

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert attribution_report.main([str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
