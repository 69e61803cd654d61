"""Tests for the checkpoint journal and resumable suite running."""

import json

import pytest

from repro.core.config import BTBConfig, TwoLevelConfig
from repro.errors import CheckpointError
from repro.errors import FaultInjectedError
from repro.runtime import CheckpointJournal, config_key
from tests.fault_helpers import FlakyCallable
from repro.sim.engine import SimulationResult, simulate
from repro.sim.suite_runner import SuiteRunner
from repro.sim.sweep import sweep

BENCHMARKS = ("perl", "ixx")
SCALE = 0.05


def make_result(benchmark="perl", predictor="btb", events=100, misses=25):
    return SimulationResult(
        benchmark=benchmark, predictor=predictor,
        events=events, mispredictions=misses,
    )


class TestConfigKey:
    def test_stable_across_instances(self):
        assert config_key(BTBConfig(num_entries=512, associativity=4)) == \
            config_key(BTBConfig(num_entries=512, associativity=4))

    def test_distinguishes_parameters(self):
        assert config_key(BTBConfig()) != config_key(BTBConfig(update_rule="always"))

    def test_distinguishes_config_classes(self):
        # Same field values in a different class must not collide.
        assert "BTBConfig" in config_key(BTBConfig())
        assert config_key(BTBConfig()) != config_key(TwoLevelConfig())

    def test_handles_nested_hybrid_configs(self):
        from repro.core.config import HybridConfig

        key = config_key(HybridConfig.dual_path(3, 1, 512))
        assert "HybridConfig" in key
        json.loads(key)  # canonical JSON

    def test_rejects_non_config_objects(self):
        with pytest.raises(CheckpointError):
            config_key(object())


class TestCheckpointJournal:
    def test_roundtrip_across_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        config = BTBConfig()
        with CheckpointJournal(path) as journal:
            journal.record(config, "perl", make_result())
            assert len(journal) == 1
        reopened = CheckpointJournal(path)
        assert reopened.get(config, "perl") == make_result()
        assert reopened.get(config, "ixx") is None
        assert (config, "perl") in reopened

    def test_fresh_mode_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(BTBConfig(), "perl", make_result())
        fresh = CheckpointJournal(path, resume=False)
        assert len(fresh) == 0
        assert fresh.get(BTBConfig(), "perl") is None

    def test_record_is_idempotent_per_pair(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(BTBConfig(), "perl", make_result())
            journal.record(BTBConfig(), "perl", make_result(misses=99))
        # First write wins; only one record line plus the header.
        assert path.read_text().count("\n") == 2
        assert CheckpointJournal(path).get(BTBConfig(), "perl").mispredictions == 25

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(BTBConfig(), "perl", make_result())
            journal.record(BTBConfig(), "ixx", make_result("ixx"))
        # Simulate a crash mid-append: cut the last line in half.
        data = path.read_text()
        path.write_text(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])
        recovered = CheckpointJournal(path)
        assert recovered.dropped_partial
        assert len(recovered) == 1
        assert recovered.get(BTBConfig(), "perl") is not None

    def test_torn_tail_is_repaired_before_appending(self, tmp_path):
        """Appending after a torn tail must not concatenate onto the torn
        half-line and corrupt the journal for every later resume."""
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(BTBConfig(), "perl", make_result())
            journal.record(BTBConfig(), "ixx", make_result("ixx"))
        data = path.read_bytes()
        path.write_bytes(data[:-25])  # torn mid-append, no trailing newline
        with CheckpointJournal(path) as journal:
            assert journal.dropped_partial
            journal.record(BTBConfig(), "jhm", make_result("jhm"))
        # Every line in the repaired journal must be valid JSON.
        for line in path.read_text().splitlines():
            json.loads(line)
        third = CheckpointJournal(path)
        assert not third.dropped_partial
        assert len(third) == 2  # perl survived, ixx was torn, jhm appended
        assert third.get(BTBConfig(), "jhm") is not None

    def test_record_missing_its_newline_is_dropped_then_appended_past(
            self, tmp_path):
        """A complete record without its newline is uncommitted: reopen
        drops and truncates it, so the next append starts a fresh line."""
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(BTBConfig(), "perl", make_result())
            keep = path.stat().st_size
            journal.record(BTBConfig(), "ixx", make_result("ixx"))
        path.write_bytes(path.read_bytes()[:-1])  # crash before the "\n"
        with CheckpointJournal(path) as journal:
            assert journal.dropped_partial
            assert [key[1] for key, _ in journal] == ["perl"]
            assert path.stat().st_size == keep
            journal.record(BTBConfig(), "jhm", make_result("jhm"))
        third = CheckpointJournal(path)
        assert not third.dropped_partial
        assert sorted(key[1] for key, _ in third) == ["jhm", "perl"]
        third.close()

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(BTBConfig(), "perl", make_result())
        lines = path.read_text().splitlines()
        lines.insert(1, "{garbage")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointJournal(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"something": "else"}\n{"config": "x"}\n')
        with pytest.raises(CheckpointError):
            CheckpointJournal(path)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record(BTBConfig(), "perl", make_result())
        assert path.exists()


class TestResumableRunner:
    def test_completed_pairs_are_not_resimulated(self, tmp_path):
        config = BTBConfig()
        with CheckpointJournal(tmp_path / "j.jsonl") as journal:
            first = SuiteRunner(benchmarks=BENCHMARKS, scale=SCALE,
                                checkpoint=journal)
            baseline = first.rates(config)
        # A "new process": fresh runner, same journal, booby-trapped engine.
        def boom(*args, **kwargs):
            raise AssertionError("completed pair was re-simulated")

        with CheckpointJournal(tmp_path / "j.jsonl") as journal:
            resumed = SuiteRunner(benchmarks=BENCHMARKS, scale=SCALE,
                                  checkpoint=journal, simulate_fn=boom)
            assert resumed.rates(config) == baseline

    def test_killed_sweep_resumes_where_it_stopped(self, tmp_path):
        configs = {
            "always": BTBConfig(update_rule="always"),
            "2bc": BTBConfig(update_rule="2bc"),
        }
        # Crash on the third simulation: config "always" completes both
        # benchmarks, config "2bc" dies on its first.
        flaky = FlakyCallable(simulate, fail_on=(3,))
        with CheckpointJournal(tmp_path / "j.jsonl") as journal:
            runner = SuiteRunner(benchmarks=BENCHMARKS, scale=SCALE,
                                 checkpoint=journal, simulate_fn=flaky)
            with pytest.raises(FaultInjectedError) as excinfo:
                sweep(configs, runner=runner, benchmarks=BENCHMARKS)
            assert excinfo.value.context["sweep_point"] == "2bc"
            assert excinfo.value.context["sweep_completed"] == 1
            assert len(journal) == 2  # the completed pairs survived the crash

        counting = FlakyCallable(simulate, fail_on=())
        with CheckpointJournal(tmp_path / "j.jsonl") as journal:
            resumed = SuiteRunner(benchmarks=BENCHMARKS, scale=SCALE,
                                  checkpoint=journal, simulate_fn=counting)
            result = sweep(configs, runner=resumed, benchmarks=BENCHMARKS)
        # Only the two missing (2bc, benchmark) pairs were simulated.
        assert counting.calls == 2
        assert set(result.points) == {"always", "2bc"}

    def test_checkpoint_consulted_before_trace_generation(self, tmp_path):
        """Resume must not regenerate traces for already-completed pairs."""
        config = BTBConfig()
        with CheckpointJournal(tmp_path / "j.jsonl") as journal:
            SuiteRunner(benchmarks=("perl",), scale=SCALE,
                        checkpoint=journal).result(config, "perl")

        def no_generation(*args, **kwargs):
            raise AssertionError("trace regenerated for a checkpointed pair")

        with CheckpointJournal(tmp_path / "j.jsonl") as journal:
            resumed = SuiteRunner(benchmarks=("perl",), scale=SCALE,
                                  checkpoint=journal,
                                  generate_fn=no_generation)
            resumed.result(config, "perl")
