"""Run store: persistence, resume after a kill, --fresh bypass."""

import json

import pytest

from repro.eval import (
    ExperimentConfig,
    OutcomeRecord,
    Runner,
    RunStore,
    sweep_tasks,
)

CONFIG = ExperimentConfig(max_theorems=5, fuel=16)


@pytest.fixture()
def runner(project):
    return Runner(project, CONFIG)


@pytest.fixture()
def tasks(runner):
    theorems = runner.theorems_for("gpt-4o-mini")
    return sweep_tasks(theorems, "gpt-4o-mini", False, CONFIG)


class TestPersistence:
    def test_sweep_writes_one_line_per_cell(self, runner, tasks, tmp_path):
        with RunStore(tmp_path / "run.jsonl") as store:
            runner.run_tasks(tasks, store=store)
        lines = (tmp_path / "run.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(tasks)
        parsed = [json.loads(line) for line in lines]
        assert {obj["key"] for obj in parsed} == {
            t.cache_key() for t in tasks
        }
        # Stored task payloads rehydrate to records byte-for-byte.
        for obj in parsed:
            OutcomeRecord.from_json(obj["record"])

    def test_rerun_hits_store_and_searches_nothing(
        self, project, runner, tasks, tmp_path
    ):
        with RunStore(tmp_path / "run.jsonl") as store:
            first = runner.run_tasks(tasks, store=store)

        rerun_runner = Runner(project, CONFIG)
        with RunStore(tmp_path / "run.jsonl") as reloaded:
            second = rerun_runner.run_tasks(tasks, store=reloaded)
        assert second == first
        assert rerun_runner.metrics.counter("tasks.executed") == 0
        assert rerun_runner.metrics.counter("tasks.cached") == len(tasks)
        # Nothing was appended: zero new searches, zero new lines.
        lines = (tmp_path / "run.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(tasks)

    def test_different_config_misses_store(self, project, runner, tasks, tmp_path):
        other_config = ExperimentConfig(max_theorems=5, fuel=8)
        other_runner = Runner(project, other_config)
        other_tasks = sweep_tasks(
            [t.theorem for t in tasks], "gpt-4o-mini", False, other_config
        )
        with RunStore(tmp_path / "run.jsonl") as store:
            runner.run_tasks(tasks, store=store)
            other_runner.run_tasks(other_tasks, store=store)
        assert other_runner.metrics.counter("tasks.cached") == 0
        assert other_runner.metrics.counter("tasks.executed") == len(tasks)


class TestResume:
    def test_kill_midsweep_then_resume(self, project, runner, tasks, tmp_path):
        path = tmp_path / "run.jsonl"
        # Reference: the full sweep, no store involved.
        reference = Runner(project, CONFIG).run_tasks(tasks)

        # "Crash" after 2 cells, mid-append of the 3rd: the tail line
        # is torn JSON, exactly what a killed process leaves behind.
        with RunStore(path) as store:
            runner.run_tasks(tasks[:2], store=store)
        with path.open("a") as handle:
            handle.write('{"key": "deadbeef", "rec')

        resumed_runner = Runner(project, CONFIG)
        with RunStore(path) as resumed_store:
            assert len(resumed_store) == 2  # torn line dropped on load
            final = resumed_runner.run_tasks(tasks, store=resumed_store)
        assert resumed_runner.metrics.counter("tasks.cached") == 2
        assert resumed_runner.metrics.counter("tasks.executed") == len(tasks) - 2
        assert final == reference

    def test_fresh_bypasses_but_still_appends(
        self, project, runner, tasks, tmp_path
    ):
        fresh_runner = Runner(project, CONFIG)
        with RunStore(tmp_path / "run.jsonl") as store:
            first = runner.run_tasks(tasks, store=store)
            again = fresh_runner.run_tasks(tasks, store=store, fresh=True)
        assert fresh_runner.metrics.counter("tasks.executed") == len(tasks)
        assert fresh_runner.metrics.counter("tasks.cached") == 0
        assert again == first  # deterministic, so bypass changes nothing
        # Append-only: both generations are on disk, newest wins on load.
        lines = (tmp_path / "run.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2 * len(tasks)
        assert len(RunStore(tmp_path / "run.jsonl")) == len(tasks)

    def test_put_after_close_reopens_the_file(self, runner, tasks, tmp_path):
        path = tmp_path / "run.jsonl"
        first, second = runner.run_tasks(tasks[:2])
        store = RunStore(path)
        store.put(tasks[0], first)
        store.close()
        store.close()  # idempotent
        store.put(tasks[1], second)
        store.close()
        reloaded = RunStore(path)
        assert reloaded.quarantined == 0
        assert reloaded.get(tasks[1].cache_key()) == second
        assert len(path.read_text().splitlines()) == 2

    def test_metrics_path_is_a_sibling(self, tmp_path):
        store = RunStore(tmp_path / "sweep.jsonl")
        assert store.metrics_path() == tmp_path / "sweep.metrics.json"


class TestChecksums:
    def test_lines_carry_checksums(self, runner, tasks, tmp_path):
        with RunStore(tmp_path / "run.jsonl") as store:
            runner.run_tasks(tasks[:2], store=store)
        for line in (tmp_path / "run.jsonl").read_text().splitlines():
            obj = json.loads(line)
            assert len(obj["sum"]) == 16
            int(obj["sum"], 16)  # hex

    def test_corrupt_line_is_quarantined_and_reexecuted(
        self, project, runner, tasks, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        reference = Runner(project, CONFIG).run_tasks(tasks)
        with RunStore(path) as store:
            runner.run_tasks(tasks, store=store)

        # Flip one character inside the *second* line's record payload:
        # the JSON still parses, only the checksum can catch it.
        lines = path.read_text().splitlines()
        assert '"status":"' in lines[1]
        corrupted = lines[1].replace('"status":"', '"status":"X', 1)
        assert corrupted != lines[1]
        lines[1] = corrupted
        path.write_text("\n".join(lines) + "\n")

        reloaded = RunStore(path)
        assert reloaded.quarantined == 1
        assert len(reloaded) == len(tasks) - 1
        # The damaged line moved to the quarantine sibling…
        quarantine = reloaded.quarantine_path().read_text().splitlines()
        assert quarantine == [corrupted]
        # …and was removed from the store file itself.
        assert corrupted not in path.read_text()

        # Resume: only the damaged cell re-executes, and the sweep
        # converges back to the reference outcomes.
        resumed = Runner(project, CONFIG)
        with reloaded:
            final = resumed.run_tasks(tasks, store=reloaded)
        assert resumed.metrics.counter("tasks.executed") == 1
        assert resumed.metrics.counter("tasks.cached") == len(tasks) - 1
        assert final == reference

    def test_torn_tail_is_quarantined(self, runner, tasks, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            runner.run_tasks(tasks[:2], store=store)
        with path.open("a") as handle:
            handle.write('{"key": "deadbeef", "rec')
        reloaded = RunStore(path)
        assert len(reloaded) == 2
        assert reloaded.quarantined == 1
        assert '"rec' in reloaded.quarantine_path().read_text()

    def test_legacy_lines_without_checksum_still_load(
        self, runner, tasks, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            runner.run_tasks(tasks[:2], store=store)
        # Strip the checksums, as a pre-checksum store would look.
        lines = []
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            del obj["sum"]
            lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        path.write_text("\n".join(lines) + "\n")
        reloaded = RunStore(path)
        assert len(reloaded) == 2
        assert reloaded.quarantined == 0

    def test_quarantine_rewrite_is_idempotent(self, runner, tasks, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            runner.run_tasks(tasks[:2], store=store)
        with path.open("a") as handle:
            handle.write("garbage line\n")
        assert RunStore(path).quarantined == 1
        # The rewrite removed the bad line: a second load is clean and
        # the quarantine file does not grow again.
        assert RunStore(path).quarantined == 0
        assert len(
            RunStore(path).quarantine_path().read_text().splitlines()
        ) == 1

    def test_quarantine_path_is_a_sibling(self, tmp_path):
        store = RunStore(tmp_path / "sweep.jsonl")
        assert store.quarantine_path() == tmp_path / "sweep.jsonl.quarantine"


class TestEvalRunIntegration:
    def test_run_with_store_round_trips_outcomes(self, project, tmp_path):
        with RunStore(tmp_path / "run.jsonl") as store:
            first = Runner(project, CONFIG).run(
                "gpt-4o-mini", hinted=True, store=store
            )
        resumed = Runner(project, CONFIG)
        with RunStore(tmp_path / "run.jsonl") as store:
            second = resumed.run("gpt-4o-mini", hinted=True, store=store)
        assert resumed.metrics.counter("tasks.executed") == 0
        assert [o.status for o in second.outcomes] == [
            o.status for o in first.outcomes
        ]
        assert [o.generated_proof for o in second.outcomes] == [
            o.generated_proof for o in first.outcomes
        ]
        assert second.proved_fraction() == first.proved_fraction()
