"""Chaos acceptance tests: the fault-tolerance layer's contract.

Two load-bearing guarantees (the PR's acceptance criteria):

1. **Transient invisibility** — a sweep whose faults are all transient
   (retryable model errors that resolve within the retry budget)
   produces *byte-identical* store files to a fault-free sweep.  The
   resilient wrapper absorbs the chaos; the science is unchanged.
2. **Crash containment** — a sweep whose fault plan permanently kills
   the workers of specific tasks still *completes*, recording exactly
   those tasks as CRASH and every other task's normal outcome.

These run the real engine end to end (real corpus, real kernel, real
searches) on a small slice, so they also serve as integration tests
for the Runner -> ResilientGenerator -> FaultyGenerator wiring and the
process backend's isolation-retry path.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutorSetupError
from repro.eval import (
    ExperimentConfig,
    ProcessPoolExecutor,
    Runner,
    RunStore,
    SerialExecutor,
    sweep_tasks,
)

# Small but non-trivial slice: a few theorems, enough fuel for real
# searches, every run well under a minute.
N_THEOREMS = 4
FUEL = 8

# Transient-only plan: every fault kind the resilient wrapper must
# absorb, with max_failures (2) strictly below the wrapper's retry
# budget (RetryPolicy.max_attempts = 4) so no prompt can exhaust it.
TRANSIENT_FAULTS = (
    "seed=7,transient=0.15,ratelimit=0.10,malformed=0.10,truncate=0.05,"
    "max_failures=2"
)


def _config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(max_theorems=N_THEOREMS, fuel=FUEL, **overrides)


def _sweep(project, config, store_path, executor=None):
    runner = Runner(project, config)
    theorems = runner.theorems_for("gpt-4o-mini")
    tasks = sweep_tasks(theorems, "gpt-4o-mini", False, config)
    with RunStore(store_path) as store:
        records = runner.run_tasks(
            tasks, executor=executor or SerialExecutor(), store=store
        )
    return runner, tasks, records


class TestTransientInvisibility:
    def test_transient_fault_sweep_is_byte_identical(self, project, tmp_path):
        _, _, clean_records = _sweep(
            project, _config(), tmp_path / "clean.jsonl"
        )
        chaos_runner, _, chaos_records = _sweep(
            project,
            _config(faults=TRANSIENT_FAULTS),
            tmp_path / "chaos.jsonl",
        )
        # The chaos sweep really did hit injected faults and retried
        # through them — otherwise this test certifies nothing.
        assert chaos_runner.metrics.counter("llm.retries") > 0
        # Same records, and byte-identical store files: same keys,
        # same task payloads, same outcomes, same checksums, same order.
        assert chaos_records == clean_records
        assert (tmp_path / "chaos.jsonl").read_bytes() == (
            tmp_path / "clean.jsonl"
        ).read_bytes()

    def test_resilient_wrapper_off_exposes_faults(self, project, tmp_path):
        # Control experiment: with the retry layer disabled the same
        # injected faults surface as errors, proving invisibility above
        # comes from the wrapper, not from the plan being a no-op.
        from repro.errors import TransientModelError

        with pytest.raises(TransientModelError):
            _sweep(
                project,
                _config(faults=TRANSIENT_FAULTS, resilient=False),
                tmp_path / "bare.jsonl",
            )


class TestCrashContainment:
    @pytest.fixture(scope="class")
    def reference(self, project, tmp_path_factory):
        _, tasks, records = _sweep(
            project,
            _config(),
            tmp_path_factory.mktemp("chaos-ref") / "ref.jsonl",
        )
        return tasks, records

    def test_permanent_kill_yields_exactly_that_crash(
        self, project, tmp_path, reference
    ):
        tasks, clean_records = reference
        victim = tasks[1].theorem
        config = _config(faults=f"kill={victim}", task_retries=1)
        executor = ProcessPoolExecutor(config, jobs=2)
        runner, _, records = _sweep(
            project, config, tmp_path / "kill.jsonl", executor=executor
        )
        # The sweep completed: one record per task, in task order.
        assert [r.theorem for r in records] == [t.theorem for t in tasks]
        # Exactly the killed task is CRASH; everyone else's outcome is
        # untouched by sharing a pool with the killer.
        statuses = {r.theorem: r.status for r in records}
        assert statuses[victim] == "crash"
        for record, clean in zip(records, clean_records):
            if record.theorem == victim:
                assert record.queries == 0
            else:
                assert record == clean
        assert runner.metrics.counter("tasks.crashed") == 1
        assert runner.metrics.counter("executor.worker_deaths") >= 2

    def test_first_attempt_crashes_are_invisible(
        self, project, tmp_path, reference
    ):
        # crash=1.0 kills every task's first attempt; the isolated
        # retry (attempt 1) runs clean, so outcomes match fault-free.
        _, clean_records = reference
        config = _config(faults="crash=1.0", task_retries=2)
        executor = ProcessPoolExecutor(config, jobs=2)
        _, _, records = _sweep(
            project, config, tmp_path / "crashy.jsonl", executor=executor
        )
        assert records == clean_records


class TestWorkerInitFailure:
    def test_init_failure_is_actionable_not_a_hang(self, project):
        config = _config(faults="initfail=1")
        runner = Runner(project, config)
        theorems = runner.theorems_for("gpt-4o-mini")
        tasks = sweep_tasks(theorems, "gpt-4o-mini", False, config)
        executor = ProcessPoolExecutor(config, jobs=2)
        with pytest.raises(ExecutorSetupError, match="--backend thread"):
            list(executor.map(tasks, None))
