"""Execution backends: determinism across serial/thread/process."""

import pytest

from repro.eval import (
    ExperimentConfig,
    Metrics,
    ProcessPoolExecutor,
    Runner,
    SerialExecutor,
    ThreadPoolExecutor,
    make_executor,
    sweep_tasks,
)

CONFIG = ExperimentConfig(max_theorems=6, fuel=16)


@pytest.fixture(scope="module")
def runner(project):
    return Runner(project, CONFIG)


@pytest.fixture(scope="module")
def tasks(runner):
    """One hinted sweep (hints exercise the split-dependent prompt path)."""
    theorems = runner.theorems_for("gpt-4o-mini")
    return sweep_tasks(theorems, "gpt-4o-mini", True, CONFIG)


@pytest.fixture(scope="module")
def serial_records(runner, tasks):
    return runner.run_tasks(tasks, executor=SerialExecutor())


class TestDeterminism:
    def test_thread_matches_serial(self, runner, tasks, serial_records):
        threaded = runner.run_tasks(tasks, executor=ThreadPoolExecutor(jobs=4))
        assert threaded == serial_records

    def test_process_matches_serial(self, runner, tasks, serial_records):
        # Workers rebuild Project/Runner once each from CONFIG alone;
        # identical records prove the whole pipeline is a pure function
        # of the task fields (the acceptance criterion).
        processed = runner.run_tasks(
            tasks, executor=ProcessPoolExecutor(CONFIG, jobs=2)
        )
        assert processed == serial_records

    def test_full_run_equivalence(self, project, serial_records):
        # Runner.run over the executor engine == flat record list.
        fresh_runner = Runner(project, CONFIG)
        run = fresh_runner.run("gpt-4o-mini", True)
        from repro.eval import record_from_outcome

        assert [record_from_outcome(o) for o in run.outcomes] == serial_records

    def test_results_arrive_in_task_order(self, runner, tasks):
        records = runner.run_tasks(tasks, executor=ThreadPoolExecutor(jobs=3))
        assert [r.theorem for r in records] == [t.theorem for t in tasks]

    def test_process_workers_mirror_parent_load_mode(self, project):
        # Regression test: proof replay at load advances the kernel's
        # global fresh-tvar counter, so a project loaded with
        # check_proofs=False parses later lemma statements with
        # different ?A<n> names than a checked load.  Those names reach
        # prompts and reseed generation, so these theorems' outcomes
        # differ between the two load modes.  Process workers must
        # therefore reload with the parent's mode — with the old
        # hardcoded check_proofs=False worker load, this test fails
        # (e.g. map_fst_pair_repeat flips stuck/proved).
        sensitive = [
            "Forall_forall_in",
            "NoDup_cons_inv",
            "map_fst_pair_repeat",
            "snd_pair",
        ]
        config = ExperimentConfig(fuel=16, executor="process", jobs=2)
        run_tasks = sweep_tasks(sensitive, "gpt-4o-mini", False, config)
        run_tasks += sweep_tasks(sensitive, "gpt-4o-mini", True, config)
        reference = Runner(project, config).run_tasks(
            run_tasks, executor=SerialExecutor()
        )
        # No explicit executor: run_tasks builds the process backend
        # itself, which must propagate project.check_proofs to workers.
        assert project.check_proofs is True
        processed = Runner(project, config).run_tasks(run_tasks)
        assert processed == reference


class TestMakeExecutor:
    def test_selects_backend_from_config(self):
        assert make_executor(ExperimentConfig()).kind == "serial"
        thread = make_executor(ExperimentConfig(executor="thread", jobs=3))
        assert thread.kind == "thread" and thread.jobs == 3
        process = make_executor(ExperimentConfig(executor="process", jobs=2))
        assert process.kind == "process" and process.jobs == 2

    def test_overrides_win(self):
        ex = make_executor(ExperimentConfig(), backend="thread", jobs=5)
        assert ex.kind == "thread" and ex.jobs == 5

    def test_check_proofs_reaches_process_backend(self):
        fast = make_executor(
            ExperimentConfig(executor="process"), check_proofs=False
        )
        assert fast.check_proofs is False
        checked = make_executor(ExperimentConfig(executor="process"))
        assert checked.check_proofs is True

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_executor(ExperimentConfig(executor="gpu"))

    def test_empty_task_list_is_a_noop(self):
        assert list(ThreadPoolExecutor(2).map([], lambda t: t)) == []
        assert list(ProcessPoolExecutor(CONFIG, 2).map([])) == []


class TestInstrumentation:
    def test_stages_populated(self, runner, tasks, serial_records):
        # serial_records ran through `runner`; the sweep-level handle
        # holds merged per-task stage timings and verdict counts.
        snapshot = runner.metrics.snapshot()
        stages = snapshot["stages"]
        assert stages["generation"]["calls"] > 0
        assert stages["prompt_build"]["calls"] > 0
        assert stages["tactic"]["calls"] > 0
        assert stages["task"]["calls"] == stages["search"]["calls"]
        assert stages["expand"]["calls"] == stages["generation"]["calls"]
        verdicts = sum(
            count
            for name, count in snapshot["counters"].items()
            if name.startswith("verdict.")
        )
        assert verdicts == stages["tactic"]["calls"]

    def test_merge_accumulates(self):
        a = Metrics()
        a.incr("verdict.valid", 2)
        a.add_time("generation", 0.5, calls=3)
        b = Metrics()
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"]["verdict.valid"] == 4
        assert snap["stages"]["generation"] == {"seconds": 1.0, "calls": 6}
