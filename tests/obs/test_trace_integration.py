"""Tracing end-to-end: span-tree shape and the determinism contract.

Two invariants ride on the tracer design:

* **tracing off is free** — the no-op tracer must leave outcome
  records byte-identical (the committed golden store is replayed by
  ``tests/eval/test_golden_replay.py`` with tracing off; here we check
  the *traced* run produces the same records, proving trace config
  never leaks into outcomes);
* **tracing on tells the true story** — the span tree for a known
  theorem must mirror the search structure: ``task → search →
  (select/expand)*`` with ``prompt_build``/``generation``/``tactic``
  children per expansion, one ``tactic`` span per candidate checked.
"""

from __future__ import annotations

from dataclasses import replace

from repro.eval import ExperimentConfig, Runner, RunStore, SerialExecutor
from repro.eval.tasks import TheoremTask, sweep_tasks
from repro.obs.trace import JsonlSink, load_spans

CONFIG = ExperimentConfig(max_theorems=3, fuel=16)


def run_records(project, store_path, trace, trace_sink=None):
    runner = Runner(project, replace(CONFIG, trace=trace))
    theorems = runner.theorems_for("gpt-4o-mini")
    tasks = sweep_tasks(theorems, "gpt-4o-mini", False, CONFIG)
    tasks += sweep_tasks(theorems, "gpt-4o-mini", True, CONFIG)
    with RunStore(store_path) as store:
        runner.run_tasks(
            tasks,
            executor=SerialExecutor(),
            store=store,
            trace_sink=trace_sink,
        )
    return store_path.read_text(encoding="utf-8")


class TestDeterminism:
    def test_traced_sweep_writes_byte_identical_records(
        self, project, tmp_path
    ):
        plain = run_records(project, tmp_path / "plain.jsonl", trace=False)
        sink = JsonlSink(tmp_path / "trace.jsonl")
        traced = run_records(
            project, tmp_path / "traced.jsonl", trace=True, trace_sink=sink
        )
        assert traced == plain
        assert sink.spans_written > 0

    def test_trace_config_is_not_part_of_the_cache_key(self):
        traced_config = replace(CONFIG, trace=True)
        a = TheoremTask.from_config(
            "rev_involutive", "gpt-4o-mini", False, CONFIG
        )
        b = TheoremTask.from_config(
            "rev_involutive", "gpt-4o-mini", False, traced_config
        )
        assert a.cache_key() == b.cache_key()

    def test_untraced_task_ships_no_trace(self, project):
        runner = Runner(project, CONFIG)
        task = TheoremTask.from_config(
            "rev_involutive", "gpt-4o-mini", False, CONFIG
        )
        assert runner.execute_task(task).trace is None


class TestSpanTreeShape:
    def test_known_theorem_trace_mirrors_the_search(self, project, tmp_path):
        runner = Runner(project, replace(CONFIG, trace=True))
        task = TheoremTask.from_config(
            "rev_involutive", "gpt-4o-mini", True, CONFIG
        )
        result = runner.execute_task(task)
        assert result.trace, "traced task must ship spans"
        sink = JsonlSink(tmp_path / "one.jsonl")
        sink.write(result.trace)
        spans = load_spans(tmp_path / "one.jsonl")
        assert spans == result.trace

        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (task_span,) = by_name["task"]
        (search_span,) = by_name["search"]
        assert task_span["parent"] is None
        assert search_span["parent"] == task_span["span"]
        assert task_span["attrs"]["theorem"] == "rev_involutive"
        assert task_span["attrs"]["status"] == result.record.status
        assert task_span["attrs"]["queries"] == result.record.queries
        assert search_span["attrs"]["status"] == result.record.status

        expands = by_name["expand"]
        assert len(expands) == result.record.queries
        expand_ids = {e["span"] for e in expands}
        assert all(e["parent"] == search_span["span"] for e in expands)
        # Per-expansion children: prompt build, generation, and one
        # tactic span per candidate the checker saw.
        for kind in ("prompt_build", "generation"):
            kids = by_name[kind]
            assert len(kids) == len(expands)
            assert all(k["parent"] in expand_ids for k in kids)
        tactics = by_name["tactic"]
        assert tactics and all(t["parent"] in expand_ids for t in tactics)
        candidates = sum(
            e["attrs"]["candidates"] for e in by_name["generation"]
        )
        assert len(tactics) == candidates
        for tactic in tactics:
            assert tactic["attrs"]["verdict"] in (
                "valid",
                "rejected",
                "duplicate",
                "timeout",
            )
            assert "tactic" in tactic["attrs"]
        # Every expand is annotated with fuel index, depth, and score.
        for index, expand in enumerate(
            sorted(expands, key=lambda e: e["span"])
        ):
            assert expand["attrs"]["query"] == index + 1
            assert expand["attrs"]["fuel"] == CONFIG.fuel
            assert "depth" in expand["attrs"]
            assert "score" in expand["attrs"]
            assert "goal" in expand["attrs"]

    def test_proved_theorem_records_qed_replay(self, project):
        # Find a provable cell cheaply: hinted gpt-4o-mini usually
        # proves at least one of the first few theorems at fuel 16.
        runner = Runner(project, replace(CONFIG, trace=True))
        for theorem in runner.theorems_for("gpt-4o-mini"):
            task = TheoremTask.from_config(
                theorem.name, "gpt-4o-mini", True, CONFIG
            )
            result = runner.execute_task(task)
            if result.record.status != "proved":
                continue
            names = {span["name"] for span in result.trace}
            assert "qed_replay" in names
            (replay,) = [
                s for s in result.trace if s["name"] == "qed_replay"
            ]
            assert replay["attrs"]["revalidated"] is True
            return
        raise AssertionError(
            "no provable cell in the mini-sweep; widen the probe"
        )
