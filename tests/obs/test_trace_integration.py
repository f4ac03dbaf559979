"""Tracing end-to-end: span-tree shape and the determinism contract.

Two invariants ride on the tracer design:

* **tracing off is free** — an untraced run times its stages but
  builds no span tree and computes no span attribute, and tracing
  leaves outcome records byte-identical (the committed golden store is
  replayed by ``tests/eval/test_golden_replay.py`` with tracing off;
  here we check the *traced* run produces the same records and the
  same counters and stage call counts, proving trace config never
  leaks into outcomes or into the stage table);
* **tracing on tells the true story** — the span tree for a known
  theorem must mirror the search structure: ``task → search →
  (select/expand)*`` with ``prompt_build``/``generation``/``tactic``
  children per expansion, one ``tactic`` span per candidate checked.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

from repro.eval import ExperimentConfig, Runner, RunStore, SerialExecutor
from repro.eval.tasks import TheoremTask, sweep_tasks
from repro.kernel.goals import ProofState
from repro.obs import trace
from repro.obs.trace import JsonlSink, load_spans

CONFIG = ExperimentConfig(max_theorems=3, fuel=16)


def run_records(project, store_path, traced, trace_sink=None):
    """The store text and the sweep's metrics snapshot."""
    runner = Runner(project, replace(CONFIG, trace=traced))
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
    return store_path.read_text(encoding="utf-8"), runner.metrics.snapshot()


def stage_calls(snapshot):
    return {
        stage: cell["calls"] for stage, cell in snapshot["stages"].items()
    }


class TestDeterminism:
    def test_traced_sweep_writes_byte_identical_records(
        self, project, tmp_path
    ):
        plain, plain_metrics = run_records(
            project, tmp_path / "plain.jsonl", traced=False
        )
        sink = JsonlSink(tmp_path / "trace.jsonl")
        traced, traced_metrics = run_records(
            project, tmp_path / "traced.jsonl", traced=True, trace_sink=sink
        )
        assert traced == plain
        assert sink.spans_written > 0
        # The stage table does not depend on tracing either: the same
        # counters, and one call per span in both runs.
        assert traced_metrics["counters"] == plain_metrics["counters"]
        assert stage_calls(traced_metrics) == stage_calls(plain_metrics)
        spans = load_spans(tmp_path / "trace.jsonl")
        assert len(spans) == sum(stage_calls(plain_metrics).values())

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

    def test_untraced_task_builds_no_span_and_renders_no_preview(
        self, project, monkeypatch
    ):
        # Stage timing is always on; tracing's costs must not be: an
        # untraced task constructs no Span and never renders a goal
        # preview (the search's only ProofState.render calls).
        built, previews = [], []
        render = ProofState.render
        search_py = os.path.join("core", "search.py")

        class CountingSpan(trace.Span):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        def counting_render(state):
            if sys._getframe(1).f_code.co_filename.endswith(search_py):
                previews.append(state)
            return render(state)

        monkeypatch.setattr(trace, "Span", CountingSpan)
        monkeypatch.setattr(ProofState, "render", counting_render)
        task = TheoremTask.from_config(
            "rev_involutive", "gpt-4o-mini", True, CONFIG
        )
        untraced = Runner(project, CONFIG).execute_task(task)
        assert built == [] and previews == []
        stages = untraced.metrics["stages"]
        assert stages["expand"]["calls"] == untraced.record.queries

        traced = Runner(project, replace(CONFIG, trace=True)).execute_task(
            task
        )
        assert traced.record == untraced.record
        assert len(built) == len(traced.trace)
        assert len(previews) == traced.record.queries


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
