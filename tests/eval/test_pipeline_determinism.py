"""Pipelined search determinism against the golden stores.

Two contracts, both riding ``ExperimentConfig.pipeline_depth`` (an
execution knob outside the task cache key, like ``trace``):

* ``pipeline_depth=1`` (the default) is the paper's serial loop, so
  re-running the golden sweeps (``tests/eval/golden_run.jsonl`` and
  ``tests/repair/golden_repair.jsonl``, both recorded by the original
  serial loop) must produce **byte-identical** store files.
* ``pipeline_depth=4`` — overlapped rounds may explore in a different
  order (selection is speculative), but per-theorem *coverage* on the
  golden corpus is unchanged: the same cells prove, with revalidated
  proofs, with kernel caches on and off, and under injected transient
  faults below the retry budget.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.eval import (
    ExperimentConfig,
    Runner,
    RunStore,
    SerialExecutor,
    sweep_tasks,
)
from repro.llm import get_model
from repro.testing.latency import LatencyGenerator

GOLDEN_RUN = Path(__file__).with_name("golden_run.jsonl")
GOLDEN_REPAIR = (
    Path(__file__).parent.parent / "repair" / "golden_repair.jsonl"
)
REPAIR_MODEL = "gpt-4o"
REPAIR_THEOREMS = ("plus_assoc", "le_trans", "firstn_nil", "rev_involutive")


def _run_cfg(depth: int) -> ExperimentConfig:
    return ExperimentConfig(max_theorems=6, fuel=16, pipeline_depth=depth)


def _repair_cfg(depth: int, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        fuel=64, repair_rounds=2, pipeline_depth=depth, **kwargs
    )


def _mini_sweep(project, store_path, config) -> RunStore:
    runner = Runner(project, config)
    theorems = runner.theorems_for("gpt-4o-mini")
    tasks = sweep_tasks(theorems, "gpt-4o-mini", False, config)
    tasks += sweep_tasks(theorems, "gpt-4o-mini", True, config)
    with RunStore(store_path) as store:
        runner.run_tasks(tasks, executor=SerialExecutor(), store=store)
    return store


def _repair_sweep(project, store_path, config) -> RunStore:
    runner = Runner(project, config)
    tasks = sweep_tasks(REPAIR_THEOREMS, REPAIR_MODEL, True, config)
    with RunStore(store_path) as store:
        runner.run_tasks(tasks, executor=SerialExecutor(), store=store)
    return store


def _golden_records(path: Path):
    return [
        json.loads(line)["record"]
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def _coverage(records):
    """theorem -> (proved?, revalidated?) — order-independent."""
    out = {}
    for r in records:
        r = r if isinstance(r, dict) else r.to_json()
        out[(r["theorem"], r["hinted"])] = (
            r["status"] in ("proved", "repaired"),
            r["revalidated"],
        )
    return out


# ----------------------------------------------------------------------
# depth 1: byte identity with the serial-loop golden stores
# ----------------------------------------------------------------------


def test_depth1_replays_golden_run_byte_identically(project, tmp_path):
    store = _mini_sweep(project, tmp_path / "replay.jsonl", _run_cfg(1))
    assert len(store) == 12
    assert (tmp_path / "replay.jsonl").read_text(
        encoding="utf-8"
    ) == GOLDEN_RUN.read_text(encoding="utf-8")


def test_depth1_replays_golden_repair_byte_identically(project, tmp_path):
    store = _repair_sweep(
        project, tmp_path / "replay.jsonl", _repair_cfg(1)
    )
    assert len(store) == 4
    assert (tmp_path / "replay.jsonl").read_text(
        encoding="utf-8"
    ) == GOLDEN_REPAIR.read_text(encoding="utf-8")


def test_depth1_uncached_kernel_still_byte_identical(project, tmp_path):
    from repro.kernel import cache

    with cache.disabled():
        _mini_sweep(project, tmp_path / "replay.jsonl", _run_cfg(1))
    assert (tmp_path / "replay.jsonl").read_text(
        encoding="utf-8"
    ) == GOLDEN_RUN.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# depth 4: identical coverage under reordered exploration
# ----------------------------------------------------------------------


def test_depth4_coverage_matches_golden_run(project, tmp_path):
    store = _mini_sweep(project, tmp_path / "replay.jsonl", _run_cfg(4))
    golden = _coverage(_golden_records(GOLDEN_RUN))
    lines = (tmp_path / "replay.jsonl").read_text(
        encoding="utf-8"
    ).splitlines()
    replayed = _coverage([json.loads(l)["record"] for l in lines])
    assert replayed == golden
    assert len(store) == 12


def test_depth4_coverage_matches_golden_repair(project, tmp_path):
    _repair_sweep(project, tmp_path / "replay.jsonl", _repair_cfg(4))
    golden = _coverage(_golden_records(GOLDEN_REPAIR))
    lines = (tmp_path / "replay.jsonl").read_text(
        encoding="utf-8"
    ).splitlines()
    assert _coverage([json.loads(l)["record"] for l in lines]) == golden


def test_depth4_coverage_stable_with_kernel_caches_off(project, tmp_path):
    from repro.kernel import cache

    with cache.disabled():
        _mini_sweep(project, tmp_path / "uncached.jsonl", _run_cfg(4))
    _mini_sweep(project, tmp_path / "cached.jsonl", _run_cfg(4))
    uncached = _coverage(
        [
            json.loads(l)["record"]
            for l in (tmp_path / "uncached.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
    )
    cached = _coverage(
        [
            json.loads(l)["record"]
            for l in (tmp_path / "cached.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
    )
    assert cached == uncached == _coverage(_golden_records(GOLDEN_RUN))


def test_depth4_coverage_stable_under_transient_faults(project):
    # Transient/malformed faults below the retry budget are keyed on
    # (context, prompt) — call-order independent — so the resilient
    # layer absorbs them even when pipelined threads race: coverage
    # must still match the fault-free golden repair sweep.
    config = _repair_cfg(
        4, faults="seed=7,transient=0.15,malformed=0.10,max_failures=2"
    )
    runner = Runner(project, config)
    tasks = sweep_tasks(REPAIR_THEOREMS, REPAIR_MODEL, True, config)
    records = runner.run_tasks(tasks, executor=SerialExecutor())
    assert _coverage([r.to_json() for r in records]) == _coverage(
        _golden_records(GOLDEN_REPAIR)
    )


def test_pipeline_depth_is_outside_the_cache_key(project):
    # Same cell, different depths -> same task identity: a store
    # recorded serially must serve a pipelined rerun without searching.
    runner1 = Runner(project, _run_cfg(1))
    runner4 = Runner(project, _run_cfg(4))
    theorems = runner1.theorems_for("gpt-4o-mini")[:2]
    t1 = sweep_tasks(theorems, "gpt-4o-mini", False, runner1.config)
    t4 = sweep_tasks(theorems, "gpt-4o-mini", False, runner4.config)
    assert [t.cache_key() for t in t1] == [t.cache_key() for t in t4]


def test_depth4_shares_endpoint_round_trips(project):
    # Behind a per-call endpoint cost, depth 4 sends up to four queries
    # per round-trip; depth 1 pays one per query.  (Zero overhead, so
    # nothing sleeps.)
    theorem = project.theorem("sep_star_rev3")
    trips = {}
    for depth in (1, 4):
        endpoint = LatencyGenerator(get_model(REPAIR_MODEL), 0.0)
        outcome = Runner(project, _run_cfg(depth)).run_theorem(
            theorem, REPAIR_MODEL, True, model_override=endpoint
        )
        trips[depth] = (outcome.queries, endpoint.round_trips)
    assert trips[1][0] == trips[1][1]
    assert trips[4][1] < trips[4][0] / 2
