"""Full experiment run: regenerates every table and figure.

Writes the rendered results to stdout (tee into EXPERIMENTS's results
block).  Budget: paper settings (width 8, fuel 128, 5 s timeout),
small models on the full test split capped at 60 theorems, large
models on the subsample capped at 40.

The sweep runs on the task-based execution engine: ``--jobs N``
parallelises the independent searches (process backend by default),
``--store PATH`` makes the run resumable — rerunning after a crash
skips every already-completed cell — and per-stage instrumentation is
dumped as JSON next to the store.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval import (
    ExperimentConfig,
    Runner,
    RunStore,
    category_table,
    coverage_by_bin,
    coverage_under,
    overall_coverage,
    random_pair_baseline,
    render_case,
    render_figure1,
    render_metrics,
    render_table1,
    render_table2,
    run_case_studies,
    table2_rows,
)
from repro.eval.config import ALL_MODELS, LARGE_MODELS

SMALL_CAP = 60
LARGE_CAP = 40


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel search workers"
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="execution backend (default: process when --jobs > 1)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL run store: makes the sweep resumable/incremental",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore stored cells and re-run everything",
    )
    parser.add_argument(
        "--theorem-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-theorem wall-clock budget (clean TIMEOUT outcome)",
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=2,
        metavar="N",
        help="isolated re-runs of a task whose worker died, before CRASH",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="chaos fault-injection spec (env: REPRO_FAULTS)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    backend = args.backend or ("process" if args.jobs > 1 else "serial")
    started = time.time()
    runner = Runner(
        config=ExperimentConfig(
            executor=backend,
            jobs=args.jobs,
            theorem_deadline=args.theorem_deadline,
            task_retries=args.task_retries,
            faults=args.faults,
        )
    )
    store = RunStore(args.store) if args.store else None
    if runner.fault_plan is not None:
        print(f"chaos: {runner.fault_plan.describe()}", file=sys.stderr)
    print(
        f"corpus: {len(runner.project.theorems)} theorems; "
        f"test split {len(runner.splits.test)}; "
        f"large subsample {len(runner.splits.test_large)}"
    )

    runs = []
    series_vanilla = {}
    series_hints = {}
    for model in ALL_MODELS:
        pool = runner.theorems_for(model)
        cap = LARGE_CAP if model in LARGE_MODELS else SMALL_CAP
        theorems = pool[:cap]
        for hinted in (False, True):
            t0 = time.time()
            run = runner.run(
                model, hinted, theorems=theorems, store=store, fresh=args.fresh
            )
            runs.append(run)
            (series_hints if hinted else series_vanilla)[model] = (
                coverage_by_bin(run.outcomes)
            )
            print(
                f"[{time.time() - started:6.0f}s] {model:22} "
                f"hinted={hinted} n={len(theorems)} "
                f"proved={overall_coverage(run.outcomes):.1%} "
                f"({time.time() - t0:.0f}s)",
                file=sys.stderr,
            )

    print()
    print(render_figure1(series_vanilla, "Figure 1a — coverage (no hints)"))
    print()
    print(render_figure1(series_hints, "Figure 1a — coverage (with hints)"))
    print()
    print(
        render_figure1(
            {
                "gemini-1.5-pro (1M)": series_hints["gemini-1.5-pro"],
                "gemini-1.5-pro (128k)": series_hints["gemini-1.5-pro-128k"],
            },
            "Figure 1b — context windows (with hints)",
        )
    )

    # Table 1: GPT-4o over a stratified per-category sample.
    from repro.corpus.model import CATEGORIES

    stratified = []
    for category in CATEGORIES:
        pool = [t for t in runner.splits.test if t.category == category]
        stratified.extend(pool[:14])
    table1 = {}
    for hinted, label in ((False, "gpt-4o"), (True, "gpt-4o (w/ hints)")):
        sweep = runner.run(
            "gpt-4o", hinted, theorems=stratified, store=store, fresh=args.fresh
        )
        table1[label] = category_table(sweep.outcomes)
    print()
    print(render_table1(table1, "Table 1 — category coverage"))

    print()
    print(render_table2(table2_rows(runs), "Table 2 — outcomes"))
    baseline = random_pair_baseline(
        [t.proof_text for t in runner.project.theorems], pairs=200
    )
    print(f"random-pair similarity baseline: {baseline:.3f} (paper: 0.360)")

    hinted_4o = next(r for r in runs if r.model == "gpt-4o" and r.hinted)
    print()
    print("Headline (hinted GPT-4o):")
    print(f"  overall coverage: {overall_coverage(hinted_4o.outcomes):.1%} (paper: 38%)")
    print(f"  coverage <64 tokens: {coverage_under(hinted_4o.outcomes, 64):.1%} (paper: 57%)")
    under = sum(1 for t in runner.project.theorems if t.proof_tokens < 64)
    print(
        f"  corpus <64-token fraction: {under / len(runner.project.theorems):.1%}"
        " (paper: ~60%)"
    )

    print()
    print("Figure 2 — case studies (curated context, best-case attention):")
    for study in run_case_studies(runner):
        print()
        print(render_case(study))

    cached = runner.metrics.counter("tasks.cached")
    executed = runner.metrics.counter("tasks.executed")
    crashed = runner.metrics.counter("tasks.crashed")
    crash_note = f", {crashed} crashed" if crashed else ""
    print(
        f"\n[{backend} x{args.jobs}] cells: {executed} searched, "
        f"{cached} served from store{crash_note}",
        file=sys.stderr,
    )
    print(render_metrics(runner.metrics.snapshot()), file=sys.stderr)
    if store is not None:
        store.close()
        runner.metrics.dump(store.metrics_path())
        print(
            f"run store: {store.path} ({len(store)} records); "
            f"metrics: {store.metrics_path()}",
            file=sys.stderr,
        )
    print(f"\ntotal wall time: {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
