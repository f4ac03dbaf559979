"""Command-line interface.

Usage::

    python -m repro.cli list [--category CHL]
    python -m repro.cli show tree_name_distinct_head
    python -m repro.cli check
    python -m repro.cli prove rev_involutive --model gpt-4o --hints
    python -m repro.cli prove le_trans --hints --repair-rounds 2
    python -m repro.cli repair le_trans --model gpt-4o --hints
    python -m repro.cli eval --model gpt-4o-mini --n 12
    python -m repro.cli eval --model gpt-4o-mini --n 8 --pass-at-k 4
    python -m repro.cli eval --model gpt-4o-mini --jobs 4 --store runs/eval.jsonl
    python -m repro.cli server --port 8421 --cache runs/service.jsonl
    python -m repro.cli prove rev_involutive --trace runs/trace.jsonl
    python -m repro.cli trace runs/trace.jsonl --summary
    python -m repro.cli serve          # SerAPI-like REPL over stdin
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.corpus.loader import load_project


def _cmd_list(args) -> int:
    project = load_project(check_proofs=not args.fast)
    for theorem in project.theorems:
        if args.category and theorem.category != args.category:
            continue
        print(
            f"{theorem.qualified():45} {theorem.category:12} "
            f"{theorem.proof_tokens:4} tokens"
        )
    return 0


def _cmd_show(args) -> int:
    project = load_project(check_proofs=not args.fast)
    theorem = project.theorem(args.name)
    print(f"Lemma {theorem.name} : {theorem.statement_text}.")
    print("Proof.")
    print(theorem.proof_text)
    print("Qed.")
    print(
        f"\n(file {theorem.file}.v, category {theorem.category}, "
        f"{theorem.proof_tokens} proof tokens)"
    )
    return 0


def _cmd_check(args) -> int:
    # monotonic: a wall-clock (time.time) delta goes negative or wild
    # when NTP steps the clock mid-check.
    started = time.monotonic()
    project = load_project(use_cache=False)
    print(
        f"all {len(project.theorems)} corpus proofs machine-checked in "
        f"{time.monotonic() - started:.1f}s"
    )
    return 0


def _cmd_prove(args) -> int:
    from repro.eval import ExperimentConfig, Runner, render_metrics
    from repro.eval.tasks import TheoremTask

    project = load_project(check_proofs=not args.fast)
    theorem = project.theorem(args.name)
    config = ExperimentConfig(
        width=args.width,
        fuel=args.fuel,
        theorem_deadline=args.theorem_deadline,
        trace=bool(args.trace),
        repair_rounds=args.repair_rounds,
        pipeline_depth=args.pipeline_depth,
    )
    runner = Runner(project, config)
    task = TheoremTask.from_config(args.name, args.model, args.hints, config)
    started = time.monotonic()
    task_result = runner.execute_task(task)
    elapsed = time.monotonic() - started
    record = task_result.record
    if args.trace and task_result.trace:
        from repro.obs import JsonlSink

        written = JsonlSink(args.trace).write(task_result.trace)
        print(f"trace: {written} spans -> {args.trace}")
    runner.metrics.merge(task_result.metrics)
    rejected = runner.metrics.counter("verdict.rejected")
    duplicates = runner.metrics.counter("verdict.duplicate")
    attempt_note = (
        f", {record.attempts} attempts" if record.attempts > 1 else ""
    )
    print(
        f"{record.status} after {record.queries} queries "
        f"({elapsed:.1f}s; rejected {rejected}, duplicates {duplicates}"
        f"{attempt_note})"
    )
    if args.metrics:
        print()
        print(render_metrics(runner.metrics.snapshot()))
    if record.status in ("proved", "repaired") and record.revalidated:
        print(f"generated (re-checked): {record.generated_proof}")
        print(f"human proof was:\n{theorem.proof_text}")
        return 0
    return 1


def _cmd_repair(args) -> int:
    """Show a failed search's failure context, then run the repair loop."""
    from repro.eval import ExperimentConfig, Runner
    from repro.eval.tasks import TheoremTask
    from repro.serapi import ProofChecker

    project = load_project(check_proofs=not args.fast)
    theorem = project.theorem(args.name)
    config = ExperimentConfig(
        width=args.width,
        fuel=args.fuel,
        theorem_deadline=args.theorem_deadline,
        pipeline_depth=args.pipeline_depth,
    )
    runner = Runner(project, config)
    base_task = TheoremTask.from_config(
        args.name, args.model, args.hints, config
    )
    base = runner.execute_task(base_task).record
    print(f"initial search: {base.status} after {base.queries} queries")
    if base.status in ("proved", "repaired") and base.revalidated:
        print(f"nothing to repair: {base.generated_proof}")
        return 0
    if base.failure:
        ctx = base.failure
        print(f"failure frontier (depth {ctx['depth']}):")
        for tactic in ctx["prefix"]:
            print(f"    {tactic}.")
        print(f"  rejected: {ctx['failed_tactic']}  [{ctx['verdict']}]")
        print(f"  checker:  {ctx['message']}")
        checker = ProofChecker(project.env_for(theorem))
        state, survived = checker.replay_prefix(
            theorem.statement, ctx["prefix"]
        )
        if len(survived) == len(ctx["prefix"]):
            print("  goal at frontier:")
            for line in state.render().splitlines():
                print(f"    {line}")
    else:
        print("no failure context captured (nothing was ever rejected)")
    record = runner.execute_task(
        replace(base_task, repair_rounds=args.rounds)
    ).record
    print(
        f"repair ({args.rounds} round cap): {record.status}, "
        f"{record.attempts} attempts"
    )
    if record.status == "repaired" and record.revalidated:
        print(f"repaired (re-checked): {record.generated_proof}")
        return 0
    return 1


def _cmd_eval(args) -> int:
    from repro.eval import (
        ExperimentConfig,
        Runner,
        RunStore,
        outcome_row,
        render_metrics,
    )

    backend = args.backend or ("process" if args.jobs > 1 else "serial")
    runner = Runner(
        load_project(check_proofs=not args.fast),
        ExperimentConfig(
            max_theorems=args.n,
            fuel=args.fuel,
            executor=backend,
            jobs=args.jobs,
            theorem_deadline=args.theorem_deadline,
            task_retries=args.task_retries,
            faults=args.faults,
            trace=bool(args.trace),
            repair_rounds=args.repair_rounds,
            pipeline_depth=args.pipeline_depth,
        ),
    )
    if runner.fault_plan is not None:
        print(f"chaos: {runner.fault_plan.describe()}")
    store = RunStore(args.store) if args.store else None
    trace_sink = None
    if args.trace:
        from repro.obs import JsonlSink

        trace_sink = JsonlSink(args.trace)
    for hinted in (False, True):
        row = outcome_row(
            runner.run(
                args.model,
                hinted,
                store=store,
                fresh=args.fresh,
                trace_sink=trace_sink,
            )
        )
        tag = "hints  " if hinted else "vanilla"
        print(
            f"{args.model:20} {tag} proved={row.proved:6.1%} "
            f"stuck={row.stuck:6.1%} fuelout={row.fuelout:6.1%}"
        )
    if args.pass_at_k > 1:
        from repro.eval import coverage_at_k, render_coverage_at_k, sweep_tasks
        from repro.repair.sampling import attempt_tasks

        ks = sorted(
            {1, args.pass_at_k}
            | {2 ** i for i in range(1, 10) if 2 ** i < args.pass_at_k}
        )
        series = {}
        for hinted in (False, True):
            tasks = attempt_tasks(
                sweep_tasks(
                    runner.theorems_for(args.model),
                    args.model,
                    hinted,
                    runner.config,
                ),
                args.pass_at_k,
            )
            records = runner.run_tasks(tasks, store=store, fresh=args.fresh)
            tag = "hints" if hinted else "vanilla"
            series[f"{args.model} {tag}"] = coverage_at_k(records, ks)
        print()
        print(render_coverage_at_k(series))
    cached = runner.metrics.counter("tasks.cached")
    executed = runner.metrics.counter("tasks.executed")
    crashed = runner.metrics.counter("tasks.crashed")
    crash_note = f", {crashed} crashed" if crashed else ""
    print(
        f"[{backend} x{args.jobs}] cells: {executed} searched, "
        f"{cached} served from store{crash_note}"
    )
    if store is not None and store.quarantined:
        print(
            f"warning: {store.quarantined} corrupt store line(s) moved to "
            f"{store.quarantine_path()}"
        )
    if store is not None:
        store.close()
        runner.metrics.dump(store.metrics_path())
        print(f"run store: {store.path} ({len(store)} records); "
              f"metrics: {store.metrics_path()}")
    if trace_sink is not None:
        print(f"trace: {trace_sink.spans_written} spans -> {args.trace}")
    if args.metrics:
        print()
        print(render_metrics(runner.metrics.snapshot()))
    return 0


def _cmd_server(args) -> int:
    from repro.service import (
        ClusterConfig,
        ProverCluster,
        ProverService,
        ServerConfig,
        serve_forever,
    )

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queued=args.max_queued,
        max_batch_size=args.max_batch_size,
        cache_path=args.cache,
        default_deadline=args.deadline,
        fast=args.fast,
        query_overhead=args.query_overhead,
        trace_path=args.trace,
        pipeline_depth=args.pipeline_depth,
    )
    if not args.cluster:
        return serve_forever(ProverService(config))
    if args.trace:
        print(
            "warning: --trace is per-process; cluster workers do "
            "not trace (run a single-process server to trace jobs)"
        )
    return serve_forever(
        ProverCluster(
            ClusterConfig(
                host=args.host,
                port=args.port,
                workers=args.cluster,
                state_dir=args.state_dir,
                journal_path=args.journal,
                worker=replace(config, trace_path=None),
            )
        )
    )


def _cmd_trace(args) -> int:
    from repro.obs import group_traces, load_spans, render_summary, render_trace

    spans = load_spans(args.path)
    if not spans:
        print(f"no spans in {args.path}")
        return 1
    traces = group_traces(spans)
    selected = (
        {t: s for t, s in traces.items() if t.startswith(args.trace_id)}
        if args.trace_id
        else traces
    )
    if not selected:
        known = ", ".join(sorted(traces))
        print(f"no trace matching {args.trace_id!r}; have: {known}")
        return 1
    for trace_id, trace_spans in sorted(selected.items()):
        print(f"trace {trace_id}")
        print(render_trace(trace_spans))
        if args.summary:
            print()
            print(render_summary(trace_spans))
        print()
    return 0


def _cmd_serve(args) -> int:
    from repro.serapi import SerapiServer

    project = load_project(check_proofs=not args.fast)
    server = SerapiServer(project.env)
    print("; repro SerAPI-like server — e.g. (NewDoc \"forall n, n = n\")")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        try:
            for answer in server.handle_text(line):
                print(answer)
        except Exception as exc:  # REPL robustness
            print(f'(Answer 0 (CoqExn "{exc}"))')
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_pipeline_depth(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pipeline-depth",
        type=_positive_int,
        default=1,
        metavar="K",
        help="selected nodes kept in flight per search, whose model "
        "queries are sent together (1 = the serial loop; outcome "
        "records are unaffected)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="trust corpus proofs instead of re-checking them at load",
    )
    parser.add_argument(
        "--no-kernel-cache",
        action="store_true",
        help="disable kernel memo caches (debugging: pristine code paths)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list corpus theorems")
    p_list.add_argument("--category", choices=["Utilities", "CHL", "FileSystem"])
    p_list.set_defaults(fn=_cmd_list)

    p_show = sub.add_parser("show", help="show a theorem and its proof")
    p_show.add_argument("name")
    p_show.set_defaults(fn=_cmd_show)

    p_check = sub.add_parser("check", help="machine-check every corpus proof")
    p_check.set_defaults(fn=_cmd_check)

    p_prove = sub.add_parser("prove", help="search for a proof with a model")
    p_prove.add_argument("name")
    p_prove.add_argument("--model", default="gpt-4o")
    p_prove.add_argument("--hints", action="store_true")
    p_prove.add_argument("--width", type=int, default=8)
    p_prove.add_argument("--fuel", type=int, default=128)
    p_prove.add_argument(
        "--metrics",
        action="store_true",
        help="print per-stage timing and verdict histogram",
    )
    p_prove.add_argument(
        "--theorem-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-theorem wall-clock budget (clean TIMEOUT outcome)",
    )
    p_prove.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the search as a span-tree JSONL (render: repro trace)",
    )
    p_prove.add_argument(
        "--repair-rounds",
        type=int,
        default=0,
        metavar="N",
        help="checker-error feedback rounds after a failed search "
        "(0 disables the repair loop)",
    )
    _add_pipeline_depth(p_prove)
    p_prove.set_defaults(fn=_cmd_prove)

    p_repair = sub.add_parser(
        "repair",
        help="run a search, show its failure context, then repair it",
    )
    p_repair.add_argument("name")
    p_repair.add_argument("--model", default="gpt-4o")
    p_repair.add_argument("--hints", action="store_true")
    p_repair.add_argument("--width", type=int, default=8)
    p_repair.add_argument("--fuel", type=int, default=128)
    p_repair.add_argument(
        "--rounds",
        type=int,
        default=2,
        metavar="N",
        help="repair-round cap (default 2)",
    )
    p_repair.add_argument(
        "--theorem-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shared wall-clock budget across the initial search and "
        "every repair round",
    )
    _add_pipeline_depth(p_repair)
    p_repair.set_defaults(fn=_cmd_repair)

    p_eval = sub.add_parser("eval", help="mini evaluation sweep")
    p_eval.add_argument("--model", default="gpt-4o")
    p_eval.add_argument("--n", type=int, default=12)
    p_eval.add_argument("--fuel", type=int, default=64)
    p_eval.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers (thread/process backends)",
    )
    p_eval.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="execution backend (default: process when --jobs > 1)",
    )
    p_eval.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL run store; completed cells are skipped on rerun",
    )
    p_eval.add_argument(
        "--fresh",
        action="store_true",
        help="re-execute cells even when the run store has them",
    )
    p_eval.add_argument(
        "--metrics",
        action="store_true",
        help="print per-stage timing and verdict histogram",
    )
    p_eval.add_argument(
        "--theorem-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-theorem wall-clock budget (clean TIMEOUT outcome)",
    )
    p_eval.add_argument(
        "--task-retries",
        type=int,
        default=2,
        metavar="N",
        help="isolated re-runs of a task whose worker died, before CRASH",
    )
    p_eval.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="chaos fault-injection spec, e.g. "
        "'seed=7,transient=0.2,ratelimit=0.1' (env: REPRO_FAULTS)",
    )
    p_eval.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record every searched cell as span-tree JSONL "
        "(outcome records are unaffected; render: repro trace)",
    )
    p_eval.add_argument(
        "--repair-rounds",
        type=int,
        default=0,
        metavar="N",
        help="checker-error feedback rounds per failed cell "
        "(0 disables the repair loop)",
    )
    _add_pipeline_depth(p_eval)
    p_eval.add_argument(
        "--pass-at-k",
        type=int,
        default=1,
        metavar="K",
        help="also run K independently-seeded attempts per cell and "
        "report unbiased coverage@k",
    )
    p_eval.set_defaults(fn=_cmd_eval)

    p_server = sub.add_parser(
        "server",
        help="HTTP prover service: concurrent jobs, micro-batched "
        "dispatch, shared proof cache (POST /prove)",
    )
    p_server.add_argument("--host", default="127.0.0.1")
    p_server.add_argument("--port", type=int, default=8421)
    p_server.add_argument(
        "--workers", type=int, default=4, help="concurrent proof searches"
    )
    p_server.add_argument(
        "--max-queued",
        type=int,
        default=32,
        help="admission bound beyond in-flight jobs (429 on overflow)",
    )
    p_server.add_argument(
        "--max-batch-size",
        type=_positive_int,
        default=8,
        help="model queries per dispatched batch (1 disables batching)",
    )
    p_server.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="JSONL proof cache (RunStore format; warm-starts from "
        "prior sweeps and serves repeats without a search)",
    )
    p_server.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock budget (clean TIMEOUT)",
    )
    p_server.add_argument(
        "--query-overhead",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="simulated per-dispatch endpoint latency (benchmarking)",
    )
    p_server.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record every job's search as span-tree JSONL "
        "(render: repro trace)",
    )
    _add_pipeline_depth(p_server)
    p_server.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="serve as a supervised N-process cluster (consistent-hash "
        "router, crash recovery, job journal); --workers then sets "
        "threads per worker process",
    )
    p_server.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="cluster durability root: job journal, router proof "
        "cache, and one proof-cache shard per worker (absent = "
        "in-memory, no crash recovery)",
    )
    p_server.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="cluster job journal path (overrides the --state-dir "
        "default <dir>/journal.jsonl)",
    )
    p_server.set_defaults(fn=_cmd_server)

    p_trace = sub.add_parser(
        "trace",
        help="render a recorded span-tree JSONL as an annotated tree",
    )
    p_trace.add_argument("path", help="JSONL written by --trace")
    p_trace.add_argument(
        "--trace-id",
        default=None,
        metavar="PREFIX",
        help="only render traces whose id starts with PREFIX",
    )
    p_trace.add_argument(
        "--summary",
        action="store_true",
        help="append a per-stage self-time table to each trace",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_serve = sub.add_parser(
        "serve",
        help="SerAPI-like REPL on stdin (machine protocol; for the "
        "HTTP prover service see 'server')",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    if args.no_kernel_cache:
        import os

        from repro.kernel import cache as kernel_cache

        # The env var makes process-pool workers inherit the setting.
        os.environ["REPRO_KERNEL_CACHE"] = "0"
        kernel_cache.configure(False)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
