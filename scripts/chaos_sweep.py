"""Seeded chaos sweep: fault-inject a mini evaluation and verify the
fault-tolerance contract end to end.

Runs the gpt-4o-mini mini-sweep three ways —

1. fault-free baseline (serial);
2. transient-only fault plan (serial): every model query may hit
   injected 5xx/429/malformed/truncated failures that resolve within
   the retry budget;
3. worker-kill plan (process backend): one task's worker dies on every
   attempt —

and asserts the two halves of the contract:

* the transient sweep's outcome records are **byte-identical** to the
  baseline's (the resilient layer absorbed all of the chaos);
* the kill sweep completes with exactly the victim recorded as CRASH
  and every other record equal to baseline.

Writes a human-readable outcome table to ``--out`` (CI uploads it as
an artifact) and exits non-zero on any contract violation.

Usage::

    PYTHONPATH=src python scripts/chaos_sweep.py --out chaos_outcomes.txt
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval import ExperimentConfig, Runner, RunStore, sweep_tasks
from repro.eval.executor import ProcessPoolExecutor, SerialExecutor

N_THEOREMS = 6
FUEL = 16
MODEL = "gpt-4o-mini"
TRANSIENT_FAULTS = (
    "seed=7,transient=0.15,ratelimit=0.10,malformed=0.10,truncate=0.05,"
    "max_failures=2"
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="chaos_outcomes.txt",
        metavar="PATH",
        help="where to write the outcome table artifact",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="fault-plan seed (varies which prompts draw faults)",
    )
    return parser.parse_args()


def run_sweep(project, config, store_path, executor):
    runner = Runner(project, config)
    theorems = runner.theorems_for(MODEL)
    tasks = sweep_tasks(theorems, MODEL, False, config)
    with RunStore(store_path) as store:
        records = runner.run_tasks(tasks, executor=executor, store=store)
    return runner, tasks, records


def main() -> int:
    args = parse_args()
    from pathlib import Path
    from tempfile import TemporaryDirectory

    from repro.corpus.loader import load_project

    faults = TRANSIENT_FAULTS.replace("seed=7", f"seed={args.seed}", 1)
    started = time.time()
    project = load_project()
    failures = []
    lines = [
        "chaos sweep — fault-tolerance contract",
        f"model={MODEL} theorems={N_THEOREMS} fuel={FUEL}",
        f"transient plan: {faults}",
        "",
    ]

    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base_cfg = ExperimentConfig(max_theorems=N_THEOREMS, fuel=FUEL)

        print("[1/3] fault-free baseline ...", file=sys.stderr)
        _, tasks, baseline = run_sweep(
            project, base_cfg, tmp / "clean.jsonl", SerialExecutor()
        )

        print("[2/3] transient-only chaos ...", file=sys.stderr)
        chaos_cfg = ExperimentConfig(
            max_theorems=N_THEOREMS, fuel=FUEL, faults=faults
        )
        chaos_runner, _, chaos = run_sweep(
            project, chaos_cfg, tmp / "chaos.jsonl", SerialExecutor()
        )
        retries = chaos_runner.metrics.counter("llm.retries")
        identical = (tmp / "chaos.jsonl").read_bytes() == (
            tmp / "clean.jsonl"
        ).read_bytes()
        if retries == 0:
            failures.append(
                "transient plan injected no faults (retries == 0); "
                "the sweep certified nothing — raise the rates or reseed"
            )
        if not identical:
            failures.append(
                "transient-fault store differs from fault-free store"
            )
        lines.append(
            f"transient sweep: {retries} retries absorbed, "
            f"byte-identical={identical}"
        )

        print("[3/3] permanent worker-kill chaos ...", file=sys.stderr)
        victim = tasks[1].theorem
        kill_cfg = ExperimentConfig(
            max_theorems=N_THEOREMS,
            fuel=FUEL,
            faults=f"kill={victim}",
            task_retries=1,
        )
        kill_runner, _, killed = run_sweep(
            project,
            kill_cfg,
            tmp / "kill.jsonl",
            ProcessPoolExecutor(kill_cfg, jobs=2),
        )
        crashes = {r.theorem for r in killed if r.status == "crash"}
        if crashes != {victim}:
            failures.append(
                f"kill sweep crashed {sorted(crashes)!r}, "
                f"expected exactly {victim!r}"
            )
        for record, clean in zip(killed, baseline):
            if record.theorem != victim and record != clean:
                failures.append(
                    f"bystander {record.theorem} changed outcome "
                    f"({clean.status} -> {record.status})"
                )
        lines.append(
            f"kill sweep: victim={victim} crashes={sorted(crashes)} "
            f"worker_deaths="
            f"{kill_runner.metrics.counter('executor.worker_deaths')}"
        )

        lines.append("")
        header = f"{'theorem':34}{'baseline':>10}{'transient':>11}{'kill':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for base, tr, kl in zip(baseline, chaos, killed):
            lines.append(
                f"{base.theorem:34}{base.status:>10}{tr.status:>11}"
                f"{kl.status:>8}"
            )

    lines.append("")
    verdict = "PASS" if not failures else "FAIL"
    lines.append(
        f"{verdict} in {time.time() - started:.0f}s"
        + (": " + "; ".join(failures) if failures else "")
    )
    report = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(report)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
