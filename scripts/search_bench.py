"""Pipelined-search benchmark: depth 1 vs depth k, with and without
endpoint latency.

Runs the same hinted sweep through the real runner stack at
``pipeline_depth=1`` (the paper's serial loop) and at
``--pipeline-depth`` (default 4), against a
:class:`repro.testing.latency.LatencyGenerator` endpoint model, in two
regimes:

* **latency** — every model dispatch charges ``--query-overhead``
  seconds through a serialized gate (a real API's requests-per-minute
  limit), and a batched dispatch charges it **once for the whole
  batch**.  That is the cost the pipeline exploits: the queries of up
  to k in-flight nodes go to the model in one call, so they share one
  round-trip.
* **zero latency** — the same sweep with no dispatch cost, so only the
  work the pipeline itself adds shows.  The two depths alternate five
  times and each keeps its fastest run, since the host's speed drifts
  by more than the difference being measured.

Emits ``BENCH_search.json``: per-phase wall clock and CPU time, query
and round-trip counts, per-theorem coverage — plus the differential the
determinism contract demands: pipelined coverage (which cells prove,
revalidated) must equal depth-1 coverage exactly.  ``--check`` exits
non-zero unless, at identical coverage, depth k beats depth 1 by
``--min-speedup`` in wall clock under latency and runs at no less than
0.95x depth 1's speed at zero latency.

Usage::

    PYTHONPATH=src python scripts/search_bench.py --out BENCH_search.json --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.corpus.loader import load_project
from repro.eval import ExperimentConfig, Runner
from repro.eval.tasks import TheoremTask
from repro.llm import get_model
from repro.testing.latency import LatencyGenerator

#: Depth k may be at most 5% slower than depth 1 at zero latency.
ZERO_LATENCY_FLOOR = 0.95
#: Runs per phase at zero latency (the fastest counts).
ZERO_LATENCY_REPEATS = 5


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="gpt-4o")
    parser.add_argument(
        "--n", type=int, default=8, help="theorems in the sweep"
    )
    parser.add_argument("--fuel", type=int, default=24)
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=4,
        help="nodes in flight in the pipelined phase",
    )
    parser.add_argument(
        "--query-overhead",
        type=float,
        default=0.08,
        metavar="SECONDS",
        help="simulated per-dispatch endpoint cost (serialized) in the "
        "latency regime",
    )
    parser.add_argument("--out", default="BENCH_search.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless pipelined >= --min-speedup x depth 1 "
        "wall clock under latency, and >= 0.95x at zero latency, at "
        "identical coverage",
    )
    parser.add_argument("--min-speedup", type=float, default=1.3)
    return parser.parse_args()


def pick_theorems(project, count: int):
    """The hardest slice: longest human proofs first.

    Pipelining pays off in searches that actually burn fuel; a sweep
    of instantly-proving lemmas is all startup ramp (a single frontier
    node gives the fill phase nothing to overlap).  The long-proof
    theorems mostly run to FUELOUT, exercising the steady state where
    every fill keeps ``pipeline_depth`` nodes in flight.
    """
    ranked = sorted(
        project.theorems,
        key=lambda t: (-t.proof_tokens, t.name),
    )
    return ranked[:count]


def run_phase(project, theorems, args, depth: int, overhead: float) -> dict:
    """One sweep through the production stack at one pipeline depth."""
    runner = Runner(
        project,
        ExperimentConfig(fuel=args.fuel, pipeline_depth=depth),
    )
    endpoint = LatencyGenerator(get_model(args.model), overhead)
    records = []
    wall0, cpu0 = time.monotonic(), time.process_time()
    for theorem in theorems:
        task = TheoremTask.from_config(
            theorem.name, args.model, True, runner.config
        )
        records.append(
            runner.execute_task(task, model_override=endpoint).record
        )
    wall = time.monotonic() - wall0
    cpu = time.process_time() - cpu0
    queries = sum(r.queries for r in records)
    return {
        "pipeline_depth": depth,
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "queries": queries,
        "round_trips": endpoint.round_trips,
        "queries_per_round_trip": (
            queries / endpoint.round_trips if endpoint.round_trips else 0.0
        ),
        "proved": sum(
            r.status == "proved" and r.revalidated for r in records
        ),
        "coverage": {r.theorem: [r.status, r.revalidated] for r in records},
    }


def run_regime(project, theorems, args, overhead: float, repeats: int):
    """Depth 1 and depth k, alternating; each keeps its fastest run.

    Alternating spreads the interpreter's warm-up and any drift in host
    speed over both depths.
    """
    depths = {"serial": 1, "pipelined": args.pipeline_depth}
    runs = {label: [] for label in depths}
    for _ in range(repeats):
        for label, depth in depths.items():
            print(
                f"  {label} (pipeline_depth={depth}, overhead={overhead}s)",
                file=sys.stderr,
            )
            runs[label].append(
                run_phase(project, theorems, args, depth, overhead)
            )
    serial, piped = (
        min(runs[label], key=lambda run: run["wall_seconds"])
        for label in depths
    )
    return {
        "query_overhead": overhead,
        "serial": serial,
        "pipelined": piped,
        "speedup": (
            serial["wall_seconds"] / piped["wall_seconds"]
            if piped["wall_seconds"] > 0
            else 0.0
        ),
        "coverage_identical": serial["coverage"] == piped["coverage"],
    }


def report(name: str, regime: dict) -> None:
    for label in ("serial", "pipelined"):
        phase = regime[label]
        print(
            f"{name} {label:9} {phase['wall_seconds']:.2f}s wall, "
            f"{phase['cpu_seconds']:.2f}s CPU "
            f"({phase['queries']} queries, {phase['round_trips']} "
            f"round-trips, {phase['queries_per_round_trip']:.2f} "
            "queries/trip)"
        )
    print(
        f"{name} speedup: {regime['speedup']:.2f}x; coverage identical: "
        f"{regime['coverage_identical']}"
    )


def main() -> int:
    args = parse_args()
    project = load_project(check_proofs=False)
    theorems = pick_theorems(project, args.n)

    print(
        f"search bench: {len(theorems)} hinted theorems, "
        f"model={args.model}, fuel={args.fuel}, "
        f"depth 1 vs {args.pipeline_depth}",
        file=sys.stderr,
    )
    print("[1/2] latency regime", file=sys.stderr)
    latency = run_regime(project, theorems, args, args.query_overhead, 1)
    print("[2/2] zero-latency regime", file=sys.stderr)
    zero = run_regime(project, theorems, args, 0.0, ZERO_LATENCY_REPEATS)
    result = {
        "config": {
            "model": args.model,
            "theorems": [t.name for t in theorems],
            "fuel": args.fuel,
            "pipeline_depth": args.pipeline_depth,
            "query_overhead": args.query_overhead,
        },
        "latency": latency,
        "zero_latency": zero,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    report("latency", latency)
    report("zero-latency", zero)

    failures = []
    for name, regime in (("latency", latency), ("zero-latency", zero)):
        if not regime["coverage_identical"]:
            failures.append(f"{name}: pipelined coverage differs from depth 1")
    if args.check and latency["speedup"] < args.min_speedup:
        failures.append(
            f"latency speedup {latency['speedup']:.2f}x below the "
            f"{args.min_speedup}x gate"
        )
    if args.check and zero["speedup"] < ZERO_LATENCY_FLOOR:
        failures.append(
            f"zero-latency speedup {zero['speedup']:.2f}x below the "
            f"{ZERO_LATENCY_FLOOR}x floor"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
