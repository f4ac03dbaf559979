"""The repository benchmark: one workload per run, correct outputs enforced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cpu --seed 1 --seconds 15 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs the same ops three times — untraced, with the
per-layer wrappers of ``probe.py``, untraced again — and reports the
per-layer metrics of the traced pass plus its overhead over the last.
Every run compares each op's outcome record with
``perfbench/expected/<workload>.jsonl`` and exits non-zero on a
mismatch or on any error (crash record, failed job, 429/503, client
timeout).  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

try:
    from repro.corpus.loader import load_project
    from repro.kernel import cache as kernel_cache

    import probe
    from workloads import WORKLOADS, record_failure
except ImportError as exc:  # the program is not in this directory
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    raise SystemExit(2)

#: In-process setup plus this many fresh-process setups give setup_s.
SETUP_REPEATS = 3

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("proved_frac", "ratio"),
    ("error_rate", "ratio"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one fresh-process setup and print it (setup_s).
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_expected(name: str) -> dict:
    path = BENCH_DIR / "expected" / f"{name}.jsonl"
    expected = {}
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            expected[entry["key"]] = entry["record"]
    return expected


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_count(samples: int) -> int:
    """How many of the slowest ops ``op_tail_s`` averages: a tenth of
    them, at least 10 (all of them below 10)."""
    return min(samples, max(10, samples // 10))


def tail_mean(values) -> float:
    """Mean of the ``tail_count`` largest ``values``.

    A single high percentile rests on the one or two ops at its rank,
    and on a shared host those moved by 30-80% between runs of the same
    work; the mean of the slowest tenth moves with the host like the
    other time metrics.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return statistics.fmean(ordered[-tail_count(len(ordered)):])


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------


def setup_only(workload, workdir: Path) -> float:
    """Load + boot + close once; returns load + boot seconds."""
    started = time.perf_counter()
    state = workload.boot(
        load_project(check_proofs=workload.check_proofs), workdir
    )
    ready = time.perf_counter()
    workload.close(state)
    return ready - started


def fresh_setups(name: str, count: int) -> list:
    """``count`` setups, each in a fresh interpreter (the in-process one
    is not repeatable: a second corpus load in one process is warmer and
    shifts fresh-variable numbering)."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--setup-only"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])[
            "setup_s"])
    return times


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------


def check_pass(workload, ops, result, expected) -> list:
    """Mismatches and errors of one pass, one string each."""
    problems = list(result.errors)
    keys = result.extra.get("keys") or [op.key for op in ops]
    for key, record in zip(keys, result.records):
        if record is None:
            continue  # already counted in result.errors
        failure = record_failure(record)
        if failure:
            problems.append(f"{key[:12]}: {failure}")
            continue
        want = expected.get(key)
        if want is None:
            problems.append(f"{key[:12]}: no expected record")
        elif workload.full_records:
            if json.dumps(record, sort_keys=True) != json.dumps(
                want, sort_keys=True
            ):
                problems.append(f"{record['theorem']}: record differs")
        elif (record["status"], record["revalidated"]) != (
            want["status"], want["revalidated"]
        ):
            problems.append(
                f"{record['theorem']}: {record['status']}/"
                f"{record['revalidated']} != {want['status']}/"
                f"{want['revalidated']}"
            )
    return problems


def proved(record) -> bool:
    return (
        record is not None
        and record.get("status") in ("proved", "repaired")
        and bool(record.get("revalidated"))
    )


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_only(workload, workdir)}))
            return 0
        return measure_workload(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no concurrent run uses it
        except OSError:
            pass


def measure_workload(workload, args, workdir: Path) -> int:
    expected = load_expected(workload.name)

    # Setup 1 of SETUP_REPEATS: the instance that is measured.
    started = time.perf_counter()
    project = load_project(check_proofs=workload.check_proofs)
    load_s = time.perf_counter() - started
    ops = workload.plan(project, expected, args.seed, args.seconds)
    booted = time.perf_counter()
    state = workload.boot(project, workdir / "pass-0")
    boot_s = time.perf_counter() - booted

    untraced = workload.measure(state, ops)
    closing = workload.close(state)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = [(untraced, closing)]

    if args.trace:
        recorder = probe.SpanRecorder()
        dump_dir = workdir / "dumps"
        dump_dir.mkdir()
        with probe.Probe(recorder, worker_dump_dir=dump_dir):
            state = workload.boot(project, workdir / "pass-1")
            cache_before = kernel_cache.cache_stats()
            traced = workload.measure(state, ops, recorder)
            cache_delta = kernel_cache.stats_delta(cache_before)
            sources = dict(traced.extra)
            sources.update(workload.layer_sources(state))
            sources.update(workload.close(state))
        passes.append((traced, sources))
        # The traced pass runs warm (second in the process), so the
        # overhead is measured against a third, warm, untraced pass.
        state = workload.boot(project, workdir / "pass-2")
        baseline = workload.measure(state, ops)
        passes.append((baseline, workload.close(state)))
        for name, cell in probe.merge_worker_dumps(recorder, dump_dir).items():
            total = cache_delta.setdefault(name, {"hits": 0, "misses": 0})
            total["hits"] += cell["hits"]
            total["misses"] += cell["misses"]
        metrics = probe.layer_metrics(
            recorder,
            ops=len(ops),
            traced_wall_s=traced.wall_s,
            untraced_wall_s=baseline.wall_s,
            load_s=load_s,
            kernel_cache=cache_delta,
            sources=sources,
        )
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        print_layers(workload.name, recorder, traced.wall_s)
    else:
        setups = [load_s + boot_s] + fresh_setups(
            workload.name, SETUP_REPEATS - 1
        )
        metrics = end_to_end(
            untraced, closing, rss_mb, statistics.median(setups)
        )
        units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
        print_end_to_end(workload.name, metrics, untraced, closing, rss_mb,
                         setups)
        lags = untraced.extra.get("lags")
        if lags and percentile(lags, 90) > 0.05:
            print(f"WARNING: load generator fell behind its schedule "
                  f"(lag p90 {percentile(lags, 90):.3f}s)")

    problems, attempted = [], 0
    for result, closed in passes:
        problems += check_pass(workload, ops, result, expected)
        attempted += result.attempted
        if closed.get("worker_restarts"):
            problems.append(
                f"{closed['worker_restarts']} cluster worker restart(s)"
            )
    for problem in problems[:20]:
        print(f"MISMATCH/ERROR: {problem}", file=sys.stderr)
    failed = len(problems)
    reported = {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()
        if name in units
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


def end_to_end(result, closing, rss_mb, setup_s) -> dict:
    completed = len(result.latencies)
    cpu_s = result.cpu_s + closing.get("worker_cpu_s", 0.0)
    failed_ops = len(result.errors) + sum(
        1 for r in result.records if r is not None and record_failure(r)
    )
    return {
        "setup_s": setup_s,
        "ops_per_s": completed / result.wall_s if result.wall_s else 0.0,
        "op_p50_s": percentile(result.latencies, 50),
        "op_tail_s": tail_mean(result.latencies),
        "cpu_ms_per_op": 1000.0 * cpu_s / max(1, completed),
        "peak_rss_mb": max(rss_mb, closing.get("worker_rss_mb", 0.0)),
        "proved_frac": sum(proved(r) for r in result.records)
        / max(1, result.attempted),
        "error_rate": failed_ops / max(1, result.attempted),
    }


def print_end_to_end(name, metrics, result, closing, rss_mb, setups) -> None:
    completed = len(result.latencies)
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{completed} ops in {result.wall_s:.2f}s",
        "op_tail_s": (f"mean of the slowest {tail_count(completed)} of "
                      f"{completed} ops"),
        "cpu_ms_per_op": (
            f"incl. {closing['worker_cpu_s']:.2f}s of reaped workers"
            if "worker_cpu_s" in closing else ""
        ),
        "peak_rss_mb": (
            f"router {rss_mb:.1f}, largest worker "
            f"{closing['worker_rss_mb']:.1f}"
            if "worker_rss_mb" in closing else ""
        ),
    }
    print(f"== {name}: end-to-end ==")
    for metric, unit in END_TO_END:
        print(f"{metric:<16} {metrics[metric]:>12.4f} {unit:<6} "
              f"{notes.get(metric, '')}")


def print_layers(name, recorder, traced_wall_s) -> None:
    print(f"== {name}: self time by span (traced wall "
          f"{traced_wall_s:.2f}s) ==")
    rows = sorted(recorder.rows.items(), key=lambda kv: -kv[1]["self"])
    for span, row in rows:
        print(f"{span:<22} {int(row['calls']):>9} calls "
              f"{row['total']:>9.3f}s total {row['self']:>9.3f}s self "
              f"{row['self'] / traced_wall_s if traced_wall_s else 0:>7.1%}")


# ----------------------------------------------------------------------
# All workloads
# ----------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in turn (each in its own process), one table."""
    status = 0
    for name in sorted(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
