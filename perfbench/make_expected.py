"""Regenerate ``perfbench/expected/<workload>.jsonl``.

Runs every cell of a workload's universe once through
``Runner.execute_task`` — serial, no endpoint latency, pipeline depth 0
— in a fresh process whose first and only corpus load uses the
workload's load mode (checked for the sweeps, trusted for the service
and cluster), and writes one ``{"key", "record"}`` line per cell.  Run
it only at a commit whose outcomes are known good; the benchmark then
holds every later commit to these records.

Usage::

    python3 perfbench/make_expected.py --workload sweep-cpu
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.corpus.loader import load_project  # noqa: E402
from repro.eval import ExperimentConfig, Runner  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    project = load_project(check_proofs=workload.check_proofs)
    runner = Runner(project, ExperimentConfig())
    lines = {}
    for op in workload.universe(project):
        task = op.task or workload.goal_task(project, op.body)
        key = task.cache_key()
        if key not in lines:
            record = runner.execute_task(task).record
            lines[key] = json.dumps(
                {"key": key, "record": record.to_json()}, sort_keys=True
            )
    path = BENCH_DIR / "expected" / f"{workload.name}.jsonl"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines.values()),
                    encoding="utf-8")
    print(f"{path}: {len(lines)} records")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
