"""MCTS and linear search replay committed search-level records.

``policy_records.jsonl`` holds one sorted-key JSON line per cell: the
84 gpt-4o test theorems (``Runner.theorems_for("gpt-4o")``) x
{vanilla, hinted} x {``mcts``, ``linear``} at fuel 32, searched with
``get_model("gpt-4o")`` and the runner's prompt builder.  A line keeps
the status, the tactics, every ``SearchStats`` counter but
``wall_seconds``, and the failure context.  The lines were first
written by the private MCTS and linear loops these two frontier
policies replaced; the one search loop must reproduce them byte for
byte, at every pipeline depth.

The records depend on the project's load mode (a trusted load earlier
in the same process moves the type-variable counter), so they are
replayed against the checked load of the ``project`` fixture, as the
golden stores are.  Regenerate them, only when search behaviour
changes on purpose, in a fresh process:

    PYTHONPATH=src python -m tests.core.test_policy_records
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.core import BestFirstSearch, SearchConfig
from repro.eval import ExperimentConfig, Runner
from repro.llm.models import get_model
from repro.prompting import PromptBuilder
from repro.serapi import ProofChecker

RECORDS = Path(__file__).with_name("policy_records.jsonl")
FUEL = 32
KINDS = ("mcts", "linear")
COUNTERS = (
    "queries",
    "nodes_created",
    "nodes_expanded",
    "candidates",
    "rejected",
    "duplicates",
    "timeouts",
)


def records(project, kind: str, pipeline_depth: int = 1) -> List[str]:
    """One JSON line per (hinted, theorem) cell of ``kind``, in order."""
    runner = Runner(project, ExperimentConfig(fuel=FUEL))
    model = get_model("gpt-4o")
    config = SearchConfig(
        fuel=FUEL, frontier=kind, pipeline_depth=pipeline_depth
    )
    lines = []
    for hinted in (False, True):
        for theorem in runner.theorems_for("gpt-4o"):
            checker = ProofChecker(project.env_for(theorem))
            builder = PromptBuilder(
                project,
                theorem,
                hint_names=runner.splits.hint_names if hinted else None,
                window_tokens=model.context_window,
            )
            result = BestFirstSearch(checker, model, config).prove(
                theorem.name, theorem.statement, builder.build
            )
            record = {
                "frontier": kind,
                "theorem": theorem.name,
                "hinted": hinted,
                "status": result.status.value,
                "tactics": result.tactics,
                "failure": (
                    result.failure.to_json()
                    if result.failure is not None
                    else None
                ),
            }
            for name in COUNTERS:
                record[name] = getattr(result.stats, name)
            lines.append(json.dumps(record, sort_keys=True))
    return lines


def _committed(kind: str) -> List[str]:
    return [
        line
        for line in RECORDS.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["frontier"] == kind
    ]


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_policy_replays_committed_records(project, kind, depth):
    expected = _committed(kind)
    assert len(expected) == 168
    assert records(project, kind, depth) == expected


if __name__ == "__main__":  # regenerate the committed records
    from repro.corpus.loader import load_project

    _project = load_project()
    RECORDS.write_text(
        "".join(
            line + "\n" for kind in KINDS for line in records(_project, kind)
        ),
        encoding="utf-8",
    )
    print(f"regenerated {RECORDS}")
