"""Ablations of the search design choices (DESIGN.md §8).

* frontier discipline: best-first vs depth-first vs breadth-first;
* search engine: best-first vs MCTS vs Rango-style linear, each a
  frontier policy of the one search loop;
* search width: 1 / 4 / 8;
* duplicate-state pruning on/off.
"""

from __future__ import annotations

import pytest

from repro.corpus.loader import load_project
from repro.eval import ExperimentConfig, Runner, overall_coverage

_N = 10
_FUEL = 48


def _run(project, **overrides):
    config = ExperimentConfig(max_theorems=_N, fuel=_FUEL, **overrides)
    runner = Runner(project, config)
    return runner.run("gpt-4o", hinted=True)


def test_ablation_frontier(benchmark, project):
    def run():
        return {
            kind: overall_coverage(_run(project, frontier=kind).outcomes)
            for kind in ("best-first", "depth-first", "breadth-first")
        }

    coverage = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for kind, value in coverage.items():
        print(f"frontier={kind:14} coverage={value:.1%}")
    assert coverage["best-first"] >= coverage["breadth-first"] - 0.21


def test_ablation_width(benchmark, project):
    def run():
        return {
            width: overall_coverage(_run(project, width=width).outcomes)
            for width in (1, 4, 8)
        }

    coverage = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for width, value in coverage.items():
        print(f"width={width}  coverage={value:.1%}")
    # More candidates per query should never devastate coverage.
    assert coverage[8] >= coverage[1] - 0.11


def test_ablation_dedup(benchmark, project):
    def run():
        return {
            dedup: _run(project, dedup_states=dedup)
            for dedup in (True, False)
        }

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for dedup, sweep in runs.items():
        queries = sum(o.queries for o in sweep.outcomes)
        print(
            f"dedup={str(dedup):5} coverage="
            f"{overall_coverage(sweep.outcomes):.1%} queries={queries}"
        )
    # Pruning duplicates never reduces what gets proved here, and the
    # no-pruning run burns at least as much fuel.
    q_on = sum(o.queries for o in runs[True].outcomes)
    q_off = sum(o.queries for o in runs[False].outcomes)
    assert q_off >= q_on - _FUEL


def test_ablation_engines(benchmark, project):
    """Best-first vs MCTS vs Rango-style linear, equal fuel (paper §5)."""
    import dataclasses

    from repro.core import BestFirstSearch, SearchConfig
    from repro.corpus.splits import make_splits
    from repro.llm.models import SimulatedModel, get_model
    from repro.prompting import PromptBuilder
    from repro.serapi import ProofChecker

    splits = make_splits(project)
    theorems = splits.test[:_N]
    model = SimulatedModel(
        dataclasses.replace(get_model("gpt-4o").profile, lucidity=0.6)
    )

    def run():
        scores = {}
        for name in ("best-first", "mcts", "linear"):
            config = SearchConfig(fuel=_FUEL, frontier=name)
            proved = 0
            for theorem in theorems:
                checker = ProofChecker(project.env_for(theorem))
                builder = PromptBuilder(
                    project,
                    theorem,
                    hint_names=splits.hint_names,
                    window_tokens=model.context_window,
                )
                result = BestFirstSearch(checker, model, config).prove(
                    theorem.name, theorem.statement, builder.build
                )
                proved += result.proved
            scores[name] = proved / len(theorems)
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, value in scores.items():
        print(f"engine={name:12} coverage={value:.1%}")
    # All three disciplines must be functional; the tree searches
    # should not lose badly to greedy linear search.
    assert max(scores.values()) > 0
    assert scores["best-first"] >= scores["linear"] - 0.21


def test_ablation_hint_fraction(benchmark, project):
    """Hint fraction 0 / 25 / 50 / 100 % (DESIGN.md §8)."""
    from repro.eval import ExperimentConfig, Runner, overall_coverage

    def run():
        out = {}
        for fraction in (0.0, 0.25, 0.5, 1.0):
            runner = Runner(
                project,
                ExperimentConfig(
                    max_theorems=_N, fuel=_FUEL, hint_fraction=fraction
                ),
            )
            sweep = runner.run("gpt-4o", hinted=True)
            out[fraction] = overall_coverage(sweep.outcomes)
        return out

    coverage = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for fraction, value in coverage.items():
        print(f"hint fraction={fraction:4.0%}  coverage={value:.1%}")
    # With no hints available the "hinted" run degenerates to vanilla;
    # some positive fraction should do at least as well as zero.
    assert max(coverage.values()) >= coverage[0.0]
