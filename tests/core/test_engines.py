"""MCTS and Rango-style linear search, as frontier policies of the one
search loop (``SearchConfig.frontier`` = ``"mcts"`` / ``"linear"``)."""

import dataclasses

import pytest

from repro.core import BestFirstSearch, SearchConfig, Status
from repro.errors import GenerationError
from repro.llm import Candidate
from repro.llm.models import SimulatedModel, get_model
from repro.prompting import PromptBuilder
from repro.serapi import ProofChecker
from repro.tactics.script import run_script


class _ScriptedModel:
    name = "scripted"
    context_window = 10**9
    provides_log_probs = True

    def __init__(self, rounds):
        self.rounds = list(rounds)
        self.calls = 0

    def generate(self, prompt, k):
        index = min(self.calls, len(self.rounds) - 1)
        self.calls += 1
        return [
            Candidate(t, -float(i + 1))
            for i, t in enumerate(self.rounds[index][:k])
        ]


def _setup(project, name, model):
    theorem = project.theorem(name)
    env = project.env_for(theorem)
    return (
        theorem,
        env,
        ProofChecker(env),
        PromptBuilder(project, theorem),
    )


def _search(checker, model, kind, **config):
    return BestFirstSearch(
        checker, model, SearchConfig(frontier=kind, **config)
    )


@pytest.mark.parametrize(
    "kind",
    ["mcts", "linear"],
    # Named after the engine classes these policies replaced, so each
    # test keeps its id.
    ids=["MCTSSearch-config0", "LinearSearch-config1"],
)
class TestEngines:
    def test_scripted_proof(self, project, kind):
        model = _ScriptedModel([["intros"], ["reflexivity", "auto"]])
        theorem, env, checker, builder = _setup(project, "plus_0_l", model)
        result = _search(checker, model, kind, fuel=32).prove(
            theorem.name, theorem.statement, builder.build
        )
        assert result.status is Status.PROVED
        run_script(env, theorem.statement, result.proof_text())

    def test_stuck_on_garbage(self, project, kind):
        model = _ScriptedModel([["nonsense", "discriminate"]])
        theorem, env, checker, builder = _setup(project, "plus_0_l", model)
        result = _search(checker, model, kind, fuel=32).prove(
            theorem.name, theorem.statement, builder.build
        )
        assert result.status is Status.STUCK

    def test_fuelout(self, project, kind):
        model = _ScriptedModel([["assert (0 = 0)"]])
        theorem, env, checker, builder = _setup(project, "plus_comm", model)
        result = _search(checker, model, kind, fuel=3).prove(
            theorem.name, theorem.statement, builder.build
        )
        assert result.status is Status.FUELOUT
        assert result.stats.queries == 3

    def test_rejects_wholeproof_model(self, project, kind):
        from repro.llm import WholeProofModel

        with pytest.raises(GenerationError):
            _search(ProofChecker(project.env), WholeProofModel(), kind)

    def test_real_model_deterministic(self, project, kind):
        model = SimulatedModel(
            dataclasses.replace(get_model("gpt-4o").profile, lucidity=1.0)
        )
        theorem, env, checker, builder = _setup(project, "Forall_inv", model)
        search = _search(checker, model, kind, fuel=32)
        r1 = search.prove(theorem.name, theorem.statement, builder.build)
        r2 = search.prove(theorem.name, theorem.statement, builder.build)
        assert r1.status == r2.status
        assert r1.tactics == r2.tactics
        if r1.proved:
            run_script(env, theorem.statement, r1.proof_text())


@pytest.mark.parametrize("kind", ["mcts", "linear"])
def test_one_node_in_flight_at_any_depth(project, kind):
    # Both policies reserve one node at a time, so a deeper
    # pipeline sends the same queries, one per model call.
    model = get_model("gpt-4o")
    batches = []

    class Spy:
        name = model.name
        context_window = model.context_window
        provides_log_probs = True

        def generate(self, prompt, k):
            return model.generate(prompt, k)

        def generate_batch(self, requests):
            batches.append(len(requests))
            return model.generate_batch(requests)

    theorem, _, checker, builder = _setup(project, "Forall_inv", model)

    def run(depth):
        result = _search(
            checker, Spy(), kind, fuel=16, pipeline_depth=depth
        ).prove(theorem.name, theorem.statement, builder.build)
        result.stats.wall_seconds = 0.0
        return result

    assert run(4) == run(1)
    assert batches == []


class TestLinearBacktracking:
    def test_backtracks_to_spare_candidate(self, project):
        # "assert (1 = 1)" validates first, but its node is a dead end
        # ("fail"); backtracking validates the spare "reflexivity" at
        # the earlier step, without a fourth model query.
        model = _ScriptedModel(
            [
                ["intros"],
                ["assert (1 = 1)", "reflexivity"],
                ["fail"],  # dead end after the assert path
            ]
        )
        theorem, env, checker, builder = _setup(project, "plus_0_l", model)
        result = _search(checker, model, "linear", fuel=16).prove(
            theorem.name, theorem.statement, builder.build
        )
        assert result.status is Status.PROVED
        assert result.stats.queries == 3
        run_script(env, theorem.statement, result.proof_text())


class TestMCTSInternals:
    def test_exploration_visits_accumulate(self, project):
        model = _ScriptedModel(
            [["intros"], ["assert (0 = 0)", "assert (1 = 1)"], ["auto"]]
        )
        theorem, env, checker, builder = _setup(project, "plus_comm", model)
        result = _search(checker, model, "mcts", fuel=6).prove(
            theorem.name, theorem.statement, builder.build
        )
        assert result.stats.queries <= 6
        assert result.stats.nodes_expanded >= 2
