"""The simulated models: determinism, prompt-boundedness, profiles."""

import math

import pytest

from repro.corpus.splits import make_splits
from repro.errors import GenerationError
from repro.kernel.cache import BoundedCache
from repro.kernel.goals import initial_state
from repro.llm import PROFILES, WholeProofModel, available_models, get_model
from repro.llm import promptview
from repro.llm.promptview import parse_prompt
from repro.llm.sampling import corrupt, stable_seed
from repro.prompting import PromptBuilder


@pytest.fixture(scope="module")
def prompt_for(project):
    def _prompt(name, hinted=False, window=None):
        theorem = project.theorem(name)
        hints = (
            make_splits(project).hint_names | {"app_nil_r"} if hinted else None
        )
        builder = PromptBuilder(
            project, theorem, hint_names=hints, window_tokens=window
        )
        state = initial_state(project.env_for(theorem), theorem.statement)
        return builder.build(state, [])

    return _prompt


class TestGeneration:
    def test_deterministic(self, prompt_for):
        model = get_model("gpt-4o")
        prompt = prompt_for("rev_involutive")
        first = model.generate(prompt, 8)
        second = model.generate(prompt, 8)
        assert first == second

    def test_k_respected(self, prompt_for):
        model = get_model("gpt-4o")
        candidates = model.generate(prompt_for("rev_involutive"), 4)
        assert 1 <= len(candidates) <= 4

    def test_log_probs_normalized(self, prompt_for):
        model = get_model("gpt-4o")
        candidates = model.generate(prompt_for("rev_involutive"), 8)
        total = sum(math.exp(c.log_prob) for c in candidates)
        assert total <= 1.0 + 1e-6
        assert all(
            a.log_prob >= b.log_prob
            for a, b in zip(candidates, candidates[1:])
        )

    def test_models_differ(self, prompt_for):
        prompt = prompt_for("rev_involutive")
        strong = get_model("gpt-4o").generate(prompt, 8)
        weak = get_model("gpt-4o-mini").generate(prompt, 8)
        assert strong != weak

    def test_unknown_model(self):
        with pytest.raises(GenerationError):
            get_model("gpt-17")

    def test_available_models_match_profiles(self):
        assert set(available_models()) == set(PROFILES)

    def test_k_zero_rejected(self, prompt_for):
        with pytest.raises(GenerationError):
            get_model("gpt-4o").generate(prompt_for("rev_involutive"), 0)


class TestPromptBoundedness:
    def test_hints_change_candidates(self, prompt_for):
        model = get_model("gpt-4o")
        vanilla = model.generate(prompt_for("rev_involutive"), 8)
        hinted = model.generate(prompt_for("rev_involutive", hinted=True), 8)
        assert vanilla != hinted

    def test_truncation_changes_view(self, prompt_for):
        full = parse_prompt(prompt_for("sb_ok_used_bound"))
        narrow = parse_prompt(prompt_for("sb_ok_used_bound", window=1500))
        assert len(narrow.lemmas) < len(full.lemmas)
        # The goal display is always preserved by keep-the-end truncation.
        assert narrow.goal_text


class TestPromptView:
    def test_parses_goal_and_hyps(self, project):
        theorem = project.theorem("Forall_inv")
        env = project.env_for(theorem)
        builder = PromptBuilder(project, theorem)
        state = initial_state(env, theorem.statement)
        from repro.serapi import ProofChecker

        checker = ProofChecker(env)
        state = checker.check(state, "intros").state
        view = parse_prompt(builder.build(state, ["intros"]))
        assert view.steps == ["intros"]
        hyp_names = [h.name for h in view.hyps]
        assert "H" in hyp_names
        assert view.goal_text

    def test_inductive_preds_found(self, prompt_for):
        view = parse_prompt(prompt_for("Forall_inv"))
        assert "Forall" in view.inductive_preds
        assert "le" in view.inductive_preds

    def test_lemma_statements_without_proofs_in_vanilla(self, prompt_for):
        view = parse_prompt(prompt_for("rev_involutive"))
        assert view.lemmas  # statements visible
        assert not view.hinted_lemmas()  # but no proofs

    def test_hint_proofs_visible(self, prompt_for):
        view = parse_prompt(prompt_for("rev_involutive", hinted=True))
        assert view.hinted_lemmas()

    def test_context_cache_compares_the_text(self):
        class Colliding(str):
            def __hash__(self):
                return 7

        first = Colliding("Lemma foo : 0 = 0.\n")
        second = Colliding("Lemma bar : 1 = 1.\n")
        assert hash(first) == hash(second)
        assert set(promptview._parse_context(first)[0]) == {"foo"}
        assert set(promptview._parse_context(second)[0]) == {"bar"}

    def test_context_cache_is_bounded(self):
        for i in range(100):
            promptview._parse_context(f"Lemma l{i} : {i} = {i}.\n")
        assert len(promptview._CONTEXTS.data) <= 64

    def test_vanilla_view_gets_no_hint_proof(self, prompt_for, monkeypatch):
        """A view showing a proof is never the proof-less view."""
        for name in ("_CONTEXTS", "_PARAGRAPHS", "_VIEWS"):
            memo = getattr(promptview, name)
            monkeypatch.setattr(
                promptview,
                name,
                BoundedCache(memo.name, memo.capacity, register=False),
            )
        hinted = parse_prompt(prompt_for("rev_involutive", hinted=True))
        vanilla = parse_prompt(prompt_for("rev_involutive"))
        shared = [
            lemma for lemma in hinted.hinted_lemmas()
            if lemma.name in vanilla.lemmas
        ]
        assert shared
        for lemma in shared:
            mirror = vanilla.lemmas[lemma.name]
            assert mirror.statement == lemma.statement
            assert mirror.conclusion == lemma.conclusion
            assert mirror.proof is None


class TestSampling:
    def test_stable_seed_stable(self):
        assert stable_seed("a", "b") == stable_seed("a", "b")
        assert stable_seed("a", "b") != stable_seed("a", "c")

    def test_corrupt_changes_text(self):
        import random

        rng = random.Random(1)
        changed = 0
        for _ in range(20):
            if corrupt("apply app_nil_l", rng) != "apply app_nil_l":
                changed += 1
        assert changed > 10


class TestWholeProof:
    def test_no_log_probs_flag(self):
        assert WholeProofModel().provides_log_probs is False

    def test_search_refuses_wholeproof_model(self, project):
        from repro.core import BestFirstSearch
        from repro.serapi import ProofChecker

        with pytest.raises(GenerationError):
            BestFirstSearch(
                ProofChecker(project.env), WholeProofModel()
            )

    def test_generates_scripts(self, prompt_for):
        scripts = WholeProofModel().generate(
            prompt_for("rev_involutive"), 4
        )
        assert len(scripts) == 4
        assert all(s.endswith(".") for s in scripts)
