"""The simulated off-the-shelf models.

:class:`SimulatedModel` composes the prompt reader, the structural
proposer, the retrieval/hint proposers, and the profile-driven
sampler into one :class:`~repro.llm.interface.TacticGenerator`.

No network, no weights: this is the reproduction's substitute for the
GPT-4o / Gemini APIs (DESIGN.md §2).  The substitution preserves the
causal structure the paper studies — candidates depend only on the
(truncated) prompt text, degrade with weaker profiles, and improve
when hint proofs appear in context.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.errors import GenerationError
from repro.llm.heuristics import Proposal, propose
from repro.llm.interface import Candidate, GenerationRequest, TacticGenerator
from repro.llm.profiles import PROFILES, ModelProfile
from repro.llm.promptview import parse_prompt
from repro.llm.retrieval import hint_head_priors, hint_proposals, retrieve
from repro.llm.sampling import rank_and_sample, stable_seed

__all__ = ["SimulatedModel", "get_model", "available_models"]


class SimulatedModel:
    """A deterministic, prompt-driven tactic predictor."""

    provides_log_probs = True

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self.name = profile.name
        self.context_window = profile.context_window

    def generate(self, prompt: str, k: int) -> List[Candidate]:
        if k <= 0:
            raise GenerationError("k must be positive")
        view = parse_prompt(prompt)
        if not view.goal_text:
            # Proof display says no goals; a model would emit Qed-ish noise.
            return [Candidate("auto", -1.0)]
        rng = random.Random(stable_seed(self.name, prompt))

        # Goal understanding is probabilistic: a non-lucid step produces
        # generic babble, most of which the checker rejects.  Hints in
        # context anchor the model and raise effective lucidity — the
        # mechanism behind the paper's hint-setting gains.
        lucidity = self.profile.lucidity
        if view.hinted_lemmas():
            lucidity = min(1.0, lucidity * self.profile.hint_lucidity_boost)
        if rng.random() >= lucidity:
            candidates = self._babble(view, rng, k)
        else:
            proposals: List[Proposal] = []
            proposals.extend(propose(view))
            proposals.extend(retrieve(view, self.profile.retrieval_strength))
            proposals.extend(
                hint_proposals(view, self.profile.retrieval_strength)
            )
            priors = hint_head_priors(view)
            candidates = rank_and_sample(
                proposals, priors, self.profile, k, rng
            )
        if view.failed_tactics:
            # Repair feedback: an attentive model does not re-propose a
            # tactic the prompt says the checker already refused here.
            refused = set(view.failed_tactics)
            candidates = [c for c in candidates if c.tactic not in refused]
        return candidates

    def generate_batch(
        self, requests: Sequence[GenerationRequest]
    ) -> List[List[Candidate]]:
        """Batched generation (the service layer's micro-batch target).

        Each element is produced by the *same* pure function of
        (model name, prompt, k) as a solo :meth:`generate` call — the
        RNG reseeds from ``stable_seed(self.name, prompt)`` per
        element, so batch composition and ordering cannot leak between
        elements.  ``tests/llm/test_batch_generate.py`` pins batched ==
        solo element-wise for every profile.

        A real API-backed model would send one HTTP request here and
        amortize the round-trip; the simulated model has no wire cost,
        so the amortization is modelled by
        :class:`repro.testing.latency.LatencyGenerator` in benchmarks.
        """
        return [self.generate(prompt, k) for prompt, k in requests]

    def _babble(self, view, rng: random.Random, k: int) -> List[Candidate]:
        """Generic guesses from a model that misread the goal.

        With hint proofs visible, a weak model parrots their steps —
        syntactically valid tactics even when misapplied, which is the
        cheap mechanism by which hints still help weak models (paper
        Table 2: every model gains from hints)."""
        from repro.llm.sampling import corrupt

        hint_steps: List[str] = []
        for lemma in view.hinted_lemmas()[:12]:
            hint_steps.extend(lemma.steps)

        lemma_names = list(view.lemmas) or ["lemma"]
        hyp_names = [h.name for h in view.hyps if not h.is_var] or ["H"]
        var_names = [h.name for h in view.hyps if h.is_var] or ["n"]
        pool = [
            f"apply {rng.choice(lemma_names)}",
            f"rewrite {rng.choice(lemma_names)}",
            f"eapply {rng.choice(lemma_names)}",
            f"apply {rng.choice(lemma_names)} in {rng.choice(hyp_names)}",
            f"destruct {rng.choice(hyp_names)}",
            f"induction {rng.choice(var_names)}",
            f"rewrite {rng.choice(hyp_names)}",
            f"unfold {rng.choice(lemma_names)}",
            "intros",
            "simpl",
        ]
        rng.shuffle(pool)
        out: List[Candidate] = []
        total = min(k, len(pool))
        for i in range(total):
            if hint_steps and rng.random() < 0.5:
                # Parrot a visible hint-proof step verbatim.
                out.append(
                    Candidate(rng.choice(hint_steps), -1.5 - 0.5 * i)
                )
                continue
            tactic = pool[i]
            # Babble is noisy even about names it did retrieve.
            if rng.random() < 0.8:
                tactic = corrupt(tactic, rng)
            out.append(Candidate(tactic, -1.5 - 0.5 * i))
        return out


_CACHE: Dict[str, SimulatedModel] = {}


def get_model(name: str) -> SimulatedModel:
    profile = PROFILES.get(name)
    if profile is None:
        raise GenerationError(
            f"unknown model {name!r}; available: {sorted(PROFILES)}"
        )
    if name not in _CACHE:
        _CACHE[name] = SimulatedModel(profile)
    return _CACHE[name]


def available_models() -> List[str]:
    return sorted(PROFILES)
