"""Retrieval-based proposals (the model's "memory of the context").

Two mechanisms, both operating purely on the prompt text:

* **lemma retrieval** — statements visible in the context whose
  conclusions resemble the current goal become ``apply``/``rewrite``
  candidates.  This is how context selection affects coverage: a
  truncated window that dropped the relevant lemma cannot propose it.

* **hint mimicry** — in the hint setting, human proofs of similar
  theorems are visible.  The model replays their opening tactics and
  the step aligned with the current proof depth, and absorbs their
  tactic-head statistics as priors.  This is the mechanism behind the
  paper's finding that hints substantially improve coverage.
"""

from __future__ import annotations

from typing import Dict, List

from repro.llm.heuristics import Proposal, _add
from repro.llm.promptview import PromptView, head_priors, signature_tokens

__all__ = ["retrieve", "hint_proposals", "hint_head_priors"]


def _similarity(a, b) -> float:
    if not a or not b:
        return 0.0
    inter = len(a & b)
    union = len(a | b)
    return inter / union


def retrieve(view: PromptView, strength: float) -> List[Proposal]:
    """Lemma-application proposals from context statements."""
    out: List[Proposal] = []
    goal_tokens = signature_tokens(view.goal_text)
    if not goal_tokens:
        return out
    scored = []
    for lemma in view.lemmas.values():
        concl_tokens = lemma.signature.conclusion
        sim = _similarity(goal_tokens, concl_tokens)
        # Equations whose left-hand constants all occur in the goal are
        # prime rewrite candidates even when overall overlap is small
        # (e.g. ``map_app`` against a goal full of ``map`` chains).
        if lemma.is_equation:
            lhs_tokens = lemma.signature.lhs
            if lhs_tokens and lhs_tokens <= goal_tokens:
                sim += 0.35
            elif lhs_tokens & goal_tokens:
                sim += 0.10
        if sim > 0.0:
            scored.append((sim, lemma))
    scored.sort(key=lambda pair: (-pair[0], pair[1].name))
    # Forward use against a matching hypothesis.  The check reads the
    # ``concl_tokens`` the scoring loop left behind, those of the
    # context's last lemma, so every proposed lemma gets the same
    # hypothesis (pinned in tests/llm/test_reader_quirks.py).
    forward = None
    if scored:
        for hyp in view.hyps:
            if hyp.is_var:
                continue
            if _similarity(signature_tokens(hyp.text), concl_tokens) > 0.4:
                forward = hyp.name
                break
    for sim, lemma in scored[:20]:
        base = strength * (0.8 + 2.4 * sim)
        _add(out, f"apply {lemma.name}", base, "retrieval")
        if "->" in lemma.statement:
            _add(out, f"eapply {lemma.name}", 0.6 * base, "retrieval")
        if lemma.is_equation:
            _add(out, f"rewrite {lemma.name}", 1.1 * base, "retrieval")
            _add(out, f"rewrite <- {lemma.name}", 0.4 * base, "retrieval")
        if forward is not None:
            _add(
                out,
                f"apply {lemma.name} in {forward}",
                0.4 * base,
                "retrieval",
            )
    return out


def hint_proposals(view: PromptView, strength: float) -> List[Proposal]:
    """Mimic the proofs of similar hinted theorems."""
    out: List[Proposal] = []
    hinted = view.hinted_lemmas()
    if not hinted:
        return out
    goal_tokens = signature_tokens(view.theorem_statement or view.goal_text)
    now_tokens = signature_tokens(view.goal_text)
    scored = []
    for lemma in hinted:
        sim = max(
            _similarity(goal_tokens, lemma.signature.statement),
            _similarity(now_tokens, lemma.signature.conclusion),
        )
        if sim > 0.05:
            scored.append((sim, lemma))
    scored.sort(key=lambda pair: (-pair[0], pair[1].name))
    depth = len(view.steps)
    for sim, lemma in scored[:4]:
        steps = lemma.steps
        if not steps:
            continue
        base = strength * (0.8 + 3.0 * sim)
        # Replay the whole proof, weighting steps near the current
        # depth highest (a model reading a similar proof tracks where
        # it is in it, imperfectly).
        for k, step in enumerate(steps):
            decay = 1.0 / (1.0 + abs(k - depth))
            _add(out, step, base * max(decay, 0.25), "hint")
    return out


def hint_head_priors(view: PromptView) -> Dict[str, float]:
    """Tactic-head frequencies across all visible hint proofs.

    Used as a mild prior: models pick up the house style (FSCQ proofs
    lean on ``eauto``/``omega``-like closers) from the provided
    context, which is why hints help even on dissimilar theorems.
    A parsed view carries its context's priors, read once per context.
    """
    if view.head_priors is not None:
        return view.head_priors
    return head_priors(view.hinted_lemmas())
