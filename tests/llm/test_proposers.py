"""Unit tests for the proposal machinery (heuristics + retrieval)."""

import pytest

from repro.llm.heuristics import propose
from repro.llm.promptview import (
    HypView,
    LemmaView,
    PromptView,
    _binder_names,
    parse_prompt,
    proof_steps,
)
from repro.llm.retrieval import (
    hint_head_priors,
    hint_proposals,
    retrieve,
)
from repro.kernel.parser import parse_term


def _view(goal_text, hyps=(), lemmas=(), preds=(), defs=()):
    view = PromptView()
    view.goal_text = goal_text
    try:
        view.goal_term = parse_term(goal_text)
    except Exception:
        view.goal_term = None
    view.hyps = list(hyps)
    view.inductive_preds = set(preds)
    view.definitions = list(defs)
    for lemma in lemmas:
        view.lemmas[lemma.name] = lemma
    return view


def _lemma(name, statement, proof=None):
    from repro.llm.promptview import _conclusion_of, _head_of

    conclusion = _conclusion_of(statement)
    head, is_eq = _head_of(conclusion)
    return LemmaView(
        name,
        statement,
        conclusion,
        head,
        is_eq,
        proof=proof,
        binders=_binder_names(statement),
    )


class TestBinderNames:
    def test_parenthesized_groups(self):
        names = _binder_names("forall (A : Type) (l1 l2 : list A), P")
        assert {"A", "l1", "l2"} <= names

    def test_bare_binders(self):
        assert "n" in _binder_names("forall n, n = n")

    def test_no_forall(self):
        assert _binder_names("0 = 0") == frozenset()


class TestHeuristics:
    def test_forall_proposes_intros(self):
        tactics = {p.tactic for p in propose(_view("forall n, n = n"))}
        assert "intros" in tactics

    def test_and_proposes_split(self):
        tactics = {p.tactic for p in propose(_view("a = b /\\ b = a"))}
        assert "split" in tactics

    def test_eq_proposes_reflexivity_and_lia(self):
        tactics = {p.tactic for p in propose(_view("a + b = b + a"))}
        assert "reflexivity" in tactics
        assert "lia" in tactics

    def test_pred_hyp_proposes_inversion(self):
        hyp = HypView("H", "Forall P l", False, parse_term("Forall P l"))
        view = _view("P x", hyps=[hyp], preds={"Forall"})
        tactics = {p.tactic for p in propose(view)}
        assert "inversion H" in tactics

    def test_ih_gets_priority(self):
        hyp = HypView(
            "IHl", "length l = n", False, parse_term("length l = n")
        )
        proposals = propose(_view("S (length l) = S n", hyps=[hyp]))
        by_tactic = {p.tactic: p.weight for p in proposals}
        assert by_tactic["rewrite IHl"] >= 2.0

    def test_definition_unfold(self):
        view = _view("incl l1 l2", defs=["incl"])
        tactics = {p.tactic for p in propose(view)}
        assert "unfold incl" in tactics


class TestRetrieval:
    def test_matching_lemma_proposed(self):
        lemma = _lemma(
            "app_nil_r", "forall (A : Type) (l : list A), l ++ nil = l"
        )
        view = _view("x ++ nil = x", lemmas=[lemma])
        tactics = {p.tactic for p in retrieve(view, 1.0)}
        assert "rewrite app_nil_r" in tactics
        assert "apply app_nil_r" in tactics

    def test_binders_do_not_count_as_signal(self):
        # A lemma whose only shared tokens are its binder names must
        # not outrank one sharing real constants.
        noise = _lemma("noise", "forall (x : nat), x = x")
        signal = _lemma(
            "map_app",
            "forall (A B : Type) (g : A -> B) (l1 l2 : list A), "
            "map g (l1 ++ l2) = map g l1 ++ map g l2",
        )
        view = _view("map fst (a ++ b) = map fst a ++ map fst b",
                     lemmas=[noise, signal])
        proposals = retrieve(view, 1.0)
        weights = {p.tactic: p.weight for p in proposals}
        assert weights.get("rewrite map_app", 0) > weights.get(
            "rewrite noise", 0
        )

    def test_strength_scales(self):
        lemma = _lemma(
            "rev_length",
            "forall (A : Type) (l : list A), length (rev l) = length l",
        )
        view = _view("length (rev k) = length k", lemmas=[lemma])
        strong = {p.tactic: p.weight for p in retrieve(view, 1.0)}
        weak = {p.tactic: p.weight for p in retrieve(view, 0.3)}
        assert strong["apply rev_length"] > weak["apply rev_length"]


class TestHintMimicry:
    def test_steps_split(self):
        steps = proof_steps(
            "intros. simpl.\n- rewrite IHl; auto.\n- reflexivity."
        )
        assert steps[0] == "intros"
        assert "reflexivity" in steps

    def test_similar_proof_replayed(self):
        lemma = _lemma(
            "ndata_log_app",
            "forall (l1 l2 : list (prod nat valu)), "
            "ndata_log (l1 ++ l2) = ndata_log l1 + ndata_log l2",
            proof="intros. unfold ndata_log. rewrite map_app. "
            "apply nonzero_addrs_app.",
        )
        view = _view(
            "ndata_log (padded_log a) = ndata_log a", lemmas=[lemma]
        )
        view.theorem_statement = view.goal_text
        tactics = {p.tactic for p in hint_proposals(view, 1.0)}
        assert "rewrite map_app" in tactics
        assert "unfold ndata_log" in tactics

    def test_head_priors_frequency(self):
        lemma = _lemma(
            "x", "forall n, n = n", proof="intros. auto. auto. auto."
        )
        view = _view("k = k", lemmas=[lemma])
        priors = hint_head_priors(view)
        assert priors["auto"] > priors["intros"]

    def test_no_hints_no_priors(self):
        view = _view("k = k")
        assert hint_head_priors(view) == {}
        assert hint_proposals(view, 1.0) == []
