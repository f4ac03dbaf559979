"""Two quirks of the prompt reader that the committed records depend on.

Both are mistakes a careful reader would not make, and fixing either
changes what the simulated model proposes, so it changes sweep
records: the fix belongs to a commit that also regenerates the
expected records.  Until then these tests pin them, so that no
optimisation removes one silently.
"""

from repro.llm import promptview
from repro.llm.promptview import HypView, PromptView, parse_prompt
from repro.llm.retrieval import retrieve
from repro.prompting.context import strip_proof


def _decl(project, name):
    for source_file in project.files:
        for decl in source_file.declarations:
            if decl.name == name:
                return decl
    raise KeyError(name)


class TestProofCredit:
    def test_shown_proof_goes_to_the_hidden_proof_lemma_above(self, project):
        """``_PROOF_RE`` does not stop at a hidden proof (``Proof. (*
        ... *) Qed.`` on one line), so its match from ``plus_0_l``
        runs on to the proof ``plus_n_Sm`` shows, credits it to
        ``plus_0_l``, and consumes it: ``plus_n_Sm`` gets none."""
        plus_0_l, plus_n_Sm, le_refl = (
            _decl(project, name) for name in ("plus_0_l", "plus_n_Sm", "le_refl")
        )
        context = "\n\n".join(
            [strip_proof(plus_0_l), plus_n_Sm.source, strip_proof(le_refl)]
        )
        shown = plus_n_Sm.source.split("Proof.\n", 1)[1].rsplit("\nQed.", 1)[0]
        view = parse_prompt(context)
        assert list(view.lemmas) == ["plus_0_l", "plus_n_Sm", "le_refl"]
        assert view.lemmas["plus_0_l"].proof == shown.strip()
        assert view.lemmas["plus_n_Sm"].proof is None
        assert view.lemmas["le_refl"].proof is None
        assert [lemma.name for lemma in view.hinted_lemmas()] == ["plus_0_l"]

    def test_shown_proof_first_is_credited_to_its_own_lemma(self, project):
        plus_n_Sm, le_refl = (
            _decl(project, name) for name in ("plus_n_Sm", "le_refl")
        )
        view = parse_prompt(
            "\n\n".join([plus_n_Sm.source, strip_proof(le_refl)])
        )
        assert view.lemmas["plus_n_Sm"].proof
        assert view.lemmas["le_refl"].proof is None


class TestForwardUse:
    def _view(self):
        view = PromptView()
        view.goal_text = "foo x = bar x"
        proposed = promptview._lemma_view("foo_bar", "forall x, foo x = bar x")
        last = promptview._lemma_view("baz_qux", "forall y, baz y = qux y")
        view.lemmas = {lemma.name: lemma for lemma in (proposed, last)}
        view.hyps = [
            HypView("Hown", "foo z = bar z", False),
            HypView("Hlast", "baz z = qux z", False),
        ]
        return view

    def test_checked_against_the_last_lemma_of_the_context(self):
        """``retrieve`` checks forward use against the conclusion tokens
        the scoring loop left behind: those of the context's last lemma
        (``baz_qux``, which does not score), not of the lemma it
        proposes (``foo_bar``)."""
        tactics = [p.tactic for p in retrieve(self._view(), 1.0)]
        assert "apply foo_bar" in tactics
        assert "apply baz_qux" not in tactics
        assert "apply foo_bar in Hlast" in tactics
        assert "apply foo_bar in Hown" not in tactics

    def test_no_forward_use_when_the_last_lemma_matches_no_hypothesis(self):
        view = self._view()
        view.hyps = view.hyps[:1]  # only the proposed lemma's match
        tactics = [p.tactic for p in retrieve(view, 1.0)]
        assert "apply foo_bar" in tactics
        assert not [t for t in tactics if " in " in t]
