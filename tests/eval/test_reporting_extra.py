"""Transcript and CLI plumbing."""

import pytest

from repro.core.transcript import CandidateEvent, ExpansionEvent, Transcript


class TestTranscript:
    def test_summary_renders(self):
        transcript = Transcript("thm", "model")
        event = ExpansionEvent(node_depth=0, node_score=0.0, goal_preview="g")
        event.candidates.append(
            CandidateEvent("intros", -0.5, "valid")
        )
        transcript.record(event)
        text = transcript.summary()
        assert "thm" in text and "intros" in text and "valid" in text


class TestCli:
    def test_show(self, capsys):
        from repro.cli import main

        assert main(["--fast", "show", "plus_comm"]) == 0
        out = capsys.readouterr().out
        assert "Lemma plus_comm" in out and "Qed." in out

    def test_list_category(self, capsys):
        from repro.cli import main

        assert main(["--fast", "list", "--category", "CHL"]) == 0
        out = capsys.readouterr().out
        assert "pimpl_sep_star_l" in out
        assert "plus_comm" not in out

    def test_prove_trivial(self, capsys):
        from repro.cli import main

        code = main(
            ["--fast", "prove", "app_nil_l", "--model", "gpt-4o",
             "--fuel", "32"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "queries" in out
