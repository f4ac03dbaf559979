"""CLI plumbing."""


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
