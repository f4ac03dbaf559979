"""Context extraction, prompt assembly, truncation."""

import sys
import threading

import pytest

import repro.corpus.tokenizer as tokenizer
import repro.prompting.truncation as truncation
from repro.corpus.splits import make_splits
from repro.corpus.tokenizer import count_tokens
from repro.kernel.cache import BoundedCache
from repro.kernel.goals import initial_state
from repro.prompting import (
    GOAL_HEADER,
    THEOREM_HEADER,
    PromptBuilder,
    context_for,
    reduced_context_for,
    strip_proof,
    truncate_to_window,
)
from repro.prompting.truncation import counted_lines


class TestContext:
    def test_never_reveals_future(self, project):
        theorem = project.theorem("plus_comm")
        context = context_for(project, theorem)
        assert "plus_comm" not in context  # the theorem itself is hidden
        assert "plus_0_r" in context  # earlier lemma statement shown
        assert "mult_comm" not in context  # later lemma hidden

    def test_vanilla_hides_proofs(self, project):
        theorem = project.theorem("plus_comm")
        context = context_for(project, theorem)
        assert "(* ... *)" in context
        assert "induction n; simpl" not in context

    def test_hints_reveal_selected_proofs(self, project):
        theorem = project.theorem("plus_comm")
        context = context_for(project, theorem, hint_names={"plus_0_r"})
        assert "rewrite IHn" in context  # plus_0_r's proof body

    def test_import_closure_only(self, project):
        theorem = project.theorem("plus_comm")  # ArithUtils
        context = context_for(project, theorem)
        assert "sep_star" not in context  # CHL not imported there

    def test_reduced_context(self, project):
        theorem = project.theorem("plus_comm")
        context = reduced_context_for(
            project, theorem, ["plus_0_r", "plus_n_Sm"]
        )
        assert "plus_0_r" in context
        assert "le_trans" not in context

    def test_strip_proof_keeps_statement(self, project):
        decl = next(
            d
            for f in project.files
            for d in f.declarations
            if d.kind == "lemma"
        )
        stripped = strip_proof(decl)
        assert decl.statement_text in stripped
        assert "Qed." in stripped


class TestPromptBuilder:
    def test_layout(self, project):
        theorem = project.theorem("rev_involutive")
        builder = PromptBuilder(project, theorem)
        state = initial_state(project.env_for(theorem), theorem.statement)
        prompt = builder.build(state, ["intros"])
        assert prompt.index(GOAL_HEADER) > prompt.index("Current theorem")
        assert "intros." in prompt
        assert prompt.rstrip().endswith("(* Next tactic? *)")

    def test_window_truncates(self, project):
        theorem = project.theorem("sb_ok_used_bound")
        builder = PromptBuilder(project, theorem, window_tokens=1000)
        state = initial_state(project.env_for(theorem), theorem.statement)
        prompt = builder.build(state, [])
        assert count_tokens(prompt) <= 1100  # line-granular slack
        assert GOAL_HEADER in prompt  # the tail always survives


_FEEDBACK = "\n".join(
    [
        "(* Previous attempt failed *)",
        "(* The checker rejected: apply app_nil_r *)",
        "(* Checker error: cannot unify l ++ nil with x :: l *)",
        "(* repair round 1 *)",
    ]
)
_STEP_LISTS = (
    [],
    ["intros"],
    ["intros", "induction l", "simpl", "reflexivity", "simpl"],
    [f"rewrite lemma_{i} in H{i}" for i in range(40)],
)


class TestWindowedBuild:
    """``build`` counts the context once and must cut exactly where
    ``truncate_to_window`` cuts the whole prompt."""

    @pytest.mark.parametrize(
        "name", ["rev_involutive", "plus_comm", "sb_ok_used_bound"]
    )
    @pytest.mark.parametrize("hinted", [False, True])
    @pytest.mark.parametrize(
        "feedback, salt",
        [(None, ""), (_FEEDBACK, ""), (None, "7"), (_FEEDBACK, "3")],
        ids=["plain", "feedback", "salt", "feedback+salt"],
    )
    def test_equals_reference(self, project, name, hinted, feedback, salt):
        theorem = project.theorem(name)
        settings = dict(
            hint_names=make_splits(project).hint_names if hinted else None,
            feedback=feedback,
            attempt_salt=salt,
        )
        plain = PromptBuilder(project, theorem, **settings)
        state = initial_state(project.env_for(theorem), theorem.statement)
        prompts = [plain.build(state, steps) for steps in _STEP_LISTS]
        whole = max(count_tokens(prompt) for prompt in prompts)
        suffix = min(
            count_tokens(prompt[prompt.rindex(THEOREM_HEADER) :])
            for prompt in prompts
        )
        windows = (1, suffix - 1, suffix, whole // 3, whole // 2, whole,
                   whole + 40)
        for window in windows:
            builder = PromptBuilder(
                project, theorem, window_tokens=window, **settings
            )
            for steps, prompt in zip(_STEP_LISTS, prompts):
                assert builder.build(state, steps) == truncate_to_window(
                    prompt, window
                ), (window, steps)

    def test_context_tokenized_once(self, project, monkeypatch):
        theorem = project.theorem("sb_ok_used_bound")
        state = initial_state(project.env_for(theorem), theorem.statement)
        step_lists = [[f"apply lemma_{i}"] * i for i in range(20)]
        context = context_for(project, theorem)
        plain = PromptBuilder(project, theorem)
        suffix = max(
            len(plain.build(state, steps)) - len(context)
            for steps in step_lists
        )
        window = count_tokens(plain.build(state, [])) // 2

        seen = []
        original = tokenizer.tokenize

        def counting(text):
            seen.append(len(text))
            return original(text)

        monkeypatch.setattr(tokenizer, "tokenize", counting)
        builder = PromptBuilder(project, theorem, window_tokens=window)
        for steps in step_lists:
            assert builder.build(state, steps).startswith("(* ...context")
        assert sum(seen) <= len(context) + len(step_lists) * suffix + 16


class TestTruncation:
    def test_noop_when_fits(self):
        assert truncate_to_window("short text", 100) == "short text"

    def test_keeps_the_end(self):
        text = "\n".join(f"line {i}" for i in range(200))
        out = truncate_to_window(text, 50)
        assert "line 199" in out
        assert "line 0" not in out
        assert out.startswith("(* ...context truncated... *)")

    def test_respects_budget(self):
        text = "\n".join("word " * 10 for _ in range(100))
        out = truncate_to_window(text, 60)
        assert count_tokens(out) <= 75


def _memo(capacity=16_384):
    """An empty line-count memo, as the process starts with."""
    return BoundedCache("line_tokens", capacity, register=False)


class TestLineMemo:
    """``counted_lines`` reads line counts from one process-wide memo:
    exact, bounded, and shared by every builder."""

    def test_exact_for_every_sweep_context(self, project, monkeypatch):
        bound = 1_000
        monkeypatch.setattr(truncation, "_LINE_TOKENS", _memo(bound))
        splits = make_splits(project)
        for theorem in splits.test_large:
            for hints in (None, splits.hint_names):
                context = context_for(project, theorem, hints)
                # With and without a newline after the last line.
                for text in (context + "\n\n", context):
                    want = [
                        count_tokens(line)
                        for line in text.splitlines(keepends=True)
                    ]
                    for _ in range(2):  # cold, then from the memo
                        lines, counts = counted_lines(text)
                        assert "".join(lines) == text
                        assert counts == want, theorem.name
                        assert len(truncation._LINE_TOKENS.data) <= bound

    def test_threads_share_the_memo(self, project, monkeypatch):
        """More threads than cores, a tiny bound and frequent switches:
        every thread still reads exact counts."""
        monkeypatch.setattr(truncation, "_LINE_TOKENS", _memo(64))
        texts = [
            context_for(project, theorem)
            for theorem in make_splits(project).test_large[:8]
        ]
        want = [
            [count_tokens(line) for line in text.splitlines(keepends=True)]
            for text in texts
        ]
        wrong = []

        def work(offset):
            for i in range(len(texts)):
                k = (i + offset) % len(texts)
                if counted_lines(texts[k])[1] != want[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    def test_second_builder_counts_only_new_lines(self, project, monkeypatch):
        monkeypatch.setattr(truncation, "_LINE_TOKENS", _memo())
        first = project.theorem("app_length")
        second = project.theorem("map_app")
        assert first.file == second.file
        states = [
            initial_state(project.env_for(t), t.statement)
            for t in (first, second)
        ]
        counted = []
        original = tokenizer.tokenize

        def recording(text):
            counted.append(text)
            return original(text)

        monkeypatch.setattr(tokenizer, "tokenize", recording)
        PromptBuilder(project, first, window_tokens=2_000).build(
            states[0], []
        )
        seen = set(counted)
        counted.clear()
        PromptBuilder(project, second, window_tokens=2_000).build(
            states[1], []
        )
        assert counted  # the lines only the second prompt has
        assert seen.isdisjoint(counted)
