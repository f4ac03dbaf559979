"""Prompt assembly for tactic prediction.

Layout (top to bottom)::

    <project context: declarations, hints per setting>
    (* Current theorem *)
    Lemma <name> : <statement>.
    Proof.
      <tactics executed so far>
    (* Current proof state *)
    <goal display>
    (* Next tactic? *)

The goal display and the step history sit at the very end so that
keep-the-end truncation (:mod:`repro.prompting.truncation`) always
preserves them — the model must never lose the active goals.

Two optional sections extend the layout without disturbing it:

* ``feedback`` — a repair round's failure block (the failing tactic
  and the checker's rejection message, see
  :mod:`repro.repair.prompts`), inserted just above the goal display
  so truncation keeps it;
* ``attempt_salt`` — a pass@k sampling token appended after the
  footer.  Generation is a pure function of (model, prompt), so the
  salt is *the* channel by which attempt i draws a different sample
  than attempt j.

Both default to absent, leaving prompts byte-identical to the
single-shot layout.

Everything above the theorem header is fixed per builder, so a
windowed builder counts the context's tokens once, line by line, and
each :meth:`PromptBuilder.build` counts only the lines of its own
suffix.  A blank line joins the two, so the prompt's lines are the
context's followed by the suffix's.  The cut then equals
:func:`~repro.prompting.truncation.truncate_to_window` on the whole
prompt: no token spans a line break, so the per-line counts sum to the
whole prompt's count and the cut lands on the same line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.corpus.loader import Project
from repro.corpus.model import Theorem
from repro.kernel.goals import ProofState
from repro.prompting.context import context_for, reduced_context_for
from repro.prompting.truncation import counted_lines, keep_end

__all__ = ["PromptBuilder", "GOAL_HEADER", "THEOREM_HEADER"]

THEOREM_HEADER = "(* Current theorem *)"
GOAL_HEADER = "(* Current proof state *)"
_FOOTER = "(* Next tactic? *)"


@dataclass
class PromptBuilder:
    """Builds per-step prompts for one theorem under one setting."""

    project: Project
    theorem: Theorem
    hint_names: Optional[Set[str]] = None  # None = vanilla setting
    window_tokens: Optional[int] = None
    reduced_dependencies: Optional[Sequence[str]] = None
    feedback: Optional[str] = None  # repair-round failure block
    attempt_salt: str = ""  # pass@k sampling token ("" = base sample)

    def __post_init__(self) -> None:
        if self.reduced_dependencies is not None:
            self._context = reduced_context_for(
                self.project, self.theorem, self.reduced_dependencies
            )
        else:
            self._context = context_for(
                self.project, self.theorem, self.hint_names
            )
        # The context's lines, through the blank line that ends it, and
        # their token counts: counted once, by the first windowed build.
        self._head: Optional[Tuple[List[str], List[int]]] = None

    def build(self, state: ProofState, steps: Sequence[str]) -> str:
        """The prompt for predicting the next tactic at ``state``."""
        parts: List[str] = [THEOREM_HEADER]
        parts.append(
            f"Lemma {self.theorem.name} : {self.theorem.statement_text}."
        )
        parts.append("Proof.")
        for step in steps:
            parts.append(f"  {step}.")
        if self.feedback:
            parts.append(self.feedback)
        parts.append(GOAL_HEADER)
        parts.append(state.render())
        parts.append(_FOOTER)
        if self.attempt_salt:
            parts.append(f"(* sample {self.attempt_salt} *)")
        suffix = "\n".join(parts)
        prompt = self._context + "\n\n" + suffix
        if self.window_tokens is None:
            return prompt
        if self._head is None:
            self._head = counted_lines(self._context + "\n\n")
        head_lines, head_counts = self._head
        lines, counts = counted_lines(suffix)
        if sum(head_counts) + sum(counts) <= self.window_tokens:
            return prompt
        return keep_end(
            head_lines + lines, head_counts + counts, self.window_tokens
        )
