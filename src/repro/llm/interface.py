"""The tactic-generator interface.

A generator is anything that maps a *prompt string* to ``k`` candidate
next tactics with log-probabilities — the exact contract the paper's
best-first search has with GPT-4o/Gemini.  Simulated models live in
:mod:`repro.llm.models`; the search engine depends only on this
protocol, so a real API-backed model could be dropped in unchanged.

The prompt string is the **only** channel: simulated models never see
kernel objects, the environment, or the corpus — anything they know,
they parsed out of the prompt text, which is what makes the hint and
context-window experiments meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Sequence, Tuple

__all__ = [
    "Candidate",
    "TacticGenerator",
    "GenerationRequest",
    "generate_batch",
]


@dataclass(frozen=True)
class Candidate:
    """One predicted next tactic."""

    tactic: str
    log_prob: float


#: One element of a batched generation call: ``(prompt, k)``.
GenerationRequest = Tuple[str, int]


class TacticGenerator(Protocol):
    """Protocol for next-tactic prediction models.

    ``generate_batch`` is *optional* (real endpoints expose batch
    completion APIs; simple generators need not).  Callers should go
    through the module-level :func:`generate_batch`, which falls back
    to element-wise ``generate`` when the method is absent.

    Determinism contract: when a generator does implement
    ``generate_batch``, element ``i`` of the result MUST be
    byte-identical to a solo ``generate(prompt_i, k_i)`` call — batching
    is an amortization of per-query overhead, never a semantic change.
    The service layer's micro-batcher and the differential tests rely
    on this.
    """

    name: str
    context_window: int  # in (simulated) tokens
    provides_log_probs: bool

    def generate(self, prompt: str, k: int) -> List[Candidate]:
        """Up to ``k`` candidates, best first, with log-probabilities."""
        ...


def generate_batch(
    generator: "TacticGenerator", requests: Sequence[GenerationRequest]
) -> List[List[Candidate]]:
    """Batched generation with element-wise fallback.

    Dispatches one native ``generate_batch`` call when the generator
    has one, otherwise loops solo ``generate`` calls — either way the
    results are, by contract, identical element-wise.
    """
    native = getattr(generator, "generate_batch", None)
    if callable(native):
        return native(requests)
    return [generator.generate(prompt, k) for prompt, k in requests]
