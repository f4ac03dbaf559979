"""Exception hierarchy shared across the repro packages.

Every error raised by the proof kernel, the tactic interpreter, the
SerAPI-like session layer, and the corpus loader derives from
:class:`ReproError`, so callers can catch one base class at API
boundaries (e.g. the proof-search engine treats any ``ReproError``
raised while executing a tactic as "tactic rejected by the checker").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class KernelError(ReproError):
    """An error inside the proof kernel (terms, types, environment)."""


class ParseError(KernelError):
    """The concrete-syntax parser rejected its input."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class TypeError_(KernelError):
    """A term failed type inference / elaboration.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class UnificationError(KernelError):
    """Two terms (or types) could not be unified.

    Raised with a message, or with the two terms that clash.  Search
    backtracking drops most clashes unread, so a clash formats its
    ``cannot unify X with Y`` message only when ``str()`` asks for it.
    """

    def __str__(self) -> str:
        if len(self.args) == 2:
            return f"cannot unify {self.args[0]} with {self.args[1]}"
        return super().__str__()


class ReductionError(KernelError):
    """Evaluation/normalization failed or exceeded its step budget."""


class EnvironmentError_(KernelError):
    """A name was missing from or duplicated in a global environment."""


class TacticError(ReproError):
    """A tactic could not be applied to the current proof state.

    This is the "rejected by Coq" outcome in the paper's validity
    criterion for LLM-generated tactics.

    Raised with a message, or with a label and the error behind it.
    The second form formats ``label: error`` only when ``str()`` asks
    for it, since most rejections are never read.
    """

    def __str__(self) -> str:
        if len(self.args) == 2:
            return f"{self.args[0]}: {self.args[1]}"
        return super().__str__()


class TacticTimeout(TacticError):
    """A tactic exceeded the checker's wall-clock budget (paper: 5 s)."""


class ScriptError(ReproError):
    """A whole proof script failed (bad bullet structure, early Qed...)."""


class SessionError(ReproError):
    """Protocol misuse in the SerAPI-like session layer."""


class CorpusError(ReproError):
    """The benchmark corpus is malformed (bad imports, unproved lemma)."""


class GenerationError(ReproError):
    """The (simulated) LLM failed to produce candidates."""


class TransientModelError(GenerationError):
    """A retryable model failure (the API analogue of an HTTP 5xx).

    :class:`repro.llm.resilient.ResilientGenerator` retries these with
    backoff; anything else raised by a generator is treated as
    permanent.
    """


class RateLimitError(TransientModelError):
    """The model endpoint rate-limited the query (HTTP 429): retryable,
    but with a longer backoff floor than a plain transient error."""


class GenerationTimeout(TransientModelError):
    """A model query exceeded its per-query time budget: retryable."""


class MalformedResponseError(TransientModelError):
    """The model returned a malformed or truncated payload that could
    not be decoded into candidates: retryable (re-querying a
    deterministic endpoint after a transport-level corruption yields
    the intact response)."""


class ModelExhaustedError(GenerationError):
    """The primary model failed every retry (or its circuit breaker is
    open) and no fallback generator is configured.  The eval layer
    converts this into a ``CRASH`` outcome for the task instead of
    aborting the sweep."""


class ExecutorSetupError(ReproError):
    """An execution backend could not start its workers at all (as
    opposed to a worker dying mid-sweep, which is retried)."""
