"""The proof checker facade the search engine drives.

This is the reproduction of the paper's "custom Coq proof checker"
built on the STM + SerAPI: given a proof state and a candidate tactic
string, classify it as valid (returning the new state) or invalid for
one of the paper's three reasons:

* ``rejected`` — parse error or tactic failure ("rejected by Coq");
* ``duplicate`` — the resulting proof state was already encountered in
  this search tree;
* ``timeout`` — execution exceeded the budget (paper: 5 seconds).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from repro.deadline import TIMEOUT_MESSAGE, Deadline
from repro.errors import ParseError, ReproError, TacticError, TacticTimeout
from repro.kernel.env import Environment
from repro.kernel.goals import ProofState, initial_state
from repro.kernel.parser import parse_statement
from repro.kernel.terms import Term
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.tactics.base import run_tactic
from repro.tactics.parse import parse_tactic

__all__ = ["Verdict", "CheckResult", "ProofChecker"]

DEFAULT_TACTIC_TIMEOUT = 5.0  # seconds, as in the paper


class Verdict(enum.Enum):
    VALID = "valid"
    REJECTED = "rejected"
    DUPLICATE = "duplicate"
    TIMEOUT = "timeout"


@dataclass
class CheckResult:
    """A verdict, the new state when valid, and the verdict's message.

    ``detail`` is the message, or the exception whose ``str()`` is the
    message: :attr:`message` formats it on first read, since a search
    reads the message of few of the tactics it rejects."""

    verdict: Verdict
    state: Optional[ProofState] = None  # set when VALID
    detail: Union[str, Exception] = ""

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.VALID

    @property
    def message(self) -> str:
        detail = self.detail
        if not isinstance(detail, str):
            detail = self.detail = str(detail)
        return detail


class ProofChecker:
    """Validates candidate tactics against proof states."""

    def __init__(
        self,
        env: Environment,
        tactic_timeout: float = DEFAULT_TACTIC_TIMEOUT,
        metrics: Metrics = NULL_METRICS,
        state_keys: str = "fingerprint",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """``metrics`` is the telemetry handle: every :meth:`check`
        call is one ``tactic`` span (when traced, with the candidate
        text, verdict and message) and one ``verdict.<v>`` count.

        ``state_keys`` selects the duplicate-detection key:
        ``"fingerprint"`` (default) uses the O(1) structural hash,
        ``"string"`` the original pretty-rendered key — kept as the
        reference oracle for the differential tests and for debugging
        suspected fingerprint collisions.

        ``clock`` is the monotonic time source used for the per-tactic
        :class:`~repro.deadline.Deadline` — injectable so timeout paths
        are testable without real stalls."""
        if state_keys not in ("fingerprint", "string"):
            raise ValueError(f"unknown state_keys mode: {state_keys!r}")
        self.env = env
        self.tactic_timeout = tactic_timeout
        self.metrics = metrics
        self.state_keys = state_keys
        self.clock = clock

    def start(self, statement: Term) -> ProofState:
        return initial_state(self.env, statement)

    def start_text(self, statement_text: str) -> ProofState:
        return self.start(parse_statement(self.env, statement_text))

    def replay_prefix(
        self, statement: Term, tactics: Sequence[str]
    ) -> Tuple[ProofState, List[str]]:
        """Replay a validated tactic prefix from a fresh initial state.

        The repair layer stores the surviving prefix of a failed
        search (:class:`repro.core.result.FailureContext`); this
        replays it, returning the state at the failure frontier plus
        the tactics that still applied.  A tactic the checker now
        refuses truncates the replay there — the same rule the search
        engine applies when seeding its tree from a prefix.
        """
        state = self.start(statement)
        survived: List[str] = []
        for tactic in tactics:
            result = self.check(state, tactic)
            if result.verdict is not Verdict.VALID or result.state is None:
                break
            state = result.state
            survived.append(tactic)
        return state, survived

    def state_key(self, state: ProofState):
        """The duplicate-detection key for ``state`` (mode-dependent)."""
        if self.state_keys == "fingerprint":
            return state.fingerprint()
        return state.key()

    def check(
        self,
        state: ProofState,
        tactic_text: str,
        seen_keys: Optional[Set] = None,
    ) -> CheckResult:
        """Validate ``tactic_text`` against ``state``.

        ``seen_keys`` is the set of proof-state keys already in the
        search tree; reaching one of them makes the tactic invalid
        (the paper's duplicate-state rule).
        """
        metrics = self.metrics
        with metrics.span("tactic") as span:
            result = self._check(state, tactic_text, seen_keys)
            if metrics.tracing:
                span.set(
                    tactic=tactic_text,
                    verdict=result.verdict.value,
                    message=result.message[:120],
                )
        metrics.incr(f"verdict.{result.verdict.value}")
        return result

    def _check(
        self,
        state: ProofState,
        tactic_text: str,
        seen_keys: Optional[Set] = None,
    ) -> CheckResult:
        # One deadline governs the whole check: the cooperative
        # interrupt inside run_tactic (combinators, auto/lia loops,
        # reduction budgets all poll it) and the post-hoc slow-tactic
        # verdict below share this clock and expiry, so both paths
        # agree on verdict and message.
        deadline = Deadline.after(self.tactic_timeout, clock=self.clock)
        try:
            node = parse_tactic(tactic_text)
        except ParseError as exc:
            return CheckResult(Verdict.REJECTED, detail=f"parse: {exc}")
        try:
            new_state = run_tactic(self.env, state, node, deadline=deadline)
        except TacticTimeout as exc:
            return CheckResult(Verdict.TIMEOUT, detail=exc)
        except (TacticError, ReproError) as exc:
            return CheckResult(Verdict.REJECTED, detail=exc)
        if deadline.expired():
            # A tactic that ran past its budget without hitting a
            # cooperative checkpoint: same verdict and message as the
            # in-flight TacticTimeout path.
            return CheckResult(Verdict.TIMEOUT, detail=TIMEOUT_MESSAGE)
        if seen_keys is not None:
            key = self.state_key(new_state)
            if key in seen_keys:
                return CheckResult(
                    Verdict.DUPLICATE,
                    detail="proof state already in the search tree",
                )
        return CheckResult(Verdict.VALID, state=new_state)
