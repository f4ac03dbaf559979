"""Deadline enforcement across the stack.

One wall-clock budget, three enforcement points that must agree:

* :mod:`repro.deadline` — the shared primitive (thread-local stack);
* :class:`repro.kernel.reduction.Budget` — cooperative interrupt *at*
  the budget inside long reductions, not post-hoc;
* :class:`repro.serapi.checker.ProofChecker` — per-tactic deadline
  whose in-flight (``TacticTimeout``) and post-hoc (slow tactic that
  never hit a checkpoint) paths yield the same verdict and message;
* :class:`repro.core.search.BestFirstSearch` — per-theorem deadline
  yielding a clean ``Status.TIMEOUT`` outcome.

All clocks are fakes; no test here sleeps or depends on real time.
"""

import pytest

from repro.core import BestFirstSearch, SearchConfig, Status
from repro.deadline import (
    TIMEOUT_MESSAGE,
    Deadline,
    active_deadline,
    check_deadline,
    pop_deadline,
    push_deadline,
)
from repro.errors import TacticTimeout
from repro.kernel.reduction import DEADLINE_CHECK_INTERVAL, Budget
from repro.llm import Candidate
from repro.prompting import PromptBuilder
from repro.serapi import ProofChecker, Verdict


class ManualClock:
    """clock() returns a value advanced only by the test."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TickingClock:
    """clock() advances by ``step`` on every read — simulates a slow
    computation without sleeping."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestDeadlinePrimitive:
    def test_after_and_remaining(self):
        clock = ManualClock(100.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == 5.0
        clock.now = 104.0
        assert deadline.remaining() == pytest.approx(1.0)
        clock.now = 106.0
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_stack_push_pop(self):
        assert active_deadline() is None
        clock = ManualClock()
        outer = Deadline.after(10.0, clock=clock)
        inner = Deadline.after(1.0, clock=clock)
        push_deadline(outer)
        push_deadline(inner)
        assert active_deadline() is inner
        pop_deadline()
        assert active_deadline() is outer
        pop_deadline()
        assert active_deadline() is None

    def test_check_deadline_raises_canonical_message(self):
        clock = ManualClock()
        push_deadline(Deadline.after(1.0, clock=clock))
        try:
            check_deadline()  # not expired: no-op
            clock.now = 2.0
            with pytest.raises(TacticTimeout) as excinfo:
                check_deadline()
            assert str(excinfo.value) == TIMEOUT_MESSAGE
        finally:
            pop_deadline()


class TestBudgetDeadline:
    def test_interrupts_at_check_interval(self):
        clock = ManualClock()
        budget = Budget(
            remaining=10**9, deadline=Deadline.after(5.0, clock=clock)
        )
        for _ in range(DEADLINE_CHECK_INTERVAL - 1):
            assert budget.spend()
        clock.now = 10.0  # budget blown mid-reduction
        with pytest.raises(TacticTimeout) as excinfo:
            budget.spend()
        # The cooperative interrupt and the checker's post-hoc verdict
        # must tell the same story.
        assert str(excinfo.value) == TIMEOUT_MESSAGE

    def test_no_deadline_never_interrupts(self):
        budget = Budget(remaining=2 * DEADLINE_CHECK_INTERVAL + 1)
        assert budget.deadline is None
        for _ in range(2 * DEADLINE_CHECK_INTERVAL):
            assert budget.spend()

    def test_adopts_active_deadline(self):
        clock = ManualClock()
        deadline = Deadline.after(5.0, clock=clock)
        push_deadline(deadline)
        try:
            assert Budget().deadline is deadline
        finally:
            pop_deadline()
        assert Budget().deadline is None

    def test_fuel_exhaustion_still_returns_false(self):
        budget = Budget(remaining=1)
        assert budget.spend()
        assert not budget.spend()


class TestCheckerDeadline:
    def test_slow_tactic_times_out_posthoc(self, env):
        # Every clock read costs 10 "seconds": the tactic completes but
        # blows its 5 s budget, which the post-hoc check converts into
        # the same TIMEOUT verdict the in-flight path produces.
        checker = ProofChecker(
            env, tactic_timeout=5.0, clock=TickingClock(10.0)
        )
        state = checker.start_text("forall n, n = n")
        result = checker.check(state, "intros")
        assert result.verdict is Verdict.TIMEOUT
        assert result.message == TIMEOUT_MESSAGE

    def test_fast_tactic_unaffected(self, env):
        checker = ProofChecker(
            env, tactic_timeout=1e9, clock=TickingClock(0.001)
        )
        state = checker.start_text("forall n, n = n")
        assert checker.check(state, "intros").verdict is Verdict.VALID


class _OneTacticModel:
    name = "one-tactic"
    context_window = 10**9
    provides_log_probs = True

    def generate(self, prompt, k):
        return [Candidate(tactic="intros", log_prob=-1.0)]


class TestSearchTheoremDeadline:
    def _search(self, project, clock, **config_kwargs):
        theorem = project.theorem("plus_0_l")
        checker = ProofChecker(project.env_for(theorem))
        builder = PromptBuilder(project, theorem)
        search = BestFirstSearch(
            checker,
            _OneTacticModel(),
            SearchConfig(fuel=4, **config_kwargs),
            clock=clock,
        )
        return search.prove(theorem.name, theorem.statement, builder.build)

    def test_expired_deadline_yields_clean_timeout(self, project):
        # clock ticks 1 s per read, deadline 0.5 s: expired before the
        # first expansion — zero model queries, clean TIMEOUT status.
        result = self._search(
            project, TickingClock(1.0), theorem_deadline=0.5
        )
        assert result.status is Status.TIMEOUT
        assert result.stats.queries == 0
        assert result.stats.wall_seconds > 0.0

    def test_no_deadline_runs_to_normal_outcome(self, project):
        result = self._search(project, TickingClock(1.0))
        assert result.status in (Status.STUCK, Status.FUELOUT, Status.PROVED)

    def test_generous_deadline_is_invisible(self, project):
        bounded = self._search(
            project, TickingClock(0.001), theorem_deadline=1e9
        )
        unbounded = self._search(project, TickingClock(0.001))
        assert bounded.status == unbounded.status
        assert bounded.stats.queries == unbounded.stats.queries
