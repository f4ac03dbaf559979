"""The checker-error feedback loop.

Single-shot search throws away the checker's rejection message — the
one signal that says *why* the proof attempt is wrong.  The repair
engine closes the loop: when a search fails, it re-prompts the model
with the failure context (surviving prefix, goal at the frontier, the
refused tactic, the checker's message) and resumes search from the
surviving prefix, iterating until verified or retry-capped.
Execution is the source of truth — a repair round "succeeds" only when
the checker accepts a complete proof, which the runner then Qed-replays
like any other.

Eligibility follows the ROADMAP's workload definition: a STUCK search
(the paper's FAILED) is always worth a repair round — its frontier
died on rejections; FUELOUT/TIMEOUT searches qualify only as
*near-misses* (a partial proof at least ``near_miss_depth`` deep
survived), since a search that ran out of budget with no progress
will not be saved by feedback.

Budget: all rounds share one wall-clock deadline.  When the task sets
``theorem_deadline``, that budget covers the *initial search plus
every repair round*; each round's search receives only the remaining
time, and the loop stops once the budget is spent.  Without a
deadline the retry cap alone bounds the loop (the paper's unbounded
setting).

Observability: each round runs inside a ``repair_round`` span, and
the telemetry handle collects the ``repair.rounds``,
``repair.succeeded``, ``repair.exhausted`` and ``repair.ineligible``
counters, exported by the service as ``repro_repair_*_total``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.core.result import FailureContext, SearchResult, Status
from repro.core.search import BestFirstSearch
from repro.deadline import Deadline
from repro.kernel.terms import Term
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.repair.prompts import feedback_block

__all__ = ["RepairEngine", "NEAR_MISS_DEPTH", "repairable"]

# Minimum surviving-prefix depth for a FUELOUT/TIMEOUT search to count
# as a near-miss worth repairing.
NEAR_MISS_DEPTH = 1

_RETRYABLE = (Status.STUCK, Status.FUELOUT, Status.TIMEOUT)


def repairable(result: SearchResult) -> bool:
    """Whether a failed search qualifies for a repair round."""
    if result.status not in _RETRYABLE or result.failure is None:
        return False
    if result.status is Status.STUCK:
        return True
    return result.failure.depth >= NEAR_MISS_DEPTH


def _merge_stats(total, extra) -> None:
    total.queries += extra.queries
    total.nodes_created += extra.nodes_created
    total.nodes_expanded += extra.nodes_expanded
    total.candidates += extra.candidates
    total.rejected += extra.rejected
    total.duplicates += extra.duplicates
    total.timeouts += extra.timeouts
    total.wall_seconds += extra.wall_seconds


class RepairEngine:
    """Runs one theorem's search with up to ``rounds`` feedback rounds.

    ``builder`` is the task's :class:`~repro.prompting.PromptBuilder`;
    repair rounds derive theirs from it with ``dataclasses.replace``,
    so hint setting, context reduction, window size, and the pass@k
    attempt salt all carry over unchanged.
    """

    def __init__(
        self,
        search: BestFirstSearch,
        builder,
        rounds: int,
        metrics: Metrics = NULL_METRICS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rounds < 0:
            raise ValueError("repair rounds must be >= 0")
        self.search = search
        self.builder = builder
        self.rounds = rounds
        self.metrics = metrics
        self.clock = clock

    def _round_search(self, remaining: Optional[float]) -> BestFirstSearch:
        """A searcher for one repair round (same stack, fresh budget)."""
        base = self.search
        config = base.config
        if remaining is not None:
            config = replace(config, theorem_deadline=remaining)
        return BestFirstSearch(
            base.checker,
            base.generator,
            config,
            metrics=base.metrics,
            clock=base.clock,
        )

    def prove(self, theorem_name: str, statement: Term) -> SearchResult:
        """Initial search plus feedback rounds under the shared budget."""
        budget = self.search.config.theorem_deadline
        deadline = (
            Deadline.after(budget, clock=self.clock)
            if budget is not None
            else None
        )
        result = self.search.prove(
            theorem_name, statement, self.builder.build
        )
        if result.status is Status.PROVED or self.rounds == 0:
            return result

        total_stats = result.stats
        refused: List[str] = []
        failure: Optional[FailureContext] = result.failure
        attempts = 1
        metrics = self.metrics
        for round_index in range(1, self.rounds + 1):
            if not repairable(result):
                if result.status in _RETRYABLE:
                    metrics.incr("repair.ineligible")
                break
            remaining = deadline.remaining() if deadline is not None else None
            if remaining is not None and remaining <= 0.0:
                break
            failure = result.failure
            assert failure is not None
            block = feedback_block(failure, round_index, refused)
            refused.append(failure.failed_tactic)
            round_builder = replace(self.builder, feedback=block)
            metrics.incr("repair.rounds")
            attempts += 1
            with metrics.span(
                "repair_round",
                round=round_index,
                depth=failure.depth,
                tactic=failure.failed_tactic,
                verdict=failure.verdict,
            ) as round_span:
                round_result = self._round_search(remaining).prove(
                    theorem_name,
                    statement,
                    round_builder.build,
                    initial_tactics=failure.prefix,
                )
                if metrics.tracing:
                    round_span.set(status=round_result.status.value)
            _merge_stats(total_stats, round_result.stats)
            if round_result.status is Status.PROVED:
                metrics.incr("repair.succeeded")
                return SearchResult(
                    status=Status.REPAIRED,
                    theorem_name=theorem_name,
                    tactics=round_result.tactics,
                    stats=total_stats,
                    failure=None,
                    attempts=attempts,
                )
            # Prefer the newest failure frontier; a round that saw no
            # rejection at all keeps the previous context for the
            # record.
            result = round_result
            if result.failure is None:
                result.failure = failure
        else:
            metrics.incr("repair.exhausted")
        return SearchResult(
            status=result.status,
            theorem_name=theorem_name,
            tactics=list(result.tactics),
            stats=total_stats,
            failure=result.failure,
            attempts=attempts,
        )
