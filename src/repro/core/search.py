"""The proof search loop (the paper's §3).

The loop alternates the paper's two steps:

* **Selection** — the frontier policy named by ``SearchConfig.frontier``
  (:mod:`repro.core.frontier`) picks the next node.  Best-first, the
  paper's choice, takes the unexpanded node with the highest
  cumulative log-probability of its tactic prefix; MCTS and linear
  search are policies of this same loop.
* **Expansion** — query the model once (one unit of fuel) for up to
  ``width`` candidate tactics; the policy's ``grow`` hook validates
  them against the checker (:mod:`repro.core.expand`) and admits the
  valid ones as children.

A tactic is invalid if it is rejected by the checker, recreates a
proof state already in the tree, or exceeds the tactic timeout.
Search succeeds as soon as any child state is complete; it fails
*stuck* when nothing is left to expand (or the policy gives up) and
*fuelout* when the query limit (paper: 128) is exhausted.  A policy's
ending is honoured before the fuel test.

Pipelining (``SearchConfig.pipeline_depth``, default 1): up to
``pipeline_depth`` selected nodes are kept in flight.  Selection
*reserves* a node (virtual loss — a reserved node leaves the queue, so
the next reservation picks a sibling), and expansions are committed
strictly in reservation order, so the tree — and every outcome record —
is a pure function of the selection sequence.  Depth 1 is the paper's
serial loop.  At depth *k*, when the oldest reserved node's query has
not gone out yet, the queries of every reserved node go to the model
together, in one call through
:class:`repro.core.pipeline.GenerationPipeline` — the search's only way
to call the model — so a batching endpoint charges one round-trip for up
to *k* queries, and no thread is started.  At depth > 1 selection is
speculative (round *i+1* is chosen before round *i*'s children exist),
so the *exploration order* may differ from depth 1 — coverage is pinned
by ``tests/eval/test_pipeline_determinism.py``.  The ``mcts`` and
``linear`` policies reserve one node at a time, so their records are
the same at every depth.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Sequence

from repro.core.expand import NO_CANDIDATES_TACTIC, Expander
from repro.core.frontier import make_frontier
from repro.core.node import Node
from repro.core.pipeline import GenerationHandle, GenerationPipeline
from repro.core.result import SearchResult, SearchStats, Status
from repro.deadline import Deadline
from repro.errors import GenerationError
from repro.kernel.goals import ProofState
from repro.kernel.terms import Term
from repro.llm.interface import TacticGenerator
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.serapi.checker import ProofChecker, Verdict

__all__ = ["SearchConfig", "BestFirstSearch", "NO_CANDIDATES_TACTIC"]

PromptFn = Callable[[ProofState, Sequence[str]], str]


@dataclass(frozen=True)
class SearchConfig:
    """Hyperparameters (defaults follow the paper §4)."""

    width: int = 8  # candidates per query (Gemini's max outputs)
    fuel: int = 128  # model-query limit (as in GPT-f)
    tactic_timeout: float = 5.0  # seconds per tactic
    frontier: str = "best-first"
    dedup_states: bool = True  # ablation: duplicate-state pruning
    max_depth: int = 64
    # Per-theorem wall-clock budget: the search yields a clean TIMEOUT
    # outcome when it expires (checked between expansions), instead of
    # running unbounded.  None = no deadline (the paper's setting).
    theorem_deadline: Optional[float] = None
    # Selected nodes kept in flight (repro.core.pipeline): 1 is the
    # paper's serial loop; k >= 2 sends up to k model queries per call.
    # Deliberately NOT part of TheoremTask.cache_key() — like `trace`,
    # it is an execution knob, not a sweep cell coordinate (see
    # repro.eval.config.ExperimentConfig.pipeline_depth).
    pipeline_depth: int = 1


class BestFirstSearch:
    """One searcher per (checker, generator, config) triple."""

    def __init__(
        self,
        checker: ProofChecker,
        generator: TacticGenerator,
        config: Optional[SearchConfig] = None,
        metrics: Metrics = NULL_METRICS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """``metrics`` is the telemetry handle: the search, each
        selection, each expansion, and each expansion's prompt builds
        and generation wait are spans on it.  ``clock`` feeds the
        wall-clock stats and the per-theorem deadline (injectable for
        timeout tests)."""
        if not getattr(generator, "provides_log_probs", False):
            raise GenerationError(
                f"model {generator.name} provides no log-probabilities; "
                "best-first search requires them (paper §4.3)"
            )
        self.checker = checker
        self.generator = generator
        self.config = config or SearchConfig()
        self.metrics = metrics
        self.clock = clock

    def prove(
        self,
        theorem_name: str,
        statement: Term,
        prompt_fn: PromptFn,
        initial_tactics: Sequence[str] = (),
    ) -> SearchResult:
        """Search for a proof of ``statement``.

        ``initial_tactics`` seeds the tree with a validated tactic
        prefix (the repair engine resumes from a failed search's
        surviving prefix this way): each tactic is replayed through
        the checker from the root, and every surviving prefix node
        joins the frontier — deeper nodes with a strictly better
        score, so the search expands the failure frontier first but
        can still back off to shallower alternatives (including the
        root).  A prefix tactic the checker now refuses simply
        truncates the prefix there.
        """
        config = self.config
        metrics = self.metrics
        stats = SearchStats()
        started = self.clock()
        deadline = (
            Deadline.after(config.theorem_deadline, clock=self.clock)
            if config.theorem_deadline is not None
            else None
        )
        pipeline = GenerationPipeline(self.generator, config.pipeline_depth)
        expander = Expander(
            self.checker,
            stats,
            dedup=config.dedup_states,
            max_depth=config.max_depth,
        )
        root = expander.root(self.checker.start(statement))
        frontier = make_frontier(config.frontier)
        frontier.push(root)

        # Replay the seed prefix: one chain of nodes below the root.
        # Prefix node at depth d scores +d*1e-6 — strictly above the
        # root's 0.0 and increasing with depth — so the deepest node
        # (the failure frontier being repaired) is selected first.
        # (The old -(n-d)*1e-6 scoring gave the deepest node exactly
        # 0.0, tying the root; the insertion-order tie-break then made
        # every repair round re-expand the root before the frontier it
        # was supposed to resume from.)
        node = root
        for offset, tactic in enumerate(initial_tactics):
            check = self.checker.check(
                node.state, tactic, seen_keys=expander.seen_keys
            )
            if check.verdict is not Verdict.VALID or check.state is None:
                break
            node = expander.child(
                node, check.state, tactic, (offset + 1) * 1e-6
            )
            if check.state.is_complete():
                # The prefix already closes the proof (possible when a
                # timed-out search is resumed with a longer budget).
                break
            frontier.push(node)

        def finish(
            status: Status, last: Optional[Node] = None
        ) -> SearchResult:
            stats.wall_seconds = self.clock() - started
            if metrics.tracing:
                search_span.set(
                    status=status.value,
                    queries=stats.queries,
                    fuel=config.fuel,
                    nodes_created=stats.nodes_created,
                    nodes_expanded=stats.nodes_expanded,
                    rejected=stats.rejected,
                    duplicates=stats.duplicates,
                    timeouts=stats.timeouts,
                )
            return SearchResult(
                status=status,
                theorem_name=theorem_name,
                tactics=[] if last is None else last.tactics_from_root(),
                stats=stats,
                failure=None if status is Status.PROVED else expander.failure,
            )

        # Reserved nodes, oldest first, and the handles of the queries
        # already sent — always those of the oldest reserved nodes.
        reserved: Deque[Node] = deque()
        sent: Deque[GenerationHandle] = deque()

        def release_reserved() -> None:
            # Reverse order restores the exact frontier (see
            # repro.core.frontier docstring).
            for pending in reversed(reserved):
                frontier.release(pending)

        with metrics.span("search", theorem=theorem_name) as search_span:
            if node is not root and node.state.is_complete():
                return finish(Status.PROVED, node)
            while True:
                # Fill: reserve frontier nodes until the pipeline is full.
                while len(reserved) < config.pipeline_depth:
                    # The per-theorem deadline is polled once per
                    # reservation — individual tactics are already
                    # bounded by the 5 s tactic deadline, so one check
                    # per model query caps the overrun at a single
                    # expansion's work.
                    if deadline is not None and deadline.expired():
                        release_reserved()
                        return finish(Status.TIMEOUT)
                    # Fuel is checked before reserving: on FUELOUT the
                    # next node stays in the frontier, so the frontier
                    # is a faithful picture of the unexpanded tree for
                    # resume/diagnostics.
                    if stats.queries >= config.fuel:
                        break
                    with metrics.span("select") as select_span:
                        node = frontier.reserve()
                        if metrics.tracing and node is not None:
                            select_span.set(
                                depth=node.depth,
                                score=round(node.cum_log_prob, 6),
                            )
                    if node is None:
                        break
                    stats.queries += 1
                    reserved.append(node)

                if not reserved:
                    # Nothing in flight and nothing to reserve: terminal.
                    if stats.queries >= config.fuel:
                        return finish(Status.FUELOUT)
                    return finish(Status.STUCK)

                # Commit: expand the oldest reserved node.
                node = reserved[0]
                with metrics.span("expand") as expand_span:
                    if metrics.tracing:
                        # Whitespace-collapsed so the one-line preview
                        # renders cleanly in the trace tree.
                        goal = " ".join(node.state.render().split())
                        expand_span.set(
                            query=stats.nodes_expanded + 1,
                            fuel=config.fuel,
                            depth=node.depth,
                            score=round(node.cum_log_prob, 6),
                            goal=goal[:160],
                            inflight=len(reserved),
                        )
                    if not sent:
                        # Its query has not gone out: build the prompt
                        # of every reserved node, so the result() below
                        # sends all of them in one model call.
                        for pending in reserved:
                            with metrics.span("prompt_build"):
                                prompt = prompt_fn(
                                    pending.state, pending.tactics_from_root()
                                )
                            sent.append(pipeline.submit(prompt, config.width))
                    reserved.popleft()
                    with metrics.span("generation") as generation_span:
                        candidates = sent.popleft().result()
                        if metrics.tracing:
                            generation_span.set(candidates=len(candidates))
                    frontier.commit(node)
                    stats.nodes_expanded += 1

                    # The policy admits the children; its ending (a
                    # proof, or STUCK) is honoured before the fuel test.
                    ending = frontier.grow(node, candidates, expander)
                    if ending is not None:
                        release_reserved()
                        return finish(*ending)
