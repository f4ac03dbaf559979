"""Rango-style trial-and-error linear search (paper §2, related work).

The paper contrasts its best-first tree search with Rango's
"trial-and-error linear search": keep a single proof-in-progress; at
each step ask the model for candidates, take the best one that
validates, and never revisit earlier states except by bounded
backtracking when every candidate fails.

Implemented here so the ablation bench can compare the disciplines
under identical fuel; candidates are validated by the expansion step
every engine shares (:mod:`repro.core.expand`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.expand import Expander
from repro.core.node import Node
from repro.core.result import SearchResult, SearchStats, Status
from repro.core.search import PromptFn, SearchConfig
from repro.errors import GenerationError
from repro.kernel.terms import Term
from repro.llm.interface import Candidate, TacticGenerator
from repro.serapi.checker import ProofChecker

__all__ = ["LinearConfig", "LinearSearch"]


@dataclass(frozen=True)
class LinearConfig:
    width: int = 8
    fuel: int = 128
    tactic_timeout: float = 5.0
    max_backtracks: int = 8

    @classmethod
    def from_search_config(cls, config: SearchConfig) -> "LinearConfig":
        return cls(
            width=config.width,
            fuel=config.fuel,
            tactic_timeout=config.tactic_timeout,
        )


class LinearSearch:
    """One proof attempt at a time, greedy with bounded backtracking."""

    def __init__(
        self,
        checker: ProofChecker,
        generator: TacticGenerator,
        config: Optional[LinearConfig] = None,
    ) -> None:
        if not getattr(generator, "provides_log_probs", False):
            raise GenerationError(
                f"model {generator.name} provides no log-probabilities"
            )
        self.checker = checker
        self.generator = generator
        self.config = config or LinearConfig()

    def prove(
        self,
        theorem_name: str,
        statement: Term,
        prompt_fn: PromptFn,
    ) -> SearchResult:
        config = self.config
        stats = SearchStats()
        started = time.monotonic()
        expander = Expander(self.checker, stats)

        def finish(status: Status, node: Optional[Node] = None):
            stats.wall_seconds = time.monotonic() - started
            return SearchResult(
                status=status,
                theorem_name=theorem_name,
                tactics=node.tactics_from_root() if node is not None else [],
                stats=stats,
                failure=None if status is Status.PROVED else expander.failure,
            )

        # The trail holds (node, untried candidates) so backtracking
        # can try the next-best candidate at an earlier step.
        trail: List[Tuple[Node, Sequence[Candidate]]] = []

        def step(parent: Node, ranked: Sequence[Candidate]) -> Optional[Node]:
            """The child of the best candidate that validates, if any."""
            expansion = expander.expand(parent, ranked, limit=1)
            child = expansion.proof or next(iter(expansion.children), None)
            if child is not None:
                trail.append((parent, ranked[expansion.checked :]))
            return child

        node = expander.root(self.checker.start(statement))
        backtracks = 0
        while stats.queries < config.fuel:
            prompt = prompt_fn(node.state, node.tactics_from_root())
            stats.queries += 1
            candidates = self.generator.generate(prompt, config.width)
            node.expanded = True
            stats.nodes_expanded += 1
            child = step(node, candidates)
            if child is None:
                # Dead end: backtrack to the most recent step with a
                # spare candidate that still validates.
                while trail and child is None:
                    child = step(*trail.pop())
                if child is None:
                    return finish(Status.STUCK)
                backtracks += 1
            if child.state.is_complete():
                return finish(Status.PROVED, child)
            if backtracks > config.max_backtracks:
                return finish(Status.STUCK)
            node = child
        return finish(Status.FUELOUT)
