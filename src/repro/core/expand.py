"""The expansion step every frontier policy shares.

An expansion takes one node and the model's ranked candidates for it,
validates each candidate against the checker in rank order, and grows
the tree with the valid ones.  Every policy of the search loop
(:mod:`repro.core.frontier`: best-first, depth-first, breadth-first,
MCTS and linear) expands through :class:`Expander`, so they share one
definition of:

* **validity** — a tactic is invalid when the checker rejects it, when
  it recreates a proof state already in the tree (duplicate pruning,
  unless disabled), or when it exceeds the tactic timeout;
* **accounting** — the candidate, verdict and node counters of
  :class:`~repro.core.result.SearchStats`;
* **the failure frontier** — the deepest (then best-scoring) node whose
  expansion saw a rejection or timeout, with its top-ranked offending
  tactic: the :class:`~repro.core.result.FailureContext` a repair round
  resumes from.

The checker call sequence is the determinism-sensitive part of a
search; given the same node and candidates, an expansion makes the same
checker calls in the same order whichever policy drives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.node import Node
from repro.core.result import FailureContext, SearchStats
from repro.kernel.goals import ProofState
from repro.llm.interface import Candidate
from repro.serapi.checker import CheckResult, ProofChecker, Verdict

__all__ = ["Expander", "Expansion", "NO_CANDIDATES_TACTIC"]

#: Sentinel ``FailureContext.failed_tactic`` recorded when an expansion
#: produced no usable candidates at all (the model returned an empty
#: list, or only blank tactics).  Without it a search that starves this
#: way ends STUCK with ``failure=None`` and the repair engine — which
#: needs a failure frontier to resume from — would skip a theorem that
#: is in fact repair-eligible.
NO_CANDIDATES_TACTIC = "<no candidates>"


@dataclass
class Expansion:
    """What one expansion produced."""

    #: Valid children whose proof is still open, in rank order.
    #: Children at ``max_depth`` are created but left out.
    children: List[Node] = field(default_factory=list)
    #: A child whose proof is complete; validation stopped there.
    proof: Optional[Node] = None
    #: How many of the ranked candidates were validated (a prefix).
    checked: int = 0


class Expander:
    """Validates candidates and grows one search tree.

    ``dedup`` turns duplicate-state pruning on (the paper's rule) or
    off (an ablation); ``max_depth`` caps the depth of the children an
    expansion hands back for further search.
    """

    def __init__(
        self,
        checker: ProofChecker,
        stats: SearchStats,
        dedup: bool = True,
        max_depth: Optional[int] = None,
    ) -> None:
        self.checker = checker
        self.stats = stats
        self.max_depth = max_depth
        self.seen: Set = set()
        #: The state keys the checker prunes duplicates against.
        self.seen_keys: Optional[Set] = self.seen if dedup else None
        self.failure: Optional[FailureContext] = None
        self._failure_rank: Tuple[int, float] = (-1, 0.0)

    def root(self, state: ProofState) -> Node:
        """The tree's root node for the initial proof state."""
        return self._admit(
            Node(
                state=state,
                key=self.checker.state_key(state),
                cum_log_prob=0.0,
                depth=0,
            )
        )

    def child(
        self,
        parent: Node,
        state: ProofState,
        tactic: str,
        cum_log_prob: float,
        log_prob: float = 0.0,
    ) -> Node:
        """A new node reached by ``tactic``."""
        return self._admit(
            Node(
                state=state,
                key=self.checker.state_key(state),
                cum_log_prob=cum_log_prob,
                depth=parent.depth + 1,
                parent=parent,
                tactic=tactic,
                log_prob=log_prob,
            )
        )

    def _admit(self, node: Node) -> Node:
        self.seen.add(node.key)
        self.stats.nodes_created += 1
        return node

    def expand(
        self,
        node: Node,
        candidates: Sequence[Candidate],
        limit: Optional[int] = None,
    ) -> Expansion:
        """Validate ``candidates`` (best first) at ``node``.

        Stops at the first child that completes the proof, or once
        ``limit`` open children exist.
        """
        stats = self.stats
        expansion = Expansion()
        # The first rejection here: its tactic and check result, whose
        # message is formatted only if it becomes the failure frontier.
        node_fail: Optional[Tuple[str, CheckResult]] = None
        for candidate in candidates:
            expansion.checked += 1
            stats.candidates += 1
            check = self.checker.check(
                node.state, candidate.tactic, seen_keys=self.seen_keys
            )
            if check.verdict is Verdict.DUPLICATE:
                stats.duplicates += 1
                continue
            if check.verdict is not Verdict.VALID:
                if check.verdict is Verdict.TIMEOUT:
                    stats.timeouts += 1
                else:
                    stats.rejected += 1
                if node_fail is None:
                    node_fail = (candidate.tactic, check)
                continue
            assert check.state is not None
            child = self.child(
                node,
                check.state,
                candidate.tactic,
                node.cum_log_prob + candidate.log_prob,
                candidate.log_prob,
            )
            if check.state.is_complete():
                expansion.proof = child
                return expansion
            if self.max_depth is None or child.depth < self.max_depth:
                expansion.children.append(child)
            if limit is not None and len(expansion.children) >= limit:
                break

        if (node_fail is None or not node_fail[0].strip()) and all(
            not candidate.tactic.strip() for candidate in candidates
        ):
            # Zero-candidate expansion (empty list, or only blank
            # tactics — e.g. repair feedback suppressed everything the
            # model had): without a recorded failure this node would
            # leave the search STUCK with failure=None and therefore
            # repair-ineligible.  Record a sentinel so the failure
            # frontier survives.
            node_fail = (
                NO_CANDIDATES_TACTIC,
                CheckResult(
                    Verdict.REJECTED,
                    detail="model returned no usable candidates",
                ),
            )
        if node_fail is not None:
            rank = (node.depth, node.cum_log_prob)
            if rank > self._failure_rank:
                self._failure_rank = rank
                tactic, check = node_fail
                self.failure = FailureContext(
                    prefix=tuple(node.tactics_from_root()),
                    goal=node.state.render()[:1000],
                    depth=node.depth,
                    failed_tactic=tactic,
                    message=check.message,
                    verdict=check.verdict.value,
                )
        return expansion
