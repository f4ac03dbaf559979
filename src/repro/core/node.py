"""Search-tree nodes.

A node is one proof state reached by a sequence of validated tactics;
its score is the cumulative log-probability of that sequence — the
paper's (and GPT-f's) estimate of proof-completion likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional

from repro.kernel.goals import ProofState

__all__ = ["Node"]


@dataclass
class Node:
    """One expanded-or-pending point in the search tree."""

    state: ProofState
    key: Hashable  # checker.state_key(): int fingerprint or oracle string
    cum_log_prob: float
    depth: int
    parent: Optional["Node"] = None
    tactic: Optional[str] = None  # tactic that produced this node
    log_prob: float = 0.0  # the model's log-probability of `tactic`

    def tactics_from_root(self) -> List[str]:
        """The tactic sequence from the root to this node."""
        steps: List[str] = []
        node: Optional[Node] = self
        while node is not None and node.tactic is not None:
            steps.append(node.tactic)
            node = node.parent
        steps.reverse()
        return steps
