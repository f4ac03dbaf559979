"""Monte Carlo Tree Search over proof states (paper §5, future work).

The paper's Discussion names MCTS as the natural alternative to
best-first search.  This implementation follows the classic UCT
recipe, adapted to proof search:

* **Selection** — walk from the root by UCT
  (mean value + c·sqrt(ln N / n)), over children already expanded.
* **Expansion** — at a leaf, query the model once (one unit of fuel,
  same accounting as best-first) and attach the valid children.
* **Evaluation** — in lieu of rollouts (a random tactic playout is
  almost always rejected), a leaf is scored by a cheap heuristic:
  1.0 when the proof is complete, otherwise a decreasing function of
  the number of open goals, plus the model's prior (mean candidate
  log-probability).
* **Backpropagation** — the value updates mean statistics up the path.

Shares :class:`SearchConfig`, the checker, the generator protocol, the
expansion step (:mod:`repro.core.expand`) and the result types with the
best-first engine, so the ablation bench can swap engines behind one
interface.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.expand import Expander
from repro.core.node import Node
from repro.core.result import SearchResult, SearchStats, Status
from repro.core.search import PromptFn, SearchConfig
from repro.errors import GenerationError
from repro.kernel.terms import Term
from repro.llm.interface import TacticGenerator
from repro.serapi.checker import ProofChecker

__all__ = ["MCTSConfig", "MCTSSearch"]


@dataclass(frozen=True)
class MCTSConfig:
    width: int = 8
    fuel: int = 128
    tactic_timeout: float = 5.0
    exploration: float = 1.2  # UCT constant
    max_depth: int = 64

    @classmethod
    def from_search_config(cls, config: SearchConfig) -> "MCTSConfig":
        return cls(
            width=config.width,
            fuel=config.fuel,
            tactic_timeout=config.tactic_timeout,
        )


@dataclass
class _MNode(Node):
    """A search-tree node with UCT statistics; its prior is the model's
    log-probability of the tactic that reached it (``log_prob``)."""

    children: List["_MNode"] = field(default_factory=list)
    visits: int = 0
    value_sum: float = 0.0

    def mean_value(self) -> float:
        if self.visits == 0:
            return 0.0
        return self.value_sum / self.visits


def _leaf_value(node: _MNode) -> float:
    """Heuristic state evaluation in [0, 1]."""
    if node.state.is_complete():
        return 1.0
    goals = node.state.num_goals()
    # Fewer open goals is better; the prior nudges toward moves the
    # model believed in.
    base = 1.0 / (1.0 + goals)
    prior = math.exp(min(node.log_prob, 0.0))  # in (0, 1]
    return 0.6 * base + 0.3 * prior


class MCTSSearch:
    """UCT proof search with the same external contract as best-first."""

    def __init__(
        self,
        checker: ProofChecker,
        generator: TacticGenerator,
        config: Optional[MCTSConfig] = None,
    ) -> None:
        if not getattr(generator, "provides_log_probs", False):
            raise GenerationError(
                f"model {generator.name} provides no log-probabilities"
            )
        self.checker = checker
        self.generator = generator
        self.config = config or MCTSConfig()

    # ------------------------------------------------------------------

    def prove(
        self,
        theorem_name: str,
        statement: Term,
        prompt_fn: PromptFn,
    ) -> SearchResult:
        config = self.config
        stats = SearchStats()
        started = time.monotonic()
        expander = Expander(self.checker, stats, max_depth=config.max_depth)
        root = expander.root(self.checker.start(statement), _MNode)

        def finish(status: Status, tactics=None) -> SearchResult:
            stats.wall_seconds = time.monotonic() - started
            return SearchResult(
                status=status,
                theorem_name=theorem_name,
                tactics=list(tactics or []),
                stats=stats,
                failure=None if status is Status.PROVED else expander.failure,
            )

        while stats.queries < config.fuel:
            # Selection.
            node = root
            while node.expanded and node.children:
                node = self._uct_pick(node)
            if node.expanded and not node.children:
                # Exhausted leaf: mark it hopeless and continue unless
                # the whole tree is exhausted.
                self._backpropagate(node, 0.0)
                if root.expanded and self._tree_exhausted(root):
                    return finish(Status.STUCK)
                continue

            # Expansion (one model query = one fuel unit).
            prompt = prompt_fn(node.state, node.tactics_from_root())
            stats.queries += 1
            candidates = self.generator.generate(prompt, config.width)
            node.expanded = True
            stats.nodes_expanded += 1
            expansion = expander.expand(node, candidates)
            if expansion.proof is not None:
                return finish(
                    Status.PROVED, expansion.proof.tactics_from_root()
                )
            node.children = expansion.children

            # Evaluation + backpropagation.
            if node.children:
                best = max(node.children, key=_leaf_value)
                self._backpropagate(best, _leaf_value(best))
            else:
                self._backpropagate(node, 0.0)

            if self._tree_exhausted(root):
                return finish(Status.STUCK)
        return finish(Status.FUELOUT)

    # ------------------------------------------------------------------

    def _uct_pick(self, node: _MNode) -> _MNode:
        total = max(1, node.visits)
        log_total = math.log(total + 1)

        def uct(child: _MNode) -> float:
            exploit = child.mean_value()
            explore = self.config.exploration * math.sqrt(
                log_total / (child.visits + 1)
            )
            return exploit + explore + 0.05 * child.log_prob

        return max(node.children, key=uct)

    @staticmethod
    def _backpropagate(node: Optional[_MNode], value: float) -> None:
        while node is not None:
            node.visits += 1
            node.value_sum += value
            node = node.parent

    @staticmethod
    def _tree_exhausted(root: _MNode) -> bool:
        """True when every node is expanded and no frontier remains."""
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.expanded:
                return False
            stack.extend(node.children)
        return True
