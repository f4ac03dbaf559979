"""Frontier policies: which node the search expands next, and what an
expansion admits.

``SearchConfig.frontier`` names the policy that the one search loop
(:mod:`repro.core.search`) runs:

* ``best-first`` — the paper's choice: a max-priority queue over
  unexpanded nodes keyed by cumulative tactic log-probability (ties
  broken by insertion order for determinism);
* ``depth-first`` / ``breadth-first`` — a LIFO stack / FIFO queue over
  the same nodes;
* ``mcts`` — Monte Carlo tree search by UCT (:class:`MCTSFrontier`,
  the paper's §5 future work);
* ``linear`` — Rango-style trial-and-error linear search
  (:class:`LinearFrontier`, the paper's §2 related work).

A policy picks nodes through the reservation calls below, and admits
each expansion's children through its one hook, :meth:`Frontier.grow`.

Reservations (virtual loss)
---------------------------

The search at pipeline depth ``k`` selects up to ``k`` nodes before
the oldest is expanded.  It does so through :meth:`Frontier.reserve`:
a reserved node leaves the queue entirely — the virtual-loss limit
case, an infinite temporary penalty — so the next ``reserve`` call
picks the best *remaining* node (typically a sibling) instead of
re-selecting the same one.  Because this tree search never revisits a
node, full removal is exactly equivalent to the MCTS virtual-loss
trick of down-weighting an in-flight selection.  ``mcts`` and
``linear`` hand out one node at a time: a second ``reserve`` before
the first node is committed returns ``None``, so their records are the
same at every depth.

A reservation ends one of two ways:

* :meth:`Frontier.commit` — the node was expanded; it never returns
  to the queue (:meth:`Frontier.pop` is a reservation committed at
  once);
* :meth:`Frontier.release` — the search is exiting with the node
  still unexpanded (early proof, deadline expiry); the node re-enters
  the queue *at its original position* — same priority, same
  insertion-order tie-break — so the frontier remains a faithful
  picture of the unexpanded tree for resume/diagnostics.

Callers that release several reservations restore exact order by
releasing in reverse reservation order (see
``BestFirstSearch.prove``).
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.expand import Expander
from repro.core.node import Node
from repro.core.result import Status
from repro.llm.interface import Candidate

__all__ = [
    "Frontier",
    "BestFirstFrontier",
    "DepthFirstFrontier",
    "BreadthFirstFrontier",
    "MCTSFrontier",
    "LinearFrontier",
    "make_frontier",
]

#: How a policy ends a search: PROVED with the complete node, or STUCK.
Ending = Tuple[Status, Optional[Node]]

#: UCT's exploration constant.
EXPLORATION = 1.2
#: Backtracks a linear search may make; the next one ends it STUCK.
MAX_BACKTRACKS = 8


class Frontier:
    """Interface: push nodes, reserve the next node to expand, and grow
    the tree from each expansion."""

    def push(self, node: Node) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def reserve(self) -> Optional[Node]:  # pragma: no cover - abstract
        """Remove and return the next node, remembering how to undo it."""
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def pop(self) -> Optional[Node]:
        """Remove and return the next node for good."""
        node = self.reserve()
        if node is not None:
            self.commit(node)
        return node

    def commit(self, node: Node) -> None:
        """Finalize a reservation: the node was expanded."""

    def release(self, node: Node) -> None:
        """Undo a reservation: re-queue the node at its original spot.

        Subclasses guarantee exact restoration when callers release in
        reverse reservation order.
        """
        self.push(node)

    def grow(
        self,
        node: Node,
        candidates: Sequence[Candidate],
        expander: Expander,
    ) -> Optional[Ending]:
        """Admit the children the model's ``candidates`` give ``node``.

        The default validates every candidate, pushes each open child,
        and ends the search only with a proof.  Returns how the search
        ends, or ``None`` to go on.  The loop honours an ending before
        its fuel test, so an expansion that spends the last unit of
        fuel and leaves nothing to expand can end STUCK, not FUELOUT.
        """
        expansion = expander.expand(node, candidates)
        if expansion.proof is not None:
            return Status.PROVED, expansion.proof
        for child in expansion.children:
            self.push(child)
        return None


class BestFirstFrontier(Frontier):
    """Highest cumulative log-probability first (the paper's choice)."""

    def __init__(self) -> None:
        self._heap: List = []
        self._counter = 0
        # Reserved node -> its original heap entry (score, tie counter,
        # node), so release() restores priority AND tie order.
        self._reserved: Dict[int, Tuple[float, int, Node]] = {}

    def push(self, node: Node) -> None:
        heapq.heappush(self._heap, (-node.cum_log_prob, self._counter, node))
        self._counter += 1

    def reserve(self) -> Optional[Node]:
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        self._reserved[id(entry[2])] = entry
        return entry[2]

    def commit(self, node: Node) -> None:
        self._reserved.pop(id(node), None)

    def release(self, node: Node) -> None:
        entry = self._reserved.pop(id(node), None)
        if entry is None:  # released without reserve(): plain push
            self.push(node)
            return
        heapq.heappush(self._heap, entry)

    def __len__(self) -> int:
        return len(self._heap)


class DepthFirstFrontier(Frontier):
    """LIFO stack."""

    def __init__(self) -> None:
        self._stack: List[Node] = []

    def push(self, node: Node) -> None:
        self._stack.append(node)

    # reserve() pops from the tail; releasing in reverse reservation
    # order re-appends the earliest reservation last, restoring the
    # exact stack.
    def reserve(self) -> Optional[Node]:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)


class BreadthFirstFrontier(Frontier):
    """FIFO queue."""

    def __init__(self) -> None:
        # deque: list.pop(0) is O(n) per pop — a wide search pays a
        # quadratic shuffle; popleft() is O(1).
        self._queue: Deque[Node] = deque()

    def push(self, node: Node) -> None:
        self._queue.append(node)

    def reserve(self) -> Optional[Node]:
        return self._queue.popleft() if self._queue else None

    def release(self, node: Node) -> None:
        # Reservations came off the head; releasing in reverse
        # reservation order re-builds the original head sequence.
        self._queue.appendleft(node)

    def __len__(self) -> int:
        return len(self._queue)


def _leaf_value(node: Node) -> float:
    """Heuristic value in [0, 1] of an open node, in lieu of rollouts
    (a random tactic playout is almost always rejected): fewer open
    goals is better, and the prior nudges toward moves the model
    believed in."""
    base = 1.0 / (1.0 + node.state.num_goals())
    prior = math.exp(min(node.log_prob, 0.0))  # in (0, 1]
    return 0.6 * base + 0.3 * prior


class MCTSFrontier(Frontier):
    """UCT over proof states.

    * **Selection** — :meth:`reserve` walks down from the root by UCT
      (mean value + c·sqrt(ln N / n), plus a nudge toward the model's
      prior) over expanded nodes, to an unexpanded one.  A dead leaf
      (expanded, with no open children) is backed up with value 0 and
      the walk starts again from the root, spending no fuel.
    * **Expansion** — the loop's one model query (one unit of fuel).
    * **Evaluation and backpropagation** — :meth:`grow` backs up the
      best new child's :func:`_leaf_value`, or 0 when the expansion
      adds no child, along the path to the root.

    The search ends STUCK once no unexpanded node is left, which a
    count of them tells exactly, since a node is expanded at most
    once.  The tree's child lists, expanded set, visits and values are
    kept here, keyed by node identity, as :class:`BestFirstFrontier`
    keys its reservations.
    """

    def __init__(self) -> None:
        self._root: Optional[Node] = None
        self._children: Dict[int, List[Node]] = {}
        self._expanded: Set[int] = set()
        self._visits: Dict[int, int] = defaultdict(int)
        self._values: Dict[int, float] = defaultdict(float)
        self._unexpanded = 0
        self._reserved: Optional[Node] = None

    def push(self, node: Node) -> None:
        self._children[id(node)] = []
        if node.parent is None:
            self._root = node
        else:
            self._children[id(node.parent)].append(node)
        self._unexpanded += 1

    def reserve(self) -> Optional[Node]:
        if self._reserved is not None or not self._unexpanded:
            return None
        expanded = self._expanded
        while True:
            node = self._root
            while id(node) in expanded and self._children[id(node)]:
                node = self._pick(node)
            if id(node) not in expanded:
                self._reserved = node
                return node
            self._backup(node, 0.0)

    def commit(self, node: Node) -> None:
        self._reserved = None
        self._expanded.add(id(node))
        self._unexpanded -= 1

    def release(self, node: Node) -> None:
        self._reserved = None

    def __len__(self) -> int:
        return self._unexpanded - (self._reserved is not None)

    def grow(
        self,
        node: Node,
        candidates: Sequence[Candidate],
        expander: Expander,
    ) -> Optional[Ending]:
        expansion = expander.expand(node, candidates)
        if expansion.proof is not None:
            return Status.PROVED, expansion.proof
        for child in expansion.children:
            self.push(child)
        if expansion.children:
            best = max(expansion.children, key=_leaf_value)
            self._backup(best, _leaf_value(best))
        else:
            self._backup(node, 0.0)
        if not self._unexpanded:
            return Status.STUCK, None
        return None

    def _pick(self, node: Node) -> Node:
        """The child with the highest UCT score (the first on ties)."""
        visits, values = self._visits, self._values
        log_total = math.log(max(1, visits[id(node)]) + 1)

        def uct(child: Node) -> float:
            n = visits[id(child)]
            exploit = values[id(child)] / n if n else 0.0
            explore = EXPLORATION * math.sqrt(log_total / (n + 1))
            return exploit + explore + 0.05 * child.log_prob

        return max(self._children[id(node)], key=uct)

    def _backup(self, node: Optional[Node], value: float) -> None:
        while node is not None:
            self._visits[id(node)] += 1
            self._values[id(node)] += value
            node = node.parent


class LinearFrontier(Frontier):
    """One proof attempt at a time, greedy with bounded backtracking.

    :meth:`grow` validates the candidates in rank order only until one
    validates (``limit=1``), and that child is the next node to expand.
    It keeps a trail of (parent, untried candidates).  At a dead end,
    where no candidate validates, it backtracks along the trail and
    validates the most recent step's spare candidates, with no new
    model query.  The search ends STUCK when the trail runs out, or
    once it has backtracked more than ``MAX_BACKTRACKS`` times.
    """

    def __init__(self) -> None:
        self._node: Optional[Node] = None
        self._trail: List[Tuple[Node, Sequence[Candidate]]] = []
        self._backtracks = 0

    def push(self, node: Node) -> None:
        self._node = node

    def reserve(self) -> Optional[Node]:
        node, self._node = self._node, None
        return node

    def __len__(self) -> int:
        return int(self._node is not None)

    def grow(
        self,
        node: Node,
        candidates: Sequence[Candidate],
        expander: Expander,
    ) -> Optional[Ending]:
        child = self._step(expander, node, candidates)
        if child is None:
            while self._trail and child is None:
                child = self._step(expander, *self._trail.pop())
            if child is None:
                return Status.STUCK, None
            self._backtracks += 1
        if child.state.is_complete():
            return Status.PROVED, child
        if self._backtracks > MAX_BACKTRACKS:
            return Status.STUCK, None
        self.push(child)
        return None

    def _step(
        self,
        expander: Expander,
        parent: Node,
        ranked: Sequence[Candidate],
    ) -> Optional[Node]:
        """The child of the best candidate that validates, if any."""
        expansion = expander.expand(parent, ranked, limit=1)
        child = expansion.proof or next(iter(expansion.children), None)
        if child is not None:
            self._trail.append((parent, ranked[expansion.checked :]))
        return child


_KINDS = {
    "best-first": BestFirstFrontier,
    "depth-first": DepthFirstFrontier,
    "breadth-first": BreadthFirstFrontier,
    "mcts": MCTSFrontier,
    "linear": LinearFrontier,
}


def make_frontier(kind: str) -> Frontier:
    policy = _KINDS.get(kind)
    if policy is None:
        raise ValueError(f"unknown frontier kind: {kind}")
    return policy()
