"""The best-first frontier.

A max-priority queue over unexpanded nodes keyed by cumulative tactic
log-probability (ties broken by insertion order for determinism).
Alternative disciplines (DFS/BFS) are provided for the ablation bench
in ``benchmarks/test_ablation_search.py``.

Reservations (virtual loss)
---------------------------

The search (:mod:`repro.core.search`) at pipeline depth ``k`` selects
up to ``k`` nodes before the oldest is expanded.  It does so through
:meth:`Frontier.reserve`: a reserved node leaves the queue
entirely — the virtual-loss limit case, an infinite temporary penalty
— so the next ``reserve`` call picks the best *remaining* node
(typically a sibling) instead of re-selecting the same one.  Because
this tree search never revisits a node, full removal is exactly
equivalent to the MCTS virtual-loss trick of down-weighting an
in-flight selection.

A reservation ends one of two ways:

* :meth:`Frontier.commit` — the node was expanded; it never returns
  to the queue (like ``pop``);
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
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.node import Node

__all__ = ["Frontier", "BestFirstFrontier", "DepthFirstFrontier", "BreadthFirstFrontier", "make_frontier"]


class Frontier:
    """Interface: push nodes, pop (or reserve) the next node to expand."""

    def push(self, node: Node) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def pop(self) -> Optional[Node]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- reservations (defaults suit disciplines without extra state) --

    def reserve(self) -> Optional[Node]:
        """Remove and return the next node, remembering how to undo it."""
        return self.pop()

    def commit(self, node: Node) -> None:
        """Finalize a reservation: the node was expanded."""

    def release(self, node: Node) -> None:
        """Undo a reservation: re-queue the node at its original spot.

        Subclasses guarantee exact restoration when callers release in
        reverse reservation order.
        """
        self.push(node)


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

    def pop(self) -> Optional[Node]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

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
    """LIFO stack (trial-and-error linear search, Rango-style)."""

    def __init__(self) -> None:
        self._stack: List[Node] = []

    def push(self, node: Node) -> None:
        self._stack.append(node)

    def pop(self) -> Optional[Node]:
        return self._stack.pop() if self._stack else None

    # reserve() pops from the tail; releasing in reverse reservation
    # order re-appends the earliest reservation last, restoring the
    # exact stack.
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

    def pop(self) -> Optional[Node]:
        return self._queue.popleft() if self._queue else None

    def release(self, node: Node) -> None:
        # Reservations came off the head; releasing in reverse
        # reservation order re-builds the original head sequence.
        self._queue.appendleft(node)

    def __len__(self) -> int:
        return len(self._queue)


def make_frontier(kind: str) -> Frontier:
    if kind == "best-first":
        return BestFirstFrontier()
    if kind == "depth-first":
        return DepthFirstFrontier()
    if kind == "breadth-first":
        return BreadthFirstFrontier()
    raise ValueError(f"unknown frontier kind: {kind}")
