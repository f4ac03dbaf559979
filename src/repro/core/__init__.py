"""The paper's contribution: LLM-guided best-first proof search."""

from repro.core.frontier import BestFirstFrontier, make_frontier
from repro.core.node import Node
from repro.core.result import SearchResult, SearchStats, Status
from repro.core.search import BestFirstSearch, SearchConfig

__all__ = [
    "BestFirstFrontier",
    "make_frontier",
    "Node",
    "SearchResult",
    "SearchStats",
    "Status",
    "BestFirstSearch",
    "SearchConfig",
]
