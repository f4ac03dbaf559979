"""The kernel's memo tables and the switch that bypasses them.

Every candidate tactic the search engine tries costs substitution,
reduction, and a duplicate-detection key; best-first search revisits
the same hypothesis terms thousands of times, so the kernel memoizes
its pure functions.  This module holds the shared machinery:

* :class:`BoundedCache` — a FIFO-evicting dict with hit/miss counters.
* per-search memos — :func:`register` declares a memo table by name
  and capacity.  Each kernel state (a :class:`~repro.kernel.arena.
  TermArena`: one per search, plus a default outside any search)
  builds its own table on first use, so a search's entries, ids and
  counts are its own and die with it (DESIGN.md §4a).
* process totals — :func:`cache_stats` sums the lookups of every
  kernel state, live and retired (``kernel.cache.<name>.*``).
* a global enable switch — ``REPRO_KERNEL_CACHE=0`` in the
  environment, :func:`configure`, or the CLI's ``--no-kernel-cache``
  flag turn every memo off, restoring the pristine code paths (the
  differential-soundness oracle in ``tests/kernel``).

Safety argument (DESIGN.md §4a): every memoized function is a pure
function of its key.  Terms are frozen dataclasses, so a term-keyed
entry can never go stale; reduction additionally keys on the
environment object and its declaration generation, so corpus loading
(which mutates the environment between proofs) invalidates reduction
entries instead of serving stale ones.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "BoundedCache",
    "MemoTables",
    "register",
    "enabled",
    "configure",
    "disabled",
    "clear_caches",
    "cache_stats",
    "stats_delta",
]

_MISSING = object()

_ENABLED: bool = os.environ.get("REPRO_KERNEL_CACHE", "1").lower() not in (
    "0",
    "off",
    "false",
    "no",
)


class BoundedCache:
    """A memo table with an explicit size bound and hit/miss counters.

    Eviction is FIFO (dicts preserve insertion order): the memo
    workloads here are dominated by a hot recent working set, and FIFO
    keeps the hit path to a single dict probe.  A table built directly
    is the caller's to keep, e.g. the text memos whose entries outlive
    a search; the kernel's own memos are :func:`register`-ed instead.
    """

    __slots__ = ("name", "capacity", "data", "hits", "misses", "evictions")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.data: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Any:
        """The cached value for ``key``, or ``None`` (counted as miss)."""
        value = self.data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        data = self.data
        if len(data) >= self.capacity and key not in data:
            # FIFO eviction; tolerate races on a table shared by
            # threads (worst case a concurrent put already evicted the
            # head).
            try:
                del data[next(iter(data))]
                self.evictions += 1
            except (StopIteration, KeyError, RuntimeError):
                pass
        data[key] = value

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self.data),
            "capacity": self.capacity,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }


# ----------------------------------------------------------------------
# Per-search memo tables
# ----------------------------------------------------------------------

_CAPACITY: Dict[str, int] = {}


def register(name: str, capacity: int) -> str:
    """Declare a memo table every kernel state holds; returns ``name``.

    Memo sites look their table up on the state they already fetched:
    ``arena.current().tables[name]``.
    """
    _CAPACITY[name] = capacity
    return name


class MemoTables(dict):
    """One kernel state's registered memo tables, each built on first use."""

    __slots__ = ()

    def __missing__(self, name: str) -> BoundedCache:
        # setdefault: two threads sharing the default state keep one.
        return self.setdefault(name, BoundedCache(name, _CAPACITY[name]))


# ----------------------------------------------------------------------
# Global switch
# ----------------------------------------------------------------------


def enabled() -> bool:
    """True when the kernel memo caches are active."""
    return _ENABLED


def configure(enabled: bool) -> None:
    """Globally enable/disable the kernel caches (``--no-kernel-cache``)."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with every kernel cache bypassed (tests/oracles)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def clear_caches() -> None:
    """Replace the default kernel state, outside any search, with a
    fresh one.  A running search's state is its own: no clear reaches
    it."""
    from repro.kernel import arena

    arena.reset()


# ----------------------------------------------------------------------
# Statistics: process totals over every kernel state
# ----------------------------------------------------------------------

_STATS_LOCK = threading.Lock()
_LIVE: set = set()  # states still counting (the default and open scopes)
_RETIRED: Dict[str, Dict[str, float]] = {}  # lookups of dropped states
_SUMMED = ("hits", "misses", "evictions", "size")


def track(state) -> None:
    """Count ``state``'s lookups in :func:`cache_stats` from now on."""
    with _STATS_LOCK:
        _LIVE.add(state)


def retire(state) -> None:
    """Fold a dropped ``state``'s lookups into the process totals."""
    stats = state.stats()
    for cell in stats.values():
        cell["size"] = 0  # a dropped state holds no entries
    with _STATS_LOCK:
        _LIVE.discard(state)
        _add(_RETIRED, stats)


def _add(totals: Dict[str, Dict[str, float]], stats) -> None:
    for name, cell in stats.items():
        total = totals.setdefault(name, dict.fromkeys(_SUMMED, 0))
        for field in _SUMMED:
            total[field] += cell[field]
        total["capacity"] = cell["capacity"]


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Per-table ``{hits, misses, size, capacity, evictions, hit_rate}``
    summed over every kernel state so far; ``size`` counts the entries
    live states hold."""
    with _STATS_LOCK:
        out = {name: dict(cell) for name, cell in _RETIRED.items()}
        for state in _LIVE:
            _add(out, state.stats())
    for cell in out.values():
        lookups = cell["hits"] + cell["misses"]
        cell["hit_rate"] = cell["hits"] / lookups if lookups else 0.0
    return out


def stats_delta(
    before: Dict[str, Dict[str, int]],
    after: Optional[Dict[str, Dict[str, int]]] = None,
) -> Dict[str, Dict[str, int]]:
    """Hit/miss deltas between two :func:`cache_stats` snapshots."""
    if after is None:
        after = cache_stats()
    delta: Dict[str, Dict[str, int]] = {}
    for name, cell in after.items():
        base = before.get(name, {})
        hits = cell["hits"] - base.get("hits", 0)
        misses = cell["misses"] - base.get("misses", 0)
        if hits or misses:
            delta[name] = {"hits": hits, "misses": misses}
    return delta
