"""The service's shared, persistent proof cache.

One search result is worth caching forever: a task's outcome is a pure
function of its :meth:`~repro.eval.tasks.TheoremTask.cache_key`
(content hash over theorem, model, and every search knob, versioned by
``CACHE_KEY_VERSION``), so the service can serve any repeat request —
from any client, across restarts — without a single model query.

Two layers:

* **Result cache** — backed by the evaluation layer's JSONL
  :class:`~repro.eval.store.RunStore`, the *same file format* sweeps
  write.  Point the server at an old sweep's store and it boots warm;
  conversely a server's cache file resumes an offline ``eval`` run.
  With no path, a **bounded** in-memory table serves the process
  lifetime: a store-less server is exactly the long-running deployment
  where an unbounded dict of OutcomeRecords (each carrying a generated
  proof) is a slow memory leak, so the fallback reuses the kernel's
  FIFO :class:`~repro.kernel.cache.BoundedCache` (unregistered — the
  per-task kernel-cache clear must never wipe proof results) and
  surfaces its eviction count in :meth:`ProofCache.stats`.
* **Single-flight admission** — identical requests that arrive while
  the first is still searching must not each burn a 128-query fuel
  budget.  :meth:`ProofCache.admit` hands the first caller a freshly
  created entry (the *leader*, who runs the search) and every
  concurrent duplicate the same entry (*followers*, who just wait on
  the leader's job).  The key leaves the in-flight table only via
  :meth:`release`, after the result has been published.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.eval.store import OutcomeRecord, RunStore
from repro.eval.tasks import TheoremTask
from repro.kernel.cache import BoundedCache
from repro.obs.metrics import NULL_METRICS, Metrics

__all__ = ["ProofCache", "DEFAULT_MEMORY_CAPACITY"]

T = TypeVar("T")

# Store-less fallback bound: at ~1 KiB per record this caps the
# in-memory table around a few MiB while still covering far more
# distinct (theorem, model, knobs) cells than any benchmark sweep.
DEFAULT_MEMORY_CAPACITY = 4096


class ProofCache:
    """Cross-request result cache + single-flight deduplication."""

    def __init__(
        self,
        path=None,
        metrics: Metrics = NULL_METRICS,
        memory_capacity: int = DEFAULT_MEMORY_CAPACITY,
    ) -> None:
        self.store: Optional[RunStore] = (
            RunStore(path) if path is not None else None
        )
        self.metrics = metrics
        self._lock = threading.Lock()
        # Store-less fallback (a read-through layer over the store is
        # unnecessary: RunStore keeps its own in-memory index).  FIFO-
        # bounded so a long-lived server cannot grow without limit;
        # register=False keeps it out of the kernel-cache registry,
        # whose per-task clear would otherwise wipe proof results.
        self._memory = BoundedCache(
            "service.proofcache", memory_capacity, register=False
        )
        # key -> whatever object admit()'s factory produced (a Job, in
        # the scheduler's case), while that work is in flight.
        self._inflight: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[OutcomeRecord]:
        """The cached record for ``key``, or None."""
        if self.store is not None and key in self.store:
            self.metrics.incr("service.cache.hits")
            return self.store.get(key)
        record = self._memory.get(key)
        if record is not None:
            self.metrics.incr("service.cache.hits")
            return record
        self.metrics.incr("service.cache.misses")
        return None

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is cached (not counted as a hit or miss)."""
        if self.store is not None:
            return key in self.store
        return key in self._memory.data

    def put(self, task: TheoremTask, record: OutcomeRecord) -> None:
        """Publish one completed search (persisted when backed by a file)."""
        if self.store is not None:
            self.store.put(task, record)  # RunStore.put is thread-safe
        else:
            before = self._memory.evictions
            self._memory.put(task.cache_key(), record)
            if self._memory.evictions > before:
                self.metrics.incr("service.cache.evictions")

    # ------------------------------------------------------------------
    # Single-flight admission
    # ------------------------------------------------------------------

    def admit(
        self, key: str, factory: Callable[[], T]
    ) -> Tuple[T, bool]:
        """Admit work for ``key``: ``(entry, created)``.

        The first caller for an in-flight key gets ``factory()``'s
        fresh entry and ``created=True`` (it owns running the work and
        must call :meth:`release` when the result is published).
        Concurrent duplicates get the *same* entry with
        ``created=False`` — one search, many waiters.  The factory runs
        under the admission lock, so it must be cheap (constructing a
        job record, not performing work).
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics.incr("service.singleflight.hits")
                return existing, False  # type: ignore[return-value]
            entry = factory()
            self._inflight[key] = entry
            return entry, True

    def release(self, key: str) -> None:
        """Retire an in-flight key (call after :meth:`put`).

        Publish-then-release ordering means a request arriving in
        between sees either the in-flight entry or the cached record —
        never a gap that would start a second search.
        """
        with self._lock:
            self._inflight.pop(key, None)

    def inflight_count(self) -> int:
        with self._lock:
            return len(self._inflight)

    def close(self) -> None:
        """Close the store's append handle (a later put reopens it)."""
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Cache gauges for ``/metrics``."""
        stats = {
            "persistent": self.store is not None,
            "records": (
                len(self.store)
                if self.store is not None
                else len(self._memory.data)
            ),
            "inflight": self.inflight_count(),
            "path": str(self.store.path) if self.store is not None else None,
        }
        if self.store is None:
            stats["capacity"] = self._memory.capacity
            stats["evictions"] = self._memory.evictions
        return stats
