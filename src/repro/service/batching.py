"""Micro-batched LLM dispatch for concurrent proof searches.

Every best-first expansion is one independent ``generate(prompt, k)``
call; a server running many searches at once therefore has many such
calls in flight against one model backend.  Real endpoints price and
rate-limit *per request*, and batch completion APIs amortize the
round-trip — so the service funnels all generation through one
:class:`BatchingGenerator` per model, which collects concurrent calls
into micro-batches and dispatches them via the optional
``generate_batch`` protocol method (falling back to element-wise solo
calls when the model has none).

Batching policy (:class:`BatchPolicy`): a batch is dispatched when it
reaches ``max_batch_size`` elements, or when ``batch_window`` seconds
have passed since its *oldest* element arrived — bounded added latency,
opportunistic amortization.  ``max_batch_size=1`` disables batching
entirely (every call goes straight through, no queue, no thread).

Determinism contract (hard): each batched element's candidates are
byte-identical to a solo ``generate`` call.  The batcher never splits,
reorders, merges, or edits element results; the underlying model's
``generate_batch`` is itself element-wise pure (see
:meth:`repro.llm.models.SimulatedModel.generate_batch`).  Batch
*composition* — which requests share a dispatch — depends on arrival
timing and may vary run to run; by the contract, it is unobservable in
the results.  ``tests/service/test_batching.py`` pins this.

Structure: the window/size policy lives in :class:`BatchPlanner`, a
pure, lock-free, fake-clock-testable state machine; the thread-safe
:class:`BatchingGenerator` wraps it with a condition variable and a
single dispatcher thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.llm.interface import (
    Candidate,
    GenerationRequest,
    TacticGenerator,
    generate_batch,
)

__all__ = ["BatchPolicy", "BatchPlanner", "BatchingGenerator"]


@dataclass(frozen=True)
class BatchPolicy:
    """When to close and dispatch a micro-batch."""

    #: Seconds a batch may wait for co-travellers after its first
    #: element arrives.  0 disables the wait: every dispatch takes
    #: whatever is queued at that instant.
    batch_window: float = 0.01
    #: Elements that force an immediate dispatch.  1 disables batching.
    max_batch_size: int = 8

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")


class _Pending:
    """One caller's request, parked until its batch returns."""

    __slots__ = ("prompt", "k", "arrived", "event", "result", "error")

    def __init__(self, prompt: str, k: int, arrived: float) -> None:
        self.prompt = prompt
        self.k = k
        self.arrived = arrived
        self.event = threading.Event()
        self.result: Optional[List[Candidate]] = None
        self.error: Optional[BaseException] = None


class BatchPlanner:
    """The pure batching policy: a queue of pending requests + a clock.

    Not thread-safe — callers synchronise externally.  All timing
    comes in through method arguments, so tests drive the window logic
    with a fake clock and no sleeps.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self.queue: List[_Pending] = []

    def add(self, pending: _Pending) -> None:
        self.queue.append(pending)

    def __len__(self) -> int:
        return len(self.queue)

    def ready(self, now: float) -> bool:
        """True when the head batch should dispatch at time ``now``."""
        if not self.queue:
            return False
        if len(self.queue) >= self.policy.max_batch_size:
            return True
        return now - self.queue[0].arrived >= self.policy.batch_window

    def wait_budget(self, now: float) -> Optional[float]:
        """Seconds until the head batch becomes due (None = no queue)."""
        if not self.queue:
            return None
        if len(self.queue) >= self.policy.max_batch_size:
            return 0.0
        due_at = self.queue[0].arrived + self.policy.batch_window
        return max(0.0, due_at - now)

    def take(self) -> List[_Pending]:
        """Remove and return the head batch (up to ``max_batch_size``)."""
        size = self.policy.max_batch_size
        batch, self.queue = self.queue[:size], self.queue[size:]
        return batch


class BatchingGenerator:
    """A :class:`TacticGenerator` that micro-batches concurrent calls.

    One instance is shared by every search using the same model; each
    caller's ``generate`` blocks until the dispatcher returns its
    element.  Sits *below* the per-job
    :class:`~repro.llm.resilient.ResilientGenerator`, so retries re-
    enqueue individual elements rather than whole batches.
    """

    def __init__(
        self,
        inner: TacticGenerator,
        policy: Optional[BatchPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        self.inner = inner
        self.policy = policy or BatchPolicy()
        self.clock = clock
        self.metrics = metrics
        # TacticGenerator surface, delegated.
        self.name = inner.name
        self.context_window = inner.context_window
        self.provides_log_probs = getattr(inner, "provides_log_probs", False)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._planner = BatchPlanner(self.policy)
        self._closed = False
        self._dispatcher: Optional[threading.Thread] = None
        # Dispatch statistics (under _lock).
        self._batches = 0
        self._batched_queries = 0
        self._max_batch = 0

    # ------------------------------------------------------------------
    # TacticGenerator surface
    # ------------------------------------------------------------------

    def generate(self, prompt: str, k: int) -> List[Candidate]:
        if self.policy.max_batch_size <= 1:
            # Batching disabled: the undecorated solo path.
            return self.inner.generate(prompt, k)
        pending = _Pending(prompt, k, self.clock())
        with self._cond:
            if self._closed:
                raise RuntimeError(
                    f"BatchingGenerator for {self.name} is closed"
                )
            self._ensure_dispatcher()
            self._planner.add(pending)
            self._cond.notify_all()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def generate_batch(
        self, requests: Sequence[GenerationRequest]
    ) -> List[List[Candidate]]:
        """Pre-formed batches skip the window and dispatch directly."""
        return generate_batch(self.inner, requests)

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def _ensure_dispatcher(self) -> None:
        # Started lazily so idle/batching-disabled instances cost no
        # thread; restarted if a previous close() tore it down.
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._run,
                name=f"batcher:{self.name}",
                daemon=True,
            )
            self._dispatcher.start()

    def _run(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._closed and not self._planner.queue:
                        return
                    budget = self._planner.wait_budget(self.clock())
                    if budget is None:
                        # Idle: sleep until a request or close() wakes us.
                        self._cond.wait()
                        continue
                    if self._closed or self._planner.ready(self.clock()):
                        break
                    # Wait out the remaining window (new arrivals that
                    # fill the batch notify and re-evaluate early).
                    self._cond.wait(budget)
                batch = self._planner.take()
            self._dispatch(batch)

    def _dispatch(self, batch: List[_Pending]) -> None:
        requests = [(p.prompt, p.k) for p in batch]
        self._note_dispatch(len(batch))
        try:
            results = generate_batch(self.inner, requests)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"generate_batch returned {len(results)} results for "
                    f"{len(batch)} requests"
                )
        except BaseException:
            # A failed batch call must not fail innocent co-travellers:
            # fall back to solo calls so each element succeeds or fails
            # on its own (the solo path is the determinism reference,
            # so results are unchanged for the survivors).
            self._incr("service.batch.fallbacks")
            for pending in batch:
                try:
                    pending.result = self.inner.generate(
                        pending.prompt, pending.k
                    )
                except BaseException as exc:
                    pending.error = exc
                pending.event.set()
            return
        for pending, result in zip(batch, results):
            pending.result = result
            pending.event.set()

    # ------------------------------------------------------------------
    # Lifecycle / statistics
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting requests; flush what is queued, then stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)

    def _note_dispatch(self, size: int) -> None:
        with self._lock:
            self._batches += 1
            self._batched_queries += size
            self._max_batch = max(self._max_batch, size)
        self._incr("service.batch.dispatches")
        self._incr("service.batch.queries", size)

    def _incr(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, n)

    def stats(self) -> dict:
        """Dispatch statistics for ``/metrics``."""
        with self._lock:
            batches = self._batches
            queries = self._batched_queries
            return {
                "model": self.name,
                "batches": batches,
                "queries": queries,
                "mean_batch_size": (queries / batches) if batches else 0.0,
                "max_batch_size": self._max_batch,
                "queue_depth": len(self._planner.queue),
            }
