"""Micro-batched LLM dispatch for concurrent proof searches.

Every best-first expansion is one independent ``generate(prompt, k)``
call; a server running many searches at once therefore has many such
calls in flight against one model backend.  Real endpoints price and
rate-limit *per request*, and batch completion APIs amortize the
round-trip — so the service funnels all generation through one
:class:`BatchingGenerator` per model, which sends concurrent calls
together through the optional ``generate_batch`` protocol method
(falling back to element-wise solo calls when the model has none).

Batching policy: at most one dispatch is in flight per batcher, and a
batch is whatever queued behind it.  Calls queue in arrival order.  A
call that heads the queue while no dispatch is in flight takes up to
``max_batch_size`` queued calls, itself first, and sends them on its
own thread; calls arriving meanwhile wait, and leave together in the
next dispatch.  Nothing waits on a timer: behind a slow endpoint the
queue fills while a batch is out, so batches grow with the round trip,
and a lone caller at zero latency sends at once, on its own thread.
``max_batch_size=1`` disables batching entirely (every call goes
straight through, with no queue).

Determinism contract (hard): each batched element's candidates are
byte-identical to a solo ``generate`` call.  The batcher never splits,
reorders, merges, or edits element results; the underlying model's
``generate_batch`` is itself element-wise pure (see
:meth:`repro.llm.models.SimulatedModel.generate_batch`).  Batch
*composition* — which requests share a dispatch — depends on arrival
timing and may vary run to run; by the contract, it is unobservable in
the results.  ``tests/service/test_batching.py`` pins this.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.llm.interface import (
    Candidate,
    GenerationRequest,
    TacticGenerator,
    generate_batch,
)
from repro.obs.metrics import NULL_METRICS, Metrics

__all__ = ["BatchingGenerator"]


class _Pending:
    """One caller's request, parked until its batch returns."""

    __slots__ = ("prompt", "k", "done", "result", "error")

    def __init__(self, prompt: str, k: int) -> None:
        self.prompt = prompt
        self.k = k
        self.done = False
        self.result: Optional[List[Candidate]] = None
        self.error: Optional[BaseException] = None


class BatchingGenerator:
    """A :class:`TacticGenerator` that batches concurrent calls.

    One instance is shared by every search using the same model; each
    caller's ``generate`` either leads a dispatch or blocks until the
    dispatch carrying its element returns.  Sits *below* the per-job
    :class:`~repro.llm.resilient.ResilientGenerator`, so retries re-
    enqueue individual elements rather than whole batches.
    """

    def __init__(
        self,
        inner: TacticGenerator,
        max_batch_size: int = 8,
        metrics: Metrics = NULL_METRICS,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.inner = inner
        #: Elements one dispatch may carry.  1 disables batching.
        self.max_batch_size = max_batch_size
        self.metrics = metrics
        # TacticGenerator surface, delegated.
        self.name = inner.name
        self.context_window = inner.context_window
        self.provides_log_probs = getattr(inner, "provides_log_probs", False)
        # One condition guards the queue, the in-flight flag, every
        # element's ``done`` and the statistics.  A finished dispatch
        # wakes everyone: its callers, and the next head.
        self._cond = threading.Condition()
        self._queue: Deque[_Pending] = deque()
        self._in_flight = False
        self._closed = False
        self._batches = 0
        self._batched_queries = 0
        self._max_batch = 0

    # ------------------------------------------------------------------
    # TacticGenerator surface
    # ------------------------------------------------------------------

    def generate(self, prompt: str, k: int) -> List[Candidate]:
        if self.max_batch_size == 1:
            # Batching disabled: the undecorated solo path.
            return self.inner.generate(prompt, k)
        pending = _Pending(prompt, k)
        batch: List[_Pending] = []
        with self._cond:
            if self._closed:
                raise RuntimeError(
                    f"BatchingGenerator for {self.name} is closed"
                )
            self._queue.append(pending)
            # Park until answered, or until this call heads the queue
            # with no dispatch in flight: then it leads the next batch.
            while not pending.done and (
                self._in_flight or self._queue[0] is not pending
            ):
                self._cond.wait()
            if not pending.done:
                size = min(len(self._queue), self.max_batch_size)
                batch = [self._queue.popleft() for _ in range(size)]
                self._in_flight = True
                self._batches += 1
                self._batched_queries += size
                self._max_batch = max(self._max_batch, size)
        if batch:
            self._send(batch)
        if pending.error is not None:
            raise pending.error
        return pending.result

    def generate_batch(
        self, requests: Sequence[GenerationRequest]
    ) -> List[List[Candidate]]:
        """Pre-formed batches skip the queue and go straight through."""
        return generate_batch(self.inner, requests)

    # ------------------------------------------------------------------
    # Dispatch (on the leading caller's thread, no lock held)
    # ------------------------------------------------------------------

    def _send(self, batch: List[_Pending]) -> None:
        """Send ``batch``, answer every element, then wake the waiters."""
        try:
            self.metrics.incr("service.batch.dispatches")
            self.metrics.incr("service.batch.queries", len(batch))
            try:
                results = generate_batch(
                    self.inner, [(p.prompt, p.k) for p in batch]
                )
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"generate_batch returned {len(results)} results "
                        f"for {len(batch)} requests"
                    )
            except Exception:
                # A failed batch call must not fail innocent co-
                # travellers: fall back to solo calls so each element
                # succeeds or fails on its own (the solo path is the
                # determinism reference, so results are unchanged for
                # the survivors).
                self.metrics.incr("service.batch.fallbacks")
                for pending in batch:
                    try:
                        pending.result = self.inner.generate(
                            pending.prompt, pending.k
                        )
                    except Exception as exc:
                        pending.error = exc
            else:
                for pending, result in zip(batch, results):
                    pending.result = result
        finally:
            with self._cond:
                for pending in batch:
                    if pending.result is None and pending.error is None:
                        # The leader was interrupted (KeyboardInterrupt,
                        # SystemExit): its co-travellers still get an answer.
                        pending.error = RuntimeError(
                            f"batch dispatch to {self.name} was interrupted"
                        )
                    pending.done = True
                self._in_flight = False
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle / statistics
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Refuse new calls; calls already queued are still answered."""
        with self._cond:
            self._closed = True

    def stats(self) -> dict:
        """Dispatch statistics for ``/metrics``."""
        with self._cond:
            batches = self._batches
            queries = self._batched_queries
            return {
                "model": self.name,
                "batches": batches,
                "queries": queries,
                "mean_batch_size": (queries / batches) if batches else 0.0,
                "max_batch_size": self._max_batch,
                "queue_depth": len(self._queue),
            }
