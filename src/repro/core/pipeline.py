"""The search's one way to call the model.

A best-first search at pipeline depth *k* keeps up to *k* selected
nodes in flight before it validates the oldest
(:mod:`repro.core.search`).  Their model queries all go through one
:class:`GenerationPipeline`:

* :meth:`GenerationPipeline.submit` only queues a ``(prompt, k)``
  query and returns its :class:`GenerationHandle`;
* the first :meth:`GenerationHandle.result` on a queued query sends
  every queued query to the model in one call — ``generate_batch`` for
  several (one endpoint round-trip, see :mod:`repro.testing.latency`),
  plain ``generate`` for one — at most ``depth`` queries per call.

Everything runs on the caller's thread: no pool, no dispatcher, no
batching window.  An in-process model therefore pays nothing for a
deeper pipeline, while a remote one amortizes its round-trip over up to
``depth`` queries.

Determinism contract (hard): each handle yields exactly what a solo
``generate(prompt, k)`` call would (the ``generate_batch`` contract of
:mod:`repro.llm.interface`), and a failing query raises at *its own*
handle's ``result()``: a batch call that fails is retried query by
query, so one bad query cannot fail its neighbours.  The search reads
handles in submission order, so errors, like results, surface in a
deterministic order whatever the batch composition.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.llm.interface import Candidate, TacticGenerator, generate_batch

__all__ = ["GenerationHandle", "GenerationPipeline"]


class GenerationHandle:
    """One submitted query: its sequence number and, once sent, result."""

    __slots__ = (
        "seq", "prompt", "k", "_pipeline", "_done", "_value", "_error"
    )

    def __init__(
        self, pipeline: "GenerationPipeline", seq: int, prompt: str, k: int
    ) -> None:
        self.seq = seq
        self.prompt = prompt
        self.k = k
        self._pipeline = pipeline
        self._done = False
        self._value: Sequence[Candidate] = ()
        self._error: Optional[Exception] = None

    def _resolve(
        self,
        value: Sequence[Candidate] = (),
        error: Optional[Exception] = None,
    ) -> None:
        self._value = value
        self._error = error
        self._done = True

    def result(self) -> Sequence[Candidate]:
        """The query's candidates; re-raises the query's error.

        Sends the pipeline's queued queries first if this one has not
        gone out yet.
        """
        if not self._done:
            self._pipeline.flush()
        if self._error is not None:
            raise self._error
        return self._value


class GenerationPipeline:
    """Queues one search's model queries and sends them together."""

    def __init__(self, generator: TacticGenerator, depth: int) -> None:
        if depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        self.generator = generator
        self.depth = depth
        self._seq = 0
        self._queued: List[GenerationHandle] = []

    def submit(self, prompt: str, k: int) -> GenerationHandle:
        """Queue one query; it is sent when a result is first needed."""
        handle = GenerationHandle(self, self._seq, prompt, k)
        self._seq += 1
        self._queued.append(handle)
        return handle

    def flush(self) -> None:
        """Send every queued query, at most ``depth`` per model call."""
        queued, self._queued = self._queued, []
        for start in range(0, len(queued), self.depth):
            self._send(queued[start : start + self.depth])

    def _send(self, batch: List[GenerationHandle]) -> None:
        if len(batch) > 1:
            try:
                results = generate_batch(
                    self.generator, [(h.prompt, h.k) for h in batch]
                )
                if len(results) != len(batch):
                    raise ValueError(
                        f"generate_batch returned {len(results)} results "
                        f"for {len(batch)} queries"
                    )
            except Exception:
                pass  # retried query by query below
            else:
                for handle, result in zip(batch, results):
                    handle._resolve(result)
                return
        for handle in batch:
            try:
                result = self.generator.generate(handle.prompt, handle.k)
            except Exception as exc:  # raised again by handle.result()
                handle._resolve(error=exc)
            else:
                handle._resolve(result)
