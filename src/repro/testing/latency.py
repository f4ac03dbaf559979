"""Simulated per-request model latency (benchmark harness).

The simulated models answer in microseconds, which hides exactly the
cost micro-batching exists to amortize: a real GPT-4o/Gemini endpoint
charges a network round-trip and per-request service overhead on
*every* ``generate`` call, regardless of how little work it carries.

:class:`LatencyGenerator` restores that cost structure: each
``generate`` call charges ``overhead`` seconds before answering, and a
``generate_batch`` call charges ``overhead`` **once for the whole
batch** — the shape of a batch completion API, where n requests share
one round-trip.  The charge is *serialized* (an internal gate admits
one request at a time), modelling the requests-per-minute rate limit
every real endpoint enforces: with it, request overhead
bounds system throughput at ``1/overhead`` dispatches per second no
matter how many searches run concurrently — which is precisely the
bound micro-batching lifts.  Results are untouched (the wrapper
delegates to the inner generator, preserving the element-wise
determinism contract), so outcome records are identical with or
without the wrapper; only wall clock differs.

Used by ``scripts/service_loadgen.py`` and the service benchmarks to
measure batched vs unbatched throughput under realistic per-query
overhead.  The sleep function is injectable for fake-clock tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Sequence

from repro.llm.interface import (
    Candidate,
    GenerationRequest,
    TacticGenerator,
    generate_batch,
)

__all__ = ["LatencyGenerator"]


class LatencyGenerator:
    """Adds a fixed per-request overhead to an inner generator."""

    def __init__(
        self,
        inner: TacticGenerator,
        overhead: float,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if overhead < 0:
            raise ValueError("overhead must be >= 0")
        self.inner = inner
        self.overhead = overhead
        self._sleep = sleep
        self.name = inner.name
        self.context_window = inner.context_window
        self.provides_log_probs = getattr(inner, "provides_log_probs", False)
        #: Round-trips charged so far (one per call, solo or batch).
        self.round_trips = 0
        self._gate = threading.Lock()

    def _charge(self) -> None:
        self.round_trips += 1
        if not self.overhead:
            return
        # One request in flight at a time: the endpoint's rate limit,
        # not each caller's private wait.
        with self._gate:
            self._sleep(self.overhead)

    def generate(self, prompt: str, k: int) -> List[Candidate]:
        self._charge()
        return self.inner.generate(prompt, k)

    def generate_batch(
        self, requests: Sequence[GenerationRequest]
    ) -> List[List[Candidate]]:
        self._charge()
        return generate_batch(self.inner, requests)
