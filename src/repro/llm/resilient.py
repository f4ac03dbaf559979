"""Fault-tolerant wrapper around any :class:`TacticGenerator`.

`llm/interface.py` is the drop-in point for a real GPT-4o/Gemini API,
and real model endpoints fail: transient 5xx errors, 429 rate limits,
stalled connections, truncated payloads.  :class:`ResilientGenerator`
gives the search engine the retry/timeout discipline such an endpoint
needs, without the engine knowing anything changed:

* **per-query timeouts** — post-hoc via an injectable monotonic clock;
* **bounded retries** with exponential backoff and *deterministic*
  jitter (a hash of the prompt and attempt number, not an RNG — two
  identical runs sleep identically);
* a **circuit breaker** — after ``breaker_threshold`` consecutive
  primary failures the primary is skipped entirely for
  ``breaker_cooldown`` seconds, then probed half-open;
* **graceful degradation** — while the breaker is open (or when
  retries are exhausted) queries are served by a configurable fallback
  generator instead of failing the whole search.

The clock and sleep functions are injectable, so every timing path is
unit-testable with a fake clock and **no real sleeps**.  All activity
is surfaced as counters (``llm.retries``, ``llm.breaker_opens``,
``llm.fallback_queries``, …) on the telemetry handle the rest of the
pipeline reports through (:class:`repro.obs.metrics.Metrics`).

Determinism note: the wrapper never alters a successful response, so
a run whose faults are all transient produces bit-identical candidates
— and therefore bit-identical outcome records — to a fault-free run.
The eval runner builds one wrapper per task, so breaker state can
never leak between tasks (records stay order-independent).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import (
    GenerationTimeout,
    ModelExhaustedError,
    RateLimitError,
    TransientModelError,
)
from repro.llm.interface import (
    Candidate,
    GenerationRequest,
    TacticGenerator,
    generate_batch,
)
from repro.obs.metrics import NULL_METRICS, Metrics

__all__ = ["RetryPolicy", "ResilientGenerator", "stable_jitter"]


def stable_jitter(*parts: object) -> float:
    """A deterministic stand-in for ``random.random()`` in [0, 1).

    Hashing the identifying parts (model, prompt, attempt) gives every
    retry a different but perfectly reproducible jitter — chaos runs
    stay bit-replayable, and herd-avoidance still works because
    different prompts hash apart.
    """
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Retry, timeout, and circuit-breaker knobs."""

    max_attempts: int = 4  # total tries per query against the primary
    base_delay: float = 0.05  # seconds before the first retry
    backoff_factor: float = 2.0
    max_delay: float = 2.0  # cap on any single backoff sleep
    jitter: float = 0.25  # max extra delay, as a fraction of the delay
    rate_limit_delay: float = 0.5  # backoff floor after a 429
    query_timeout: Optional[float] = 30.0  # per-query budget (seconds)
    breaker_threshold: int = 5  # consecutive failures that open it
    breaker_cooldown: float = 30.0  # seconds open before half-open

    def delay_for(self, retry: int, error: Exception, jitter_key: str) -> float:
        """Backoff before retry number ``retry`` (0-based) of a query."""
        delay = min(
            self.max_delay, self.base_delay * self.backoff_factor**retry
        )
        if isinstance(error, RateLimitError):
            delay = max(delay, self.rate_limit_delay)
        return delay * (1.0 + self.jitter * stable_jitter(jitter_key, retry))


class ResilientGenerator:
    """Retry/timeout/breaker/fallback discipline for a generator.

    Satisfies :class:`~repro.llm.interface.TacticGenerator` itself, so
    it drops into :class:`~repro.core.search.BestFirstSearch` in place
    of the raw model.
    """

    def __init__(
        self,
        primary: TacticGenerator,
        fallback: Optional[TacticGenerator] = None,
        policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        metrics: Metrics = NULL_METRICS,
    ) -> None:
        self.primary = primary
        self.fallback = fallback
        self.policy = policy or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.metrics = metrics
        # TacticGenerator surface, delegated from the primary.
        self.name = primary.name
        self.context_window = primary.context_window
        self.provides_log_probs = getattr(
            primary, "provides_log_probs", False
        )
        # Circuit breaker: closed -> (threshold failures) -> open for
        # cooldown -> half-open (one trial) -> closed or open again.
        # The lock keeps the counters coherent when the pipelined
        # search drives one wrapper from several generation threads;
        # the single-threaded paths pay one uncontended acquire.
        self._breaker_lock = threading.Lock()
        self._consecutive_failures = 0
        self._open_until: Optional[float] = None
        self._half_open = False

    # ------------------------------------------------------------------
    # Breaker bookkeeping
    # ------------------------------------------------------------------

    def breaker_open(self) -> bool:
        """True while the primary is being skipped entirely."""
        with self._breaker_lock:
            if self._open_until is None:
                return False
            if self.clock() >= self._open_until:
                # Cooldown over: half-open, the next query probes the
                # primary once (a single failure reopens immediately).
                self._open_until = None
                self._half_open = True
                return False
            return True

    def _trip_locked(self) -> None:
        self._open_until = self.clock() + self.policy.breaker_cooldown
        self._half_open = False
        self.metrics.incr("llm.breaker_opens")

    def _note_failure(self) -> None:
        with self._breaker_lock:
            self._consecutive_failures += 1
            self.metrics.incr("llm.primary_failures")
            if (
                self._half_open
                or self._consecutive_failures
                >= self.policy.breaker_threshold
            ):
                self._trip_locked()

    def _note_success(self) -> None:
        with self._breaker_lock:
            self._consecutive_failures = 0
            self._half_open = False

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def generate(self, prompt: str, k: int) -> List[Candidate]:
        if self.breaker_open():
            return self._degrade(prompt, k, None)
        last_error: Optional[TransientModelError] = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self.metrics.incr("llm.retries")
                assert last_error is not None
                self.sleep(
                    self.policy.delay_for(
                        attempt - 1,
                        last_error,
                        f"{self.name}\x1f{prompt}",
                    )
                )
            try:
                result = self._call_primary(self.primary.generate, prompt, k)
            except TransientModelError as exc:
                last_error = exc
                self._note_failure()
                if self.breaker_open():
                    break  # tripped mid-query: stop hammering
                continue
            self._note_success()
            return result
        return self._degrade(prompt, k, last_error)

    def generate_batch(
        self, requests: "List[GenerationRequest]"
    ) -> List[List[Candidate]]:
        """Batched generation under the retry discipline.

        While the breaker is closed the batch goes to the primary as one
        call — one round-trip for a batching endpoint.  If that call
        fails, every element goes through the full :meth:`generate`
        path — per-query timeout, retries, breaker, fallback — so one
        failing element degrades alone instead of poisoning the batch.
        The failed batch call itself is not held against the breaker:
        the element calls that follow account for the endpoint's health
        exactly as solo queries would.
        """
        if not self.breaker_open():
            try:
                results = self._call_primary(
                    generate_batch, self.primary, requests
                )
            except TransientModelError:
                pass
            else:
                self._note_success()
                return results
        return [self.generate(prompt, k) for prompt, k in requests]

    def _call_primary(self, call: Callable, *args):
        timeout = self.policy.query_timeout
        started = self.clock()
        result = call(*args)
        if timeout is not None and self.clock() - started > timeout:
            # The call returned, but only after blowing its budget — a
            # real client would have abandoned it (stalled connection).
            raise GenerationTimeout(
                f"model query exceeded its {timeout:g}s budget"
            )
        return result

    def _degrade(
        self,
        prompt: str,
        k: int,
        last_error: Optional[Exception],
    ) -> List[Candidate]:
        if self.fallback is not None:
            self.metrics.incr("llm.fallback_queries")
            return self.fallback.generate(prompt, k)
        if last_error is not None:
            raise ModelExhaustedError(
                f"primary model {self.name} failed after "
                f"{self.policy.max_attempts} attempts and no fallback is "
                f"configured: {last_error}"
            ) from last_error
        raise ModelExhaustedError(
            f"circuit breaker open for {self.name} and no fallback is "
            "configured"
        )
