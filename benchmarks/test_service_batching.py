"""Service-layer micro-benchmarks: micro-batched vs. solo dispatch.

The full closed-loop measurement (HTTP server, concurrent clients,
BENCH_service.json, the 2x throughput gate) lives in
``scripts/service_loadgen.py`` and CI's ``service-smoke`` job; these
benchmarks isolate the dispatch layer itself.  The endpoint model is
:class:`repro.testing.latency.LatencyGenerator` with a *serialized*
per-dispatch overhead — the requests-per-minute rate limit a real
GPT-4o/Gemini deployment enforces, which is exactly the resource
batching amortizes: n concurrent searches pay n overheads solo but
~n/batch_size overheads batched.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.llm import get_model
from repro.service.batching import BatchingGenerator
from repro.testing.latency import LatencyGenerator

OVERHEAD = 0.02  # seconds per dispatch against the rate-limited endpoint
CALLERS = 8
CALLS_PER_CALLER = 3


def _drive(generator):
    """CALLERS concurrent searches, each issuing sequential queries."""
    errors = []

    def search(index):
        try:
            for step in range(CALLS_PER_CALLER):
                generator.generate(f"Goal c{index} s{step} : n = n", 4)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=search, args=(i,)) for i in range(CALLERS)
    ]
    started = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = perf_counter() - started
    assert errors == []
    return elapsed


def test_batched_dispatch_beats_solo_under_rate_limit():
    """Batched wall-clock must beat unbatched on the same workload."""
    model = get_model("gpt-4o-mini")

    solo = BatchingGenerator(
        LatencyGenerator(model, OVERHEAD), max_batch_size=1
    )
    solo_elapsed = _drive(solo)

    batched = BatchingGenerator(
        LatencyGenerator(model, OVERHEAD), max_batch_size=CALLERS
    )
    try:
        batched_elapsed = _drive(batched)
        stats = batched.stats()
    finally:
        batched.close()

    # The batcher found real coalescing opportunities ...
    assert stats["queries"] == CALLERS * CALLS_PER_CALLER
    assert stats["mean_batch_size"] > 1.0
    # ... and converted them into wall-clock: solo pays one serialized
    # overhead per query, batched one per dispatch.
    assert batched_elapsed < solo_elapsed, (
        f"batched {batched_elapsed:.3f}s not faster than "
        f"solo {solo_elapsed:.3f}s (mean batch {stats['mean_batch_size']:.2f})"
    )


def test_batching_overhead_is_negligible_without_contention(benchmark):
    """A lone caller through the batcher: it sends on its own thread."""
    batcher = BatchingGenerator(get_model("gpt-4o"), max_batch_size=8)
    try:
        benchmark(lambda: batcher.generate("Goal n = n", 4))
    finally:
        batcher.close()


def test_disabled_batching_is_a_passthrough(benchmark):
    """max_batch_size=1: no queue, raw model latency."""
    batcher = BatchingGenerator(get_model("gpt-4o"), max_batch_size=1)
    benchmark(lambda: batcher.generate("Goal n = n", 4))
