"""GenerationPipeline: queued queries, one model call, per-query results."""

import threading

import pytest

from repro.core.pipeline import GenerationPipeline
from repro.llm import Candidate


class _Recorder:
    """Answers each prompt with its upper-cased text; logs every call."""

    name = "recorder"
    context_window = 10**9
    provides_log_probs = True

    def __init__(self, fail_on=()):
        self.fail_on = set(fail_on)
        self.calls = []  # (method, prompts, calling thread)

    def _answer(self, prompt, k):
        if prompt in self.fail_on:
            raise RuntimeError(f"endpoint refused {prompt!r}")
        return _answer(prompt.upper(), k)

    def generate(self, prompt, k):
        self.calls.append(("generate", [prompt], threading.current_thread()))
        return self._answer(prompt, k)

    def generate_batch(self, requests):
        prompts = [prompt for prompt, _ in requests]
        self.calls.append(
            ("generate_batch", prompts, threading.current_thread())
        )
        return [self._answer(prompt, k) for prompt, k in requests]

    def methods(self):
        return [(method, prompts) for method, prompts, _ in self.calls]


def _answer(text, k=1):
    return [Candidate(text, -1.0)] * k


def test_depth_below_one_rejected():
    with pytest.raises(ValueError):
        GenerationPipeline(_Recorder(), 0)


def test_depth1_executes_inline_without_threads():
    model = _Recorder()
    threads = threading.active_count()
    pipeline = GenerationPipeline(model, 1)
    handle = pipeline.submit("a", 4)
    # Submitting only queues; the call waits until a result is needed.
    assert model.calls == []
    assert handle.result() == _answer("A", 4)
    # One solo call, on the caller's thread; no thread was started.
    assert model.calls == [("generate", ["a"], threading.current_thread())]
    assert threading.active_count() == threads


def test_errors_raise_at_result():
    pipeline = GenerationPipeline(_Recorder(fail_on={"a"}), 1)
    handle = pipeline.submit("a", 1)
    with pytest.raises(RuntimeError):
        handle.result()
    with pytest.raises(RuntimeError):
        handle.result()


def test_sequence_numbers_are_submission_ordered():
    pipeline = GenerationPipeline(_Recorder(), 1)
    handles = [pipeline.submit(str(i), 1) for i in range(5)]
    assert [h.seq for h in handles] == [0, 1, 2, 3, 4]


def test_queued_queries_share_one_batch_call():
    model = _Recorder()
    pipeline = GenerationPipeline(model, 3)
    handles = [pipeline.submit(p, 1) for p in ("a", "b", "c")]
    assert handles[0].result() == _answer("A")
    assert model.methods() == [("generate_batch", ["a", "b", "c"])]
    # The same call answered the younger queries.
    assert [h.result() for h in handles[1:]] == [_answer("B"), _answer("C")]
    assert len(model.calls) == 1


def test_batches_are_capped_at_the_depth():
    model = _Recorder()
    pipeline = GenerationPipeline(model, 2)
    handles = [pipeline.submit(p, 1) for p in ("a", "b", "c")]
    handles[0].result()
    assert model.methods() == [
        ("generate_batch", ["a", "b"]),
        ("generate", ["c"]),
    ]


def test_failed_batch_isolates_the_bad_query():
    model = _Recorder(fail_on={"bad"})
    pipeline = GenerationPipeline(model, 2)
    good = pipeline.submit("good", 1)
    bad = pipeline.submit("bad", 1)
    assert good.result() == _answer("GOOD")
    with pytest.raises(RuntimeError):
        bad.result()
    # The refused batch was retried query by query.
    assert model.methods() == [
        ("generate_batch", ["good", "bad"]),
        ("generate", ["good"]),
        ("generate", ["bad"]),
    ]


def test_handle_result_repeatable():
    model = _Recorder()
    handle = GenerationPipeline(model, 1).submit("v", 1)
    assert handle.result() == handle.result() == _answer("V")
    assert len(model.calls) == 1
