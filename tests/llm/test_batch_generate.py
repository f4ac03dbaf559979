"""The ``generate_batch`` protocol: batched must equal solo, byte for byte.

The micro-batcher (``repro.service.batching``) relies on this as a hard
contract — batch *composition* is timing-dependent, so any divergence
between a batched element and a solo call would make service results
non-deterministic.
"""

from __future__ import annotations

import pytest

from repro.errors import TransientModelError
from repro.llm import available_models, get_model
from repro.llm.interface import Candidate, generate_batch, supports_batch
from repro.llm.resilient import ResilientGenerator

PROMPTS = [
    "Lemma app_nil_r : forall l : list nat, app l nil = l.",
    "Lemma plus_O : forall n : nat, n + 0 = n.",
    "Goal rev (rev l) = l",
    "",  # degenerate prompt must still round-trip
    "Lemma plus_O : forall n : nat, n + 0 = n.",  # duplicate of [1]
]


class TestEveryProfile:
    @pytest.mark.parametrize("name", available_models())
    def test_batched_equals_solo_elementwise(self, name):
        model = get_model(name)
        requests = [(p, 1 + (i % 7)) for i, p in enumerate(PROMPTS)]
        batched = model.generate_batch(requests)
        solo = [model.generate(p, k) for p, k in requests]
        assert batched == solo

    @pytest.mark.parametrize("name", available_models())
    def test_duplicates_in_one_batch_agree(self, name):
        model = get_model(name)
        requests = [("Goal n = n", 4)] * 3
        results = model.generate_batch(requests)
        assert results[0] == results[1] == results[2]
        assert results[0] == model.generate("Goal n = n", 4)

    @pytest.mark.parametrize("name", available_models())
    def test_repeated_batches_are_deterministic(self, name):
        model = get_model(name)
        requests = [(p, 3) for p in PROMPTS]
        assert model.generate_batch(requests) == model.generate_batch(requests)


class SoloOnly:
    """A generator with no native ``generate_batch``."""

    name = "solo-only"
    context_window = 1000
    provides_log_probs = False

    def __init__(self):
        self.calls = []

    def generate(self, prompt, k):
        self.calls.append((prompt, k))
        return [Candidate(tactic=f"auto {len(self.calls)}.", log_prob=-1.0)]


class TestModuleFallback:
    def test_supports_batch(self):
        assert supports_batch(get_model("gpt-4o"))
        assert not supports_batch(SoloOnly())

    def test_fallback_is_elementwise_solo(self):
        gen = SoloOnly()
        out = generate_batch(gen, [("a", 1), ("b", 2)])
        assert gen.calls == [("a", 1), ("b", 2)]
        assert [len(r) for r in out] == [1, 1]

    def test_native_method_is_preferred(self):
        model = get_model("gpt-4o-mini")
        requests = [("Goal n = n", 2)]
        assert generate_batch(model, requests) == model.generate_batch(requests)


class BatchRecorder:
    """A real model behind a batch call that can be made to fail."""

    def __init__(self, model, batch_fails=False):
        self.model = model
        self.name = model.name
        self.context_window = model.context_window
        self.provides_log_probs = model.provides_log_probs
        self.batch_fails = batch_fails
        self.calls = []

    def generate(self, prompt, k):
        self.calls.append("generate")
        return self.model.generate(prompt, k)

    def generate_batch(self, requests):
        self.calls.append("generate_batch")
        if self.batch_fails:
            raise TransientModelError("injected batch failure")
        return self.model.generate_batch(requests)


class TestResilientWrapper:
    def test_batch_goes_through_the_wrapper_per_element(self):
        inner = SoloOnly()
        wrapper = ResilientGenerator(inner)
        out = wrapper.generate_batch([("a", 1), ("b", 1), ("c", 1)])
        # No native batch call: the elements reach the model in order.
        assert inner.calls == [("a", 1), ("b", 1), ("c", 1)]
        assert len(out) == 3

    def test_batch_is_one_primary_call(self):
        inner = BatchRecorder(get_model("gemini-1.5-flash"))
        requests = [(p, 2) for p in PROMPTS]
        out = ResilientGenerator(inner).generate_batch(requests)
        assert inner.calls == ["generate_batch"]
        assert out == [inner.model.generate(p, k) for p, k in requests]

    def test_failed_batch_retries_each_element(self):
        inner = BatchRecorder(get_model("gemini-1.5-flash"), batch_fails=True)
        wrapper = ResilientGenerator(inner)
        requests = [(p, 2) for p in PROMPTS]
        out = wrapper.generate_batch(requests)
        assert inner.calls == ["generate_batch"] + ["generate"] * len(PROMPTS)
        assert out == [inner.model.generate(p, k) for p, k in requests]
        assert not wrapper.breaker_open()

    def test_wrapper_batch_equals_wrapper_solo(self):
        model = get_model("gemini-1.5-flash")
        wrapper = ResilientGenerator(model)
        requests = [(p, 2) for p in PROMPTS]
        assert wrapper.generate_batch(requests) == [
            wrapper.generate(p, k) for p, k in requests
        ]
