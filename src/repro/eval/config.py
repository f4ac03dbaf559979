"""Experiment configuration (defaults mirror the paper §4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.corpus.splits import DEFAULT_SEED

__all__ = ["ExperimentConfig", "SMALL_MODELS", "LARGE_MODELS", "ALL_MODELS"]

SMALL_MODELS: Tuple[str, ...] = ("gpt-4o-mini", "gemini-1.5-flash")
LARGE_MODELS: Tuple[str, ...] = (
    "gpt-4o",
    "gemini-1.5-pro",
    "gemini-1.5-pro-128k",
)
ALL_MODELS: Tuple[str, ...] = SMALL_MODELS + LARGE_MODELS


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one evaluation sweep."""

    width: int = 8  # search width (Gemini's max outputs per query)
    fuel: int = 128  # model-query limit (GPT-f's configuration)
    tactic_timeout: float = 5.0  # seconds (paper's validity rule)
    hint_fraction: float = 0.5  # random theorems whose proofs are hints
    large_fraction: float = 0.5  # paper: 0.1 of a 10x larger corpus
    seed: int = DEFAULT_SEED
    max_theorems: Optional[int] = None  # cap for quick runs/benches
    frontier: str = "best-first"
    dedup_states: bool = True
    # Execution engine (repro.eval.executor): backend + parallelism.
    executor: str = "serial"  # serial | thread | process
    jobs: int = 1  # worker count for thread/process backends
    # Fault tolerance (repro.llm.resilient / repro.testing.faults).
    theorem_deadline: Optional[float] = None  # per-theorem wall clock
    task_retries: int = 2  # re-runs of a task whose worker died
    heartbeat: Optional[float] = None  # seconds before a silent worker
    # is presumed dead (process backend); None = wait indefinitely
    faults: Optional[str] = None  # FaultPlan spec for chaos sweeps
    # Repair loop (repro.repair): checker-feedback rounds allowed
    # after a failed search; 0 = single-shot (the paper's setting).
    repair_rounds: int = 0
    resilient: bool = True  # wrap models in ResilientGenerator
    # Observability (repro.obs): when True, every executed task records
    # a span tree (search/expand/tactic spans) shipped back on its
    # TaskResult.  Deliberately NOT part of TheoremTask.cache_key() —
    # tracing must never change an outcome record.
    trace: bool = False
    # Intra-search pipelining (repro.core.pipeline): selected nodes kept
    # in flight per search.  1 = the paper's serial loop; k >= 2 sends
    # up to k model queries per call.  Like `trace`, this is an
    # execution knob, deliberately NOT part of TheoremTask.cache_key():
    # depth 1 replays the golden stores byte for byte, and any depth
    # leaves per-theorem coverage unchanged on the golden corpus
    # (tests/eval/test_pipeline_determinism.py pins both).
    pipeline_depth: int = 1
