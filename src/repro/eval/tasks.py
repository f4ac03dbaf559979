"""Immutable task descriptors for the evaluation engine.

A :class:`TheoremTask` names one cell of the paper's sweep grid —
(theorem × model × setting) plus every knob that can change the
search outcome — as a frozen, picklable value.  Its
:meth:`~TheoremTask.cache_key` is a content hash over exactly those
fields, so the run store (:mod:`repro.eval.store`) can recognise an
already-computed cell across processes, interpreter restarts, and
executor backends.

Determinism contract: a task's outcome record depends only on the
task fields and the corpus.  Generation is a pure function of
(model, prompt) — see ``repro.llm.sampling.stable_seed`` — and the
hint split is derived from ``seed``/``hint_fraction``, so serial,
thread, and process executions of the same task produce identical
records (enforced by ``tests/eval/test_executor.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields as dataclasses_fields
from typing import List, Optional, Sequence, Tuple

from repro.core import SearchConfig

__all__ = [
    "TheoremTask",
    "sweep_tasks",
    "task_from_json",
    "CACHE_KEY_VERSION",
]

# Bump when the hashed payload changes shape, so stale store entries
# are never mistaken for current ones.
# v2: added theorem_deadline (per-theorem wall-clock budget).
# v3: added repair_rounds (checker-feedback repair cap) and attempt
#     (pass@k sample index).
CACHE_KEY_VERSION = 3


@dataclass(frozen=True)
class TheoremTask:
    """One independent unit of evaluation work."""

    theorem: str
    model: str
    hinted: bool
    # Search hyperparameters (mirror SearchConfig).
    width: int = 8
    fuel: int = 128
    tactic_timeout: float = 5.0
    frontier: str = "best-first"
    dedup_states: bool = True
    max_depth: int = 64
    # Split-defining knobs: the hint set a hinted prompt may draw from
    # is a pure function of (seed, hint_fraction) over the corpus.
    seed: int = 0
    hint_fraction: float = 0.5
    # §4.3 context-selection probe: hand-reduced dependency list.
    reduced_dependencies: Optional[Tuple[str, ...]] = None
    # Per-theorem wall-clock budget (None = unbounded, the paper's
    # setting).  Outcome-relevant — a search can end TIMEOUT — so it
    # participates in the cache key.
    theorem_deadline: Optional[float] = None
    # Repair loop (repro.repair): extra checker-feedback search rounds
    # allowed after a failed initial search.  0 = single-shot (the
    # paper's setting); outcome-relevant (can flip a failure to
    # REPAIRED), so it participates in the cache key.
    repair_rounds: int = 0
    # pass@k sample index: attempt 0 is the base sample; attempt i > 0
    # salts the prompt with a seed derived from the attempt-0 cache key
    # (repro.llm.sampling.attempt_seed), making the k samples distinct
    # yet bit-reproducible.  Outcome-relevant by construction.
    attempt: int = 0

    @staticmethod
    def from_config(
        theorem: str,
        model: str,
        hinted: bool,
        config,
        reduced_dependencies: Optional[Sequence[str]] = None,
    ) -> "TheoremTask":
        """Build a task from an :class:`ExperimentConfig`."""
        return TheoremTask(
            theorem=theorem,
            model=model,
            hinted=hinted,
            width=config.width,
            fuel=config.fuel,
            tactic_timeout=config.tactic_timeout,
            frontier=config.frontier,
            dedup_states=config.dedup_states,
            seed=config.seed,
            hint_fraction=config.hint_fraction,
            reduced_dependencies=(
                tuple(reduced_dependencies)
                if reduced_dependencies is not None
                else None
            ),
            theorem_deadline=config.theorem_deadline,
            repair_rounds=config.repair_rounds,
        )

    def sample_salt(self) -> str:
        """The pass@k sampling salt for this task's attempt index.

        Empty for attempt 0 (prompts — and therefore records — are
        byte-identical to a pre-pass@k single sample).  For attempt
        i > 0: a stable hash of (the attempt-0 cache key, i), so every
        attempt of the same base cell draws an independent sample while
        staying bit-reproducible across backends and processes.
        """
        if self.attempt == 0:
            return ""
        from dataclasses import replace

        from repro.llm.sampling import attempt_seed

        return attempt_seed(
            replace(self, attempt=0).cache_key(), self.attempt
        )

    def search_config(self) -> SearchConfig:
        # Deliberately never sets pipeline_depth: like `trace`, it is
        # an execution knob outside the cache key — the runner applies
        # it from ExperimentConfig on top of this config, and outcome
        # records are invariant to it (tests/eval pin this).
        return SearchConfig(
            width=self.width,
            fuel=self.fuel,
            tactic_timeout=self.tactic_timeout,
            frontier=self.frontier,
            dedup_states=self.dedup_states,
            max_depth=self.max_depth,
            theorem_deadline=self.theorem_deadline,
        )

    def cache_key(self) -> str:
        """Stable content hash of every outcome-relevant field.

        Canonical JSON (sorted keys, fixed separators) hashed with
        SHA-256 — never Python's ``hash()``, which is salted per
        process and would defeat cross-run resume.
        """
        payload = {
            "v": CACHE_KEY_VERSION,
            "theorem": self.theorem,
            "model": self.model,
            "hinted": self.hinted,
            "width": self.width,
            "fuel": self.fuel,
            "tactic_timeout": self.tactic_timeout,
            "frontier": self.frontier,
            "dedup_states": self.dedup_states,
            "max_depth": self.max_depth,
            "seed": self.seed,
            "hint_fraction": self.hint_fraction,
            "reduced_dependencies": (
                list(self.reduced_dependencies)
                if self.reduced_dependencies is not None
                else None
            ),
            "theorem_deadline": self.theorem_deadline,
            "repair_rounds": self.repair_rounds,
            "attempt": self.attempt,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def task_from_json(obj: dict) -> TheoremTask:
    """Build a task from an untrusted JSON object (the prover service's
    ``POST /prove`` body).

    Only known task fields are accepted — an unknown key is a client
    error, surfaced as ``ValueError`` so the server can answer 400
    instead of silently ignoring a typo'd search knob (which would
    return a differently-keyed cell than the client asked for).
    ``theorem`` and ``model`` are required; everything else defaults
    exactly as :class:`TheoremTask` does, so a minimal request hits the
    same cache key as a default sweep cell.
    """
    if not isinstance(obj, dict):
        raise ValueError("request body must be a JSON object")
    fields = {f.name for f in dataclasses_fields(TheoremTask)}
    unknown = sorted(set(obj) - fields)
    if unknown:
        raise ValueError(f"unknown task field(s): {', '.join(unknown)}")
    missing = [name for name in ("theorem", "model") if name not in obj]
    if missing:
        raise ValueError(f"missing required field(s): {', '.join(missing)}")
    kwargs = dict(obj)
    kwargs.setdefault("hinted", False)
    if kwargs.get("reduced_dependencies") is not None:
        deps = kwargs["reduced_dependencies"]
        if not isinstance(deps, (list, tuple)) or not all(
            isinstance(d, str) for d in deps
        ):
            raise ValueError("reduced_dependencies must be a list of names")
        kwargs["reduced_dependencies"] = tuple(deps)
    try:
        task = TheoremTask(**kwargs)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    # Cheap shape checks so a mistyped knob fails the request, not the
    # search worker (json has no int/float distinction worth fighting;
    # bools are checked exactly).
    for name, kind in (
        ("theorem", str),
        ("model", str),
        ("hinted", bool),
        ("frontier", str),
        ("dedup_states", bool),
    ):
        if not isinstance(getattr(task, name), kind):
            raise ValueError(f"field {name!r} must be {kind.__name__}")
    for name in ("width", "fuel", "max_depth", "seed", "repair_rounds",
                 "attempt"):
        if not isinstance(getattr(task, name), int) or isinstance(
            getattr(task, name), bool
        ):
            raise ValueError(f"field {name!r} must be an integer")
    for name in ("tactic_timeout", "hint_fraction"):
        if not isinstance(getattr(task, name), (int, float)):
            raise ValueError(f"field {name!r} must be a number")
    if task.theorem_deadline is not None and not isinstance(
        task.theorem_deadline, (int, float)
    ):
        raise ValueError("field 'theorem_deadline' must be a number or null")
    if task.repair_rounds < 0:
        raise ValueError("field 'repair_rounds' must be >= 0")
    if task.attempt < 0:
        raise ValueError("field 'attempt' must be >= 0")
    return task


def sweep_tasks(
    theorems: Sequence, model: str, hinted: bool, config
) -> List[TheoremTask]:
    """The task list for one (model, setting) sweep.

    ``theorems`` may be :class:`~repro.corpus.model.Theorem` objects
    or bare names.
    """
    names = [t if isinstance(t, str) else t.name for t in theorems]
    return [
        TheoremTask.from_config(name, model, hinted, config) for name in names
    ]
