"""The experiment driver.

Runs best-first search over (model × setting × theorem) cells and
collects :class:`TheoremOutcome` records carrying everything the
paper's tables and figures need: outcome status, the generated proof,
its machine revalidation, similarity to the human proof, and length
ratio.

Every *proved* outcome is replayed from scratch through the script
runner before it counts — a proof is never trusted on the search
engine's say-so.

Structurally this is the top of a layered execution engine:

* :mod:`repro.eval.tasks` — immutable, content-hashed task descriptors;
* :mod:`repro.eval.executor` — serial / thread / process backends;
* :mod:`repro.eval.store` — append-only JSONL run store (resume);
* :mod:`repro.obs.metrics` — the telemetry handle (stage spans and
  counters) every layer reports through.

:meth:`Runner.run` plans a sweep as tasks, skips cells the run store
already holds, dispatches the rest to the configured executor, and
rehydrates the resulting records into :class:`TheoremOutcome`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.corpus.loader import Project, load_project
from repro.corpus.model import Theorem
from repro.corpus.splits import Splits, make_splits
from repro.corpus.tokenizer import count_tokens
from repro.core import BestFirstSearch, SearchConfig, Status
from repro.errors import ModelExhaustedError, ReproError
from repro.eval.config import ExperimentConfig
from repro.eval.executor import Executor, TaskResult, make_executor
from repro.eval.similarity import normalized_similarity
from repro.eval.store import OutcomeRecord, RunStore
from repro.eval.tasks import TheoremTask, sweep_tasks
from repro.llm import get_model
from repro.llm.resilient import ResilientGenerator
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.obs.trace import Tracer
from repro.prompting import PromptBuilder
from repro.repair.engine import RepairEngine
from repro.serapi import ProofChecker
from repro.tactics.script import run_script
from repro.testing.faults import FaultPlan, FaultyGenerator

__all__ = [
    "TheoremOutcome",
    "EvalRun",
    "Runner",
    "record_from_outcome",
]


@dataclass
class TheoremOutcome:
    theorem: Theorem
    model: str
    hinted: bool
    status: Status
    queries: int
    generated_proof: str = ""
    revalidated: bool = False
    similarity: Optional[float] = None
    length_ratio: Optional[float] = None  # generated/human tokens
    # Search attempts consumed (1 + repair rounds run).
    attempts: int = 1
    # FailureContext.to_json() of a non-proved search, if captured.
    failure: Optional[dict] = None

    @property
    def proved(self) -> bool:
        # REPAIRED is a proof like any other — it passed the same
        # Qed replay; the status only records that feedback was needed.
        return (
            self.status in (Status.PROVED, Status.REPAIRED)
            and self.revalidated
        )


def record_from_outcome(outcome: TheoremOutcome) -> OutcomeRecord:
    """Flatten an outcome to its serialisable, deterministic record."""
    return OutcomeRecord(
        theorem=outcome.theorem.name,
        model=outcome.model,
        hinted=outcome.hinted,
        status=outcome.status.value,
        queries=outcome.queries,
        generated_proof=outcome.generated_proof,
        revalidated=outcome.revalidated,
        similarity=outcome.similarity,
        length_ratio=outcome.length_ratio,
        attempts=outcome.attempts,
        failure=outcome.failure,
    )


@dataclass
class EvalRun:
    """All outcomes of one (model, setting) sweep."""

    model: str
    hinted: bool
    outcomes: List[TheoremOutcome] = field(default_factory=list)

    def proved_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.proved for o in self.outcomes) / len(self.outcomes)

    def fraction_with_status(self, status: Status) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.status is status for o in self.outcomes) / len(
            self.outcomes
        )


class Runner:
    """Evaluation entry point."""

    def __init__(
        self,
        project: Optional[Project] = None,
        config: Optional[ExperimentConfig] = None,
    ) -> None:
        self.project = project or load_project()
        self.config = config or ExperimentConfig()
        self.splits: Splits = make_splits(
            self.project,
            hint_fraction=self.config.hint_fraction,
            large_fraction=self.config.large_fraction,
            seed=self.config.seed,
        )
        self.metrics = Metrics()
        # Chaos plan for this sweep (None in the common fault-free
        # case).  Parsed once here so a bad spec fails fast, before
        # any search runs.
        self.fault_plan: Optional[FaultPlan] = FaultPlan.from_spec(
            self.config.faults
        )

    # ------------------------------------------------------------------
    # Sweep planning
    # ------------------------------------------------------------------

    def theorems_for(self, model_name: str) -> List[Theorem]:
        from repro.eval.config import LARGE_MODELS

        theorems = (
            self.splits.test_large
            if model_name in LARGE_MODELS
            else self.splits.test
        )
        if self.config.max_theorems is not None:
            theorems = theorems[: self.config.max_theorems]
        return theorems

    # ------------------------------------------------------------------
    # Single-cell execution
    # ------------------------------------------------------------------

    def _wrap_model(
        self,
        model,
        theorem_name: str,
        hinted: bool,
        metrics: Metrics,
    ):
        """Apply the fault-tolerance stack to a raw generator.

        Inner to outer: fault injection (chaos sweeps only), then the
        resilient retry/breaker wrapper, at every pipeline depth.
        Injected faults hit the wrapper exactly like a flaky real
        endpoint would.  The wrapper is built fresh **per task**,
        so breaker state can never leak between tasks and records stay
        order-independent.
        """
        plan = self.fault_plan
        if plan is not None and plan.model_faults_active():
            model = FaultyGenerator(
                model,
                plan,
                context=f"{theorem_name}|{model.name}|{int(hinted)}",
            )
        if self.config.resilient:
            model = ResilientGenerator(model, metrics=metrics)
        return model

    def run_theorem(
        self,
        theorem: Theorem,
        model_name: str,
        hinted: bool,
        reduced_dependencies: Optional[Sequence[str]] = None,
        model_override=None,
        search_config=None,
        metrics: Metrics = NULL_METRICS,
        repair_rounds: int = 0,
        attempt_salt: str = "",
    ) -> TheoremOutcome:
        model = model_override if model_override is not None else get_model(
            model_name
        )
        model = self._wrap_model(model, theorem.name, hinted, metrics)
        search_config = search_config or SearchConfig(
            width=self.config.width,
            fuel=self.config.fuel,
            tactic_timeout=self.config.tactic_timeout,
            frontier=self.config.frontier,
            dedup_states=self.config.dedup_states,
            theorem_deadline=self.config.theorem_deadline,
        )
        # The pipeline depth rides in from ExperimentConfig, never from
        # the task (it is outside the cache key — see eval.config).
        search_config = replace(
            search_config, pipeline_depth=self.config.pipeline_depth
        )
        env = self.project.env_for(theorem)
        checker = ProofChecker(
            env, tactic_timeout=search_config.tactic_timeout, metrics=metrics
        )
        builder = PromptBuilder(
            self.project,
            theorem,
            hint_names=self.splits.hint_names if hinted else None,
            window_tokens=model.context_window,
            reduced_dependencies=reduced_dependencies,
            attempt_salt=attempt_salt,
        )
        search = BestFirstSearch(
            checker, model, search_config, metrics=metrics
        )
        if repair_rounds > 0:
            engine = RepairEngine(
                search, builder, repair_rounds, metrics=metrics
            )
            result = engine.prove(theorem.name, theorem.statement)
        else:
            result = search.prove(
                theorem.name, theorem.statement, builder.build
            )
        outcome = TheoremOutcome(
            theorem=theorem,
            model=model_name,
            hinted=hinted,
            status=result.status,
            queries=result.stats.queries,
            attempts=result.attempts,
            failure=(
                result.failure.to_json()
                if result.failure is not None
                else None
            ),
        )
        if result.proved:
            proof_text = result.proof_text()
            outcome.generated_proof = proof_text
            with metrics.span("qed_replay") as replay_span:
                try:
                    # Qed: replay the full script from scratch.
                    run_script(env, theorem.statement, proof_text)
                    outcome.revalidated = True
                except ReproError:
                    outcome.revalidated = False
                if metrics.tracing:
                    replay_span.set(revalidated=outcome.revalidated)
            outcome.similarity = normalized_similarity(
                proof_text, theorem.proof_text
            )
            human_tokens = max(1, count_tokens(theorem.proof_text))
            outcome.length_ratio = count_tokens(proof_text) / human_tokens
        return outcome

    def execute_task(
        self, task: TheoremTask, model_override=None, tracer=None
    ) -> TaskResult:
        """Run one task and return its (record, metrics) pair.

        This is the unit every executor backend dispatches; process
        workers call it on their own Runner, so it must only touch
        picklable inputs/outputs.  ``model_override`` substitutes the
        raw generator (the prover service passes its shared per-model
        micro-batcher); the fault-tolerance stack still wraps it per
        task.

        Telemetry: the task reports through one fresh
        :class:`~repro.obs.metrics.Metrics` handle, whose snapshot rides
        back on ``TaskResult.metrics``.  An explicit ``tracer`` (the
        prover service passes its per-job one) is attached to that
        handle; otherwise, when ``ExperimentConfig.trace`` is set, the
        task records into a fresh tracer whose spans ride back on
        ``TaskResult.trace`` — this is how process workers ship trace
        data to the sweep parent.  With neither, no span tree is built
        and the result is byte-identical to a traced execution.

        The task runs in its own kernel state — term arena and memo
        tables (:func:`repro.kernel.arena.scope`) — dropped when it
        ends, so concurrent tasks never share ids or entries.  That
        state's lookups ride back on the task metrics as
        ``kernel.cache.<name>.*`` counters (and, when tracing, as
        ``kernel_cache`` attributes on the task span).
        """
        from repro.kernel import arena as kernel_arena
        from repro.kernel import cache as kernel_cache

        own_tracer: Optional[Tracer] = None
        if tracer is None and self.config.trace:
            own_tracer = Tracer(trace_id=task.cache_key()[:16])
            tracer = own_tracer
        metrics = Metrics(tracer)

        with kernel_arena.scope() as kernel_state:
            with metrics.span(
                "task",
                theorem=task.theorem,
                model=task.model,
                hinted=task.hinted,
            ) as task_span:
                try:
                    outcome = self.run_theorem(
                        self.project.theorem(task.theorem),
                        task.model,
                        task.hinted,
                        reduced_dependencies=task.reduced_dependencies,
                        model_override=model_override,
                        search_config=task.search_config(),
                        metrics=metrics,
                        repair_rounds=task.repair_rounds,
                        attempt_salt=task.sample_salt(),
                    )
                    record = record_from_outcome(outcome)
                except ModelExhaustedError:
                    # The task's model failed permanently (retries
                    # exhausted or breaker open, no fallback).  Record
                    # the loss as CRASH so the sweep completes instead
                    # of aborting; queries=0 marks the cell as never
                    # meaningfully attempted.
                    metrics.incr("tasks.crashed")
                    record = OutcomeRecord(
                        theorem=task.theorem,
                        model=task.model,
                        hinted=task.hinted,
                        status=Status.CRASH.value,
                        queries=0,
                    )
                delta = kernel_cache.stats_delta({}, kernel_state.stats())
                if metrics.tracing:
                    task_span.set(
                        status=record.status,
                        queries=record.queries,
                        kernel_cache=delta,
                    )
            for name, cell in delta.items():
                metrics.incr(f"kernel.cache.{name}.hits", cell["hits"])
                metrics.incr(f"kernel.cache.{name}.misses", cell["misses"])
        return TaskResult(
            record=record,
            metrics=metrics.snapshot(),
            trace=own_tracer.export() if own_tracer is not None else None,
        )

    def outcome_from_record(self, record: OutcomeRecord) -> TheoremOutcome:
        """Rehydrate a stored record against this runner's project."""
        return TheoremOutcome(
            theorem=self.project.theorem(record.theorem),
            model=record.model,
            hinted=record.hinted,
            status=Status(record.status),
            queries=record.queries,
            generated_proof=record.generated_proof,
            revalidated=record.revalidated,
            similarity=record.similarity,
            length_ratio=record.length_ratio,
            attempts=record.attempts,
            failure=record.failure,
        )

    # ------------------------------------------------------------------
    # Sweep execution
    # ------------------------------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[TheoremTask],
        executor: Optional[Executor] = None,
        store: Optional[RunStore] = None,
        fresh: bool = False,
        trace_sink=None,
    ) -> List[OutcomeRecord]:
        """Execute tasks (store-skipping completed ones), in task order.

        Already-stored cells are served from ``store`` without any
        search; ``fresh=True`` bypasses the lookup (re-executing and
        re-appending, so the newest record wins on the next load).

        ``trace_sink`` is an optional :class:`repro.obs.trace.JsonlSink`
        (or anything with ``write(spans)``): when the sweep runs with
        ``ExperimentConfig.trace``, each executed task's span tree is
        appended as it arrives — including spans shipped back from
        process workers.  Store contents are unaffected either way.
        """
        results: Dict[str, OutcomeRecord] = {}
        pending: List[TheoremTask] = []
        for task in tasks:
            key = task.cache_key()
            self.metrics.incr("tasks.total")
            if store is not None and not fresh and key in store:
                results[key] = store.get(key)
                self.metrics.incr("tasks.cached")
            else:
                pending.append(task)
        if pending:
            # Process workers must reload the project exactly as the
            # parent did — the load mode changes fresh-tvar numbering
            # in lemma statements, and with it prompts and outcomes.
            backend = executor or make_executor(
                self.config,
                check_proofs=getattr(self.project, "check_proofs", True),
            )
            for task, task_result in backend.map(pending, self.execute_task):
                self.metrics.incr("tasks.executed")
                self.metrics.merge(task_result.metrics)
                if trace_sink is not None and task_result.trace:
                    trace_sink.write(task_result.trace)
                if store is not None:
                    store.put(task, task_result.record)
                results[task.cache_key()] = task_result.record
        return [results[task.cache_key()] for task in tasks]

    def run(
        self,
        model_name: str,
        hinted: bool,
        theorems: Optional[Sequence[Theorem]] = None,
        executor: Optional[Executor] = None,
        store: Optional[RunStore] = None,
        fresh: bool = False,
        trace_sink=None,
    ) -> EvalRun:
        chosen = list(theorems) if theorems is not None else self.theorems_for(
            model_name
        )
        tasks = sweep_tasks(chosen, model_name, hinted, self.config)
        records = self.run_tasks(
            tasks,
            executor=executor,
            store=store,
            fresh=fresh,
            trace_sink=trace_sink,
        )
        return EvalRun(
            model=model_name,
            hinted=hinted,
            outcomes=[self.outcome_from_record(r) for r in records],
        )

    # ------------------------------------------------------------------
    # §4.3 probes
    # ------------------------------------------------------------------

    def run_reduced_context(
        self,
        theorem: Theorem,
        model_name: str,
        dependencies: Sequence[str],
    ) -> TheoremOutcome:
        """Hand-reduced-context rerun of a failed theorem (§4.3)."""
        return self.run_theorem(
            theorem, model_name, hinted=False, reduced_dependencies=dependencies
        )

    def run_whole_proof(
        self, theorem: Theorem, attempts: int = 8
    ) -> Dict[str, object]:
        """o1-style whole-proof probe (§4.3): no search, one-shot scripts."""
        from repro.kernel.goals import initial_state
        from repro.llm.wholeproof import WholeProofModel

        model = WholeProofModel()
        env = self.project.env_for(theorem)
        builder = PromptBuilder(self.project, theorem)
        state = initial_state(env, theorem.statement)
        prompt = builder.build(state, [])
        scripts = model.generate(prompt, attempts)
        successes = 0
        for script in scripts:
            try:
                run_script(env, theorem.statement, script)
                successes += 1
            except ReproError:
                pass
        return {
            "theorem": theorem.name,
            "attempts": attempts,
            "successes": successes,
            "scripts": scripts,
        }
