"""Kernel state belongs to a search: one arena and memo set per scope.

Each search runs in :func:`repro.kernel.arena.scope`, a fresh arena and
memo tables held in a context variable and dropped when the scope
exits.  Concurrent searches share term objects (the environment's
statements), which each arena re-stamps on use, so ids and
fingerprints must stay right while other arenas re-stamp the same
objects; and a sweep on threads must give serial's records without
any arena outgrowing one search's.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.eval.config import ExperimentConfig
from repro.eval.executor import SerialExecutor, ThreadPoolExecutor
from repro.eval.runner import Runner
from repro.eval.tasks import TheoremTask
from repro.kernel import arena, cache
from repro.kernel.parser import parse_statement
from repro.kernel.reduction import simpl
from repro.kernel.subst import _alpha_fp_pristine, alpha_fingerprint
from repro.kernel.terms import intern


@pytest.fixture()
def fast_switching():
    """Switch threads every microsecond, so re-stamps interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_threads_in_separate_states_share_term_objects(
    project, fast_switching
):
    statements = [t.statement for t in project.theorems]
    pairs = [(s, _alpha_fp_pristine(s)) for s in statements]
    errors = []

    def search(start: int) -> None:
        # Each thread starts elsewhere, so equal nodes get different
        # ids in different arenas.
        order = pairs[start:] + pairs[:start]
        try:
            for _ in range(3):
                with arena.scope() as state:
                    for statement, fp in order:
                        tid = state.intern_id(statement)
                        canonical = state.term_of(tid)
                        assert canonical == statement
                        assert state.intern_id(canonical) == tid
                        assert state.alpha_fp_of(tid) == fp
                        assert alpha_fingerprint(statement) == fp
        except Exception as exc:  # reported on the main thread
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=search, args=(k * 83,)) for k in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]


def test_scope_drops_its_state_and_restores_the_callers(env):
    outer = arena.current()
    outer_size = outer.size()
    before = cache.cache_stats()
    with arena.scope() as state:
        assert arena.current() is state
        assert state is not outer
        with arena.scope() as inner:
            assert arena.current() is inner
        assert arena.current() is state
        goal = intern(parse_statement(env, "forall n : nat, n + 0 = n"))
        simpl(env, goal)
        assert state.size() > 0
        assert state.tables["simpl"].data
        lookups = cache.stats_delta({}, state.stats())
        dropped = weakref.ref(state)
    assert arena.current() is outer
    assert outer.size() == outer_size  # nothing reached the default
    # The totals kept the dropped state's lookups.
    delta = cache.stats_delta(before)
    for name, cell in lookups.items():
        assert delta[name]["hits"] >= cell["hits"]
        assert delta[name]["misses"] >= cell["misses"]
    del state, inner
    gc.collect()
    assert dropped() is None


def _cheap_tasks(project):
    return [
        TheoremTask(
            theorem=theorem.name,
            model="gpt-4o",
            hinted=hinted,
            width=4,
            fuel=2,
            attempt=attempt,
        )
        for theorem in project.theorems[:250]
        for hinted in (False, True)
        for attempt in range(2)
    ]


def _run(runner, tasks, executor, monkeypatch):
    """The records, and every task arena's size when its scope exits."""
    sizes = []
    scope = arena.scope

    @contextmanager
    def measured():
        with scope() as state:
            yield state
            sizes.append(state.size())

    with monkeypatch.context() as patch:
        patch.setattr(arena, "scope", measured)
        records = runner.run_tasks(tasks, executor=executor)
    return records, sizes


def test_thread_soak_matches_serial_and_stays_bounded(project, monkeypatch):
    tasks = _cheap_tasks(project)
    assert len(tasks) >= 1_000
    runner = Runner(project, ExperimentConfig())
    serial, serial_sizes = _run(runner, tasks, SerialExecutor(), monkeypatch)
    default_size = arena.current().size()
    threaded, thread_sizes = _run(
        runner, tasks, ThreadPoolExecutor(4), monkeypatch
    )
    assert threaded == serial
    assert len(thread_sizes) == len(tasks)
    assert max(thread_sizes) <= max(serial_sizes)
    assert arena.current().size() == default_size
