"""Concurrent interning must keep the arena's parallel arrays aligned.

Regression for a race in ``TermArena._admit``: without the admit lock,
two threads could read the same ``len(self.nodes)`` as a fresh id and
interleave their appends, publishing misaligned ids — the cause of
sporadic ``IndexError`` job failures in concurrent service runs.  Every
thread outside a search shares the default kernel state, so its arena
still admits under the lock.  The hammer drives many threads through
overlapping term structures (shared seeds guarantee cross-thread
collisions on the same nodes) and then checks the arena's invariants.
"""

from __future__ import annotations

import random
import threading

from repro.kernel import arena
from repro.kernel import cache as kernel_cache
from repro.kernel.terms import And, Const, Impl, Var, napp, term_children

THREADS = 12
TRIALS = 6
TERMS_PER_THREAD = 300


def _make_terms(seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(TERMS_PER_THREAD):
        n = rng.randrange(0, 40)
        t = Const("O")
        for _ in range(n):
            t = napp("S", t)
        out.append(
            Impl(And(napp("le", t, Var("x")), Var("y")), napp("eq", t, t))
        )
    return out


def test_concurrent_intern_keeps_arrays_aligned():
    errors = []

    def worker(seed: int) -> None:
        try:
            a = arena.current()
            # Shared seeds: distinct threads intern identical
            # structures, forcing contention on the same entries.
            for term in _make_terms(seed % 5):
                tid = a.intern_id(term)
                rep = a.term_of(tid)
                assert a.intern_id(rep) == tid
        except Exception as exc:  # propagate to the main thread
            errors.append(f"{type(exc).__name__}: {exc}")

    for trial in range(TRIALS):
        kernel_cache.clear_caches()
        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"trial {trial}: {errors[:3]}"
        a = arena.current()
        lengths = {
            len(a.nodes),
            len(a.terms),
            len(a.stamps),
            len(a.hashes),
            len(a.fvs),
            len(a.metas),
            len(a.alpha_fp),
        }
        assert len(lengths) == 1, f"trial {trial}: misaligned {lengths}"
        for key, tid in list(a.table.items()):
            assert tid < len(a.terms), f"trial {trial}: id {tid} OOB"
            rep = a.terms[tid]
            ids = [a.intern_id(c) for c in term_children(rep)]
            assert a._node_key(rep, ids) == key
    kernel_cache.clear_caches()
