"""``auto``'s failure memo: exact, per task, and only where in scope.

The memo (each kernel state's ``auto_fail`` table) lets ``solve``
answer False at once for a goal that already failed at the same depth
or deeper in this search.
That is exact because failure is monotone in depth and a failed
``solve`` leaves the ``MetaStore`` as it found it; these tests check
both facts on the corpus's human proofs, then check that probing
``auto``, ``trivial`` and ``intuition`` at every step of every human
proof gives the same verdicts and states with the memo on and off.
"""

from contextlib import contextmanager

from repro.kernel import arena, cache
from repro.kernel.goals import HypDecl, initial_state
from repro.kernel.parser import parse_statement
from repro.kernel.terms import Const, metas_of
from repro.serapi import ProofChecker
from repro.tactics import auto_, parse_tactic
from repro.tactics.base import run_tactic
from repro.tactics.script import script_tactics

_PROBES = ("auto", "trivial", "intuition")
TRUE_GOAL = Const("O")  # any meta-free conclusion


@contextmanager
def _memo_off(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(auto_._Prover, "_failure_key", lambda *args: None)
        yield


def _snapshot(state):
    if state is None:
        return None
    store = state.store
    return (
        state.render(),
        store.next_uid,
        sorted((uid, str(term)) for uid, term in store.solutions.items()),
    )


def _memo_hits():
    return cache.cache_stats().get("auto_fail", {}).get("hits", 0)


def _failures():
    """The running kernel state's failure memo."""
    return arena.current().tables[auto_._AUTO_FAIL].data


def _probe_trace(project, theorem):
    """Every probe's verdict and state at each step of the human proof."""
    with arena.scope():  # one search
        checker = ProofChecker(project.env_for(theorem))
        state = checker.start(theorem.statement)
        trace = []
        for tactic in script_tactics(theorem.proof_text):
            for probe in _PROBES:
                result = checker.check(state, probe)
                trace.append(
                    (tactic, probe, result.verdict.value, result.message,
                     _snapshot(result.state))
                )
            result = checker.check(state, tactic)
            assert result.ok, (theorem.name, tactic, result.message)
            state = result.state
        assert state.is_complete(), theorem.name
        return trace


class TestExactness:
    def test_probed_human_proofs_agree_with_memo_off(
        self, project, monkeypatch
    ):
        hits = _memo_hits()
        with_memo = [_probe_trace(project, t) for t in project.theorems]
        assert _memo_hits() > hits + 100  # the memo was used
        with _memo_off(monkeypatch):
            hits = _memo_hits()
            without = [_probe_trace(project, t) for t in project.theorems]
            assert _memo_hits() == hits
        for theorem, on, off in zip(project.theorems, with_memo, without):
            assert on == off, theorem.name

    def test_failed_solve_leaves_the_store_as_found(
        self, project, monkeypatch
    ):
        """Every ``solve`` that answers False, at any recursion depth,
        leaves the store's solutions and ``next_uid`` as it found them
        (checked with the memo off, so every body runs)."""
        original = auto_._Prover.solve
        failed = []

        def solve(self, goal, depth):
            before = (self.store.next_uid, dict(self.store.solutions))
            if original(self, goal, depth):
                return True
            assert (self.store.next_uid, self.store.solutions) == before
            failed.append(depth)
            return False

        with _memo_off(monkeypatch):
            monkeypatch.setattr(auto_._Prover, "solve", solve)
            for theorem in project.theorems[::4]:
                _probe_trace(project, theorem)
        assert len(failed) > 1000
        assert max(failed) == auto_._DEFAULT_DEPTH

    def test_failure_is_monotone_in_depth(self, project):
        """A goal ``solve`` fails at depth d also fails at each depth
        below d, on the focused goal of every human proof step."""
        checked = 0
        for theorem in project.theorems[::4]:
            env = project.env_for(theorem)
            checker = ProofChecker(env)
            state = checker.start(theorem.statement)
            for tactic in script_tactics(theorem.proof_text):
                goal = state.focused()
                outcomes = []
                with cache.disabled():  # no memo: every depth runs
                    for depth in range(4):
                        store = state.clone_store().store
                        prover = auto_._Prover(env, store, allow_metas=False)
                        outcomes.append(prover.solve(goal, depth))
                if False in outcomes:
                    deepest = max(d for d in range(4) if not outcomes[d])
                    assert not any(outcomes[: deepest + 1]), theorem.name
                    checked += 1
                state = checker.check(state, tactic).state
        assert checked > 200


def _focused(env, text, script=""):
    state = initial_state(env, parse_statement(env, text))
    for tactic in script_tactics(script):
        state = run_tactic(env, state, parse_tactic(tactic))
    return state


class TestScope:
    def test_registered_per_task_and_reported(self, env):
        state = _focused(env, "forall a b : nat, a = b", "intros.")
        with arena.scope() as search:
            run_tactic(env, state, parse_tactic("auto"))
            assert len(_failures()) > 0
            assert "auto_fail" in cache.stats_delta({}, search.stats())
        assert "auto_fail" in cache.cache_stats()
        with arena.scope():
            assert len(_failures()) == 0

    def test_second_call_is_a_hit(self, env):
        state = _focused(env, "forall a b : nat, a = b", "intros.")
        cache.clear_caches()
        before = cache.cache_stats()
        counts = []
        for tactic in ("auto", "auto", "auto 6"):
            after = run_tactic(env, state, parse_tactic(tactic))
            assert after.num_goals() == 1
            delta = cache.stats_delta(before)["auto_fail"]
            counts.append((delta["hits"], delta["misses"]))
        (hits, misses), again, deeper = counts
        # The repeat is answered by the memo at once: one hit.
        assert again == (hits + 1, misses)
        # Deeper than the recorded failure: the goal is searched again.
        assert deeper[1] > misses

    def test_kill_switch_bypasses_the_memo(self, env):
        state = _focused(env, "forall a b : nat, a = b", "intros.")
        cache.clear_caches()
        before = cache.cache_stats()
        with cache.disabled():
            for _ in range(2):
                run_tactic(env, state, parse_tactic("auto"))
        assert "auto_fail" not in cache.stats_delta(before)
        assert len(_failures()) == 0

    def test_goals_with_metavariables_are_not_keyed(self, env):
        # After ``eapply le_trans`` the goal holds the middle bound.
        state = _focused(
            env,
            "forall a b : nat, a <= b -> a <= S b",
            "intros. eapply le_trans.",
        )
        goal = state.focused()
        concl = state.resolve(goal.concl)
        assert metas_of(concl)
        prover = auto_._Prover(env, state.store, allow_metas=False)
        assert prover._failure_key(goal, concl) is None
        # A metavariable in a hypothesis puts the goal out of scope too.
        held = goal.add(HypDecl("Hm", concl)).with_concl(TRUE_GOAL)
        assert prover._failure_key(held, TRUE_GOAL) is None
        assert prover._failure_key(goal.with_concl(TRUE_GOAL), TRUE_GOAL)

    def test_eauto_is_out_of_scope(self, env):
        state = _focused(env, "forall a b : nat, a = b", "intros.")
        cache.clear_caches()
        before = cache.cache_stats()
        run_tactic(env, state, parse_tactic("eauto"))
        assert "auto_fail" not in cache.stats_delta(before)
