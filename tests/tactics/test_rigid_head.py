"""The rigid-head skips: sound, and blind to flexible heads.

``auto`` skips a candidate whose conclusion's rigid head differs from
the goal's (:func:`repro.kernel.unify.rigid_head`), and ``apply`` skips
a product stage whose ``forall``/``->`` spine clashes with the goal's
(:func:`repro.kernel.unify.spine_clash`).  These tests run the skipped
attempts anyway and check that each one fails without a trace, pin the
successes that pass through a flexible head, and check that the skips
really save unifier calls.
"""

import pytest

from repro.errors import UnificationError
from repro.kernel.goals import initial_state
from repro.kernel.parser import parse_statement
from repro.kernel.terms import (
    And,
    App,
    Const,
    Eq,
    FalseP,
    Forall,
    Impl,
    Lam,
    Meta,
    Or,
    TRUE,
    Var,
)
from repro.kernel.unify import rigid_head, spine_clash
from repro.serapi import ProofChecker
from repro.tactics import auto_, common, parse_tactic
from repro.tactics.base import run_tactic
from repro.tactics.script import script_tactics

# Human proofs from the list, arith and CHL files.
_REPLAYED = (
    "in_app_or",
    "incl_app",
    "Forall_app_l",
    "NoDup_app_l",
    "firstn_oob",
    "beq_nat_true",
    "min_le_l",
    "mult_n_Sm",
    "sep_star_assoc_swap",
    "pimpl_or_star_distr",
    "hoare_write_read",
    "crash_xform_or_ptsto",
)


def _top(term):
    """The top-level head: a constant, or the node kind."""
    return term.fn if isinstance(term, App) else term.__class__


def _state(env, text, script=""):
    state = initial_state(env, parse_statement(env, text))
    for tactic in script_tactics(script):
        state = run_tactic(env, state, parse_tactic(tactic))
    return state


class TestRigidHead:
    def test_rigid_heads(self, env):
        n = Var("n")
        assert rigid_head(App(Const("S"), (n,)), env) == Const("S")
        assert rigid_head(Const("le"), env) == Const("le")
        assert rigid_head(App(n, (n,)), env) == n
        assert rigid_head(Eq(None, n, n), env) is Eq
        assert rigid_head(And(TRUE, TRUE), env) is And
        assert rigid_head(Or(TRUE, TRUE), env) is Or
        assert rigid_head(Forall("x", None, TRUE), env) is Forall
        assert rigid_head(FalseP(), env) is FalseP

    def test_flexible_heads(self, env):
        n = Var("n")
        assert "app" in env.fixpoints and "incl" in env.abbreviations
        assert rigid_head(App(Const("app"), (n, n)), env) is None
        assert rigid_head(App(Const("incl"), (n, n)), env) is None
        assert rigid_head(App(Meta(0), (n,)), env) is None
        assert rigid_head(Meta(0), env) is None
        assert rigid_head(App(Lam("x", None, n), (n,)), env) is None
        assert rigid_head(App(Var("P"), (n,)), env, ("P",)) is None


class TestAutoSkip:
    def test_skipped_attempts_would_fail(self, project, monkeypatch):
        """Replay human proofs and run ``auto``/``eauto`` at every step
        with the skip disabled, as before it existed.  Every attempt the
        skip would drop fails: its ``unify`` call raises and leaves the
        store as it found it, and the whole attempt leaves behind only
        its binders' fresh metas, which the caller's snapshot restore
        removes."""
        real_clash = auto_._clash
        real_unify = auto_.unify
        original = auto_._Prover._try_apply
        envs = []
        dead = {"unify": 0, "attempt": 0}

        def unify(a, b, store, whnf=None):
            clash = real_clash(rigid_head(a, envs[-1]), rigid_head(b, envs[-1]))
            before = (store.next_uid, dict(store.solutions))
            try:
                real_unify(a, b, store, whnf)
            except UnificationError:
                assert (store.next_uid, store.solutions) == before
                dead["unify"] += clash
                raise
            assert not clash, (str(a), str(b))

        def try_apply(self, goal, candidate, concl, depth):
            uid, solutions = self.store.next_uid, dict(self.store.solutions)
            ok = original(self, goal, candidate, concl, depth)
            if real_clash(rigid_head(concl, self.env), candidate.head):
                dead["attempt"] += 1
                assert not ok
                assert self.store.solutions == solutions
                assert self.store.next_uid == uid + len(candidate.binders)
            return ok

        monkeypatch.setattr(auto_, "_clash", lambda goal_head, head: False)
        monkeypatch.setattr(auto_, "unify", unify)
        monkeypatch.setattr(auto_._Prover, "_try_apply", try_apply)
        for name in _REPLAYED:
            theorem = project.theorem(name)
            envs.append(project.env_for(theorem))
            checker = ProofChecker(envs[-1])
            state = checker.start(theorem.statement)
            for tactic in script_tactics(theorem.proof_text):
                for probe in ("auto", "eauto"):
                    checker.check(state, probe)
                result = checker.check(state, tactic)
                assert result.ok, (name, tactic, result.message)
                state = result.state
            assert state.is_complete(), name
        assert dead["attempt"] > 1000
        assert dead["unify"] > dead["attempt"]

    @pytest.mark.parametrize(
        "text, script, hint",
        [
            # ``lt`` is an abbreviation: whnf exposes ``le``.
            ("1 < 2", "", "le_n"),
            # ``In`` is a fixpoint: whnf exposes the disjunction.
            (
                "forall (a a0 : nat) (l1 : list nat), "
                "In a0 l1 -> a = a0 \\/ In a0 l1",
                "intros.",
                "in_cons",
            ),
            # ``inode_ok`` is an abbreviation: whnf exposes ``=``.
            ("inode_ok (pair 0 nil)", "", "app_nil_l"),
        ],
    )
    def test_cross_head_successes(self, env, text, script, hint):
        state = _state(env, text, script)
        goal = state.focused()
        concl = state.resolve(goal.concl)
        candidate = auto_._candidate(env.statement_of(hint), env)
        assert _top(candidate.conclusion) != _top(concl)
        assert not auto_._clash(rigid_head(concl, env), candidate.head)
        prover = auto_._Prover(env, state.store, allow_metas=False)
        assert prover._try_apply(goal, candidate, concl, 4)
        solved = run_tactic(env, _state(env, text, script), parse_tactic("auto"))
        assert solved.num_goals() == 0

    @pytest.mark.parametrize(
        "text",
        [
            "forall a b : nat, a = b",
            "forall n : nat, S n <= 0",
            "forall (p q : pred), p =p=> q",
        ],
    )
    def test_fewer_unify_calls_than_candidates(self, env, text, monkeypatch):
        state = _state(env, text, "intros.")
        assert rigid_head(state.resolve(state.focused().concl), env)
        calls = []
        real_unify = auto_.unify

        def counting(*args, **kwargs):
            calls.append(args)
            return real_unify(*args, **kwargs)

        monkeypatch.setattr(auto_, "unify", counting)
        after = run_tactic(env, state, parse_tactic("auto"))
        assert after.num_goals() == 1
        assert len(calls) < len(env.auto_hints())

    def test_index_follows_the_environment(self, project):
        """One index per environment, rebuilt when a hint lands."""
        theorem = project.theorem("in_app_or")
        env = project.env_for(theorem)
        first = auto_._hint_index(env)
        assert auto_._hint_index(env) is first
        assert len(first) == len(env.auto_hints())
        other = project.env_for(project.theorem("crash_xform_or_ptsto"))
        assert auto_._hint_index(other) is not first
        key, _ = env.auto_index
        env.hint_resolve.append(env.hint_resolve[0])
        try:
            assert auto_._hint_index(env) is not first
            assert env.auto_index[0] != key
        finally:
            env.hint_resolve.pop()
        assert len(auto_._hint_index(env)) == len(first)


# Probed at every step of the replays.  Before the first ``intros`` the
# goal is itself a product, so ``apply`` walks both spines.
_APPLY_PROBES = (
    "apply le_trans",
    "eapply le_trans",
    "apply le_S",
    "apply in_or_app",
    "apply in_app_or",
    "apply incl_app",
    "apply Forall_app_l",
    "apply firstn_oob",
    "eapply pimpl_trans",
    "apply H",
    "apply H0",
)


class TestApplySkip:
    def test_skipped_stages_would_fail(self, project, monkeypatch):
        """Replay human proofs and probe ``apply``/``eapply`` at every
        step, once with the spine skip and once with it off, as before
        it existed.  Every stage the skip drops fails when it is run:
        its ``unify`` raises and leaves the store as it found it.  Both
        runs give the same verdicts, messages and states."""
        real_spine = common.spine_clash
        real_unify = common.unify
        envs = []
        skipping = [True]
        dead = {"stage": 0, "walked": 0}

        def spine(current, goal, env, bound=()):
            return skipping[0] and real_spine(current, goal, env, bound)

        def unify(a, b, store, whnf=None):
            clash = a.__class__ in (Forall, Impl) and real_spine(
                a, b, envs[-1]
            )
            assert not (clash and skipping[0]), (str(a), str(b))
            before = (store.next_uid, dict(store.solutions))
            try:
                real_unify(a, b, store, whnf)
            except UnificationError:
                assert (store.next_uid, store.solutions) == before
                dead["stage"] += clash
                # The old rule skipped only a product facing another
                # rigid head; these stages needed the walk.
                dead["walked"] += clash and a.__class__ is b.__class__
                raise
            assert not clash, (str(a), str(b))

        def outcome(checker, state, tactic):
            result = checker.check(state, tactic)
            if not result.ok:
                return result.verdict, result.message
            after = result.state
            return after.render(), after.store.next_uid, after.store.solutions

        monkeypatch.setattr(common, "spine_clash", spine)
        monkeypatch.setattr(common, "unify", unify)
        for name in _REPLAYED:
            theorem = project.theorem(name)
            envs.append(project.env_for(theorem))
            checker = ProofChecker(envs[-1])
            state = checker.start(theorem.statement)
            for tactic in script_tactics(theorem.proof_text):
                for probe in _APPLY_PROBES:
                    skipping[0] = True
                    with_skip = outcome(checker, state, probe)
                    skipping[0] = False
                    assert outcome(checker, state, probe) == with_skip
                skipping[0] = True
                result = checker.check(state, tactic)
                assert result.ok, (name, tactic, result.message)
                state = result.state
            assert state.is_complete(), name
        assert dead["stage"] > 0
        assert dead["walked"] > 0

    @pytest.mark.parametrize(
        "a, b",
        [
            # Walked in step to a product facing an equation.
            ("forall n m : nat, n <= m -> m <= n", "forall n : nat, n = n"),
            # Walked through premises to a product facing ``<=``.
            ("0 = 0 -> forall n : nat, n = n", "0 = 0 -> 0 <= 0"),
            # ``->`` facing ``forall``.
            ("0 = 0 -> 0 = 0", "forall n : nat, n = n"),
        ],
    )
    def test_clashing_spines(self, env, a, b):
        a, b = parse_statement(env, a), parse_statement(env, b)
        assert spine_clash(a, b, env)
        assert spine_clash(b, a, env)

    @pytest.mark.parametrize(
        "a, b",
        [
            # Neither side reaches a product.
            ("forall n : nat, n <= n", "forall n : nat, n = n"),
            # ``lt`` is an abbreviation: its head is flexible.
            ("forall n m : nat, n = m", "forall n : nat, n < 0"),
            # A walked binder is flexible on both sides.
            ("forall (P : Prop), P", "forall (Q : Prop) (n : nat), n = n"),
        ],
    )
    def test_matching_spines(self, env, a, b):
        a, b = parse_statement(env, a), parse_statement(env, b)
        assert not spine_clash(a, b, env)
        assert not spine_clash(b, a, env)

    def test_pending_binder_is_flexible(self, env):
        """``P`` was stripped and waits to become a metavariable."""
        a = parse_statement(env, "forall (P : Prop) (n : nat), P").body
        b = parse_statement(env, "forall m k : nat, k = k")
        assert spine_clash(a, b, env)
        assert not spine_clash(a, b, env, ("P",))
