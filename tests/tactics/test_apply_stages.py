"""``apply``'s stripping loop and one-pass instantiation stay exact.

``apply_statement`` strips product stages that cannot unify with the
goal without trying them, and instantiates a statement's binders in
one simultaneous substitution.  Error texts, new goals and metavariable
numbering must be what trying every stage, binder by binder, gave.
"""

import pytest

from repro.errors import TacticError
from repro.kernel.goals import initial_state
from repro.kernel.parser import parse_statement
from repro.kernel.subst import subst_var
from repro.kernel.terms import Forall, Impl
from repro.kernel.unify import MetaStore
from repro.tactics import parse_tactic
from repro.tactics.base import run_tactic
from repro.tactics.common import instantiate_statement


def _per_binder(statement, store):
    """The binder-by-binder instantiation ``instantiate_statement``
    replaced: the reference it must agree with."""
    metas, premises, current = [], [], statement
    while True:
        if isinstance(current, Forall):
            meta = store.fresh(current.var)
            metas.append(meta)
            current = subst_var(current.body, current.var, meta)
        elif isinstance(current, Impl):
            premises.append(current.lhs)
            current = current.rhs
        else:
            return metas, tuple(premises), current


def _after_intros(env, text):
    state = initial_state(env, parse_statement(env, text))
    return run_tactic(env, state, parse_tactic("intros"))


def _apply(env, text, tactic):
    return run_tactic(env, _after_intros(env, text), parse_tactic(tactic))


_LONG = " ".join(f"a{i}" for i in range(70))

# Texts of each TacticError, as trying every stage produced them.
_FAILURES = [
    (
        "forall n m : nat, n = m",
        "apply le_trans",
        "apply le_trans: cannot unify ?n0 <= ?p2 with n = m",
    ),
    (
        "forall n m : nat, n = m",
        "eapply le_trans",
        "eapply le_trans: cannot unify ?n0 <= ?p2 with n = m",
    ),
    (
        "forall (l1 l2 : list nat) (a b : nat), incl l1 l2 -> a = b",
        "apply H",
        "apply H: cannot unify In ?a0 l2 with a = b",
    ),
    (
        "forall n : nat, n <= 0",
        "apply le_S",
        "apply le_S: cannot unify ?n0 <= S ?m1 with n <= 0",
    ),
    (
        "forall (P Q : Prop), (P -> Q) -> Q -> P",
        "apply H",
        "apply H: variable clash: Q vs P",
    ),
    (
        f"(forall ({_LONG} : nat), a0 = a1) -> 0 = 1",
        "apply H",
        "apply H: cannot unify forall (a63 a64 a65 a66 a67 a68 a69 : nat), "
        "?a00 = ?a11 with 0 = 1",
    ),
    (
        "forall (l : list nat), length l = 0",
        "apply in_nil",
        "apply in_nil: cannot unify False with length l = 0",
    ),
    (
        "forall n : nat, ~ n = n",
        "apply le_n",
        "apply le_n: cannot unify ?n0 <= ?n0 with ~ n = n",
    ),
    (
        "forall (A : Type) (l : list A), l ++ nil = l",
        "apply app_nil_l",
        "apply app_nil_l: cannot unify l ++ nil with l",
    ),
    (
        "forall n : nat, n = 0",
        "exact le_n",
        "exact le_n: cannot unify ?n0 <= ?n0 with n = 0",
    ),
    (
        "forall (p q : pred), p =p=> q",
        "apply pimpl_trans",
        "apply pimpl_trans: cannot infer instantiation (use eapply)",
    ),
    (
        "forall n : nat, S n = 0",
        "apply plus_comm",
        "apply plus_comm: cannot unify ?n0 + ?m1 with S n",
    ),
    (
        "forall (l1 l2 : list nat) (a x : nat), "
        "incl l1 l2 -> In x l1 -> In x (a :: l2)",
        "apply incl_tl",
        "apply incl_tl: cannot infer instantiation (use eapply)",
    ),
    (
        "forall n m : nat, n <= m -> m = n",
        "eapply le_S",
        "eapply le_S: cannot unify ?n0 <= S ?m1 with m = n",
    ),
]


class TestInstantiation:
    @pytest.mark.parametrize(
        "text",
        [
            "forall (P Q : nat -> Prop), "
            "forall x, P x -> forall x, Q x",
            "forall (P : nat -> nat -> Prop) (x y : nat), "
            "P x y -> forall y, P y x -> forall x, P x y",
            "forall (P : nat -> Prop) (x : nat), "
            "(forall x, P x) -> P x -> forall z, P z -> P x",
        ],
    )
    def test_shadowed_binders(self, env, text):
        statement = parse_statement(env, text)
        ours, theirs = MetaStore(next_uid=7), MetaStore(next_uid=7)
        metas, premises, conclusion = instantiate_statement(statement, ours)
        want_metas, want_premises, want_conclusion = _per_binder(
            statement, theirs
        )
        assert [(m.uid, m.hint) for m in metas] == [
            (m.uid, m.hint) for m in want_metas
        ]
        assert premises == want_premises
        assert conclusion == want_conclusion
        assert [str(p) for p in premises] == [str(p) for p in want_premises]
        assert ours.next_uid == theirs.next_uid

    def test_every_lemma(self, env):
        for name in env.all_lemma_names():
            statement = env.statement_of(name)
            got = instantiate_statement(statement, MetaStore())
            want = _per_binder(statement, MetaStore())
            assert [(m.uid, m.hint) for m in got[0]] == [
                (m.uid, m.hint) for m in want[0]
            ], name
            assert got[1:] == want[1:], name


class TestApplyStages:
    @pytest.mark.parametrize("text, tactic, message", _FAILURES)
    def test_error_text(self, env, text, tactic, message):
        with pytest.raises(TacticError) as caught:
            _apply(env, text, tactic)
        assert str(caught.value) == message

    def test_through_delta(self, env):
        """``incl`` must be unfolded before the lemma's conclusion
        meets the goal."""
        state = _apply(
            env,
            "forall (l1 l2 : list nat) (a : nat), "
            "incl l1 l2 -> In a l1 -> In a l2",
            "apply H",
        )
        assert [str(g.concl) for g in state.goals] == ["In a l1"]
        state = _apply(
            env,
            "forall (l1 l2 : list nat) (a x : nat), "
            "incl l1 l2 -> In x l1 -> In x (a :: l2)",
            "eapply incl_tl",
        )
        assert [str(state.resolve(g.concl)) for g in state.goals] == [
            "incl ?l11 l2",
            "In x ?l11",
        ]

    @pytest.mark.parametrize(
        "text, tactic, goals",
        [
            (
                "forall n m p, n <= m -> m <= p -> n <= p",
                "eapply le_trans",
                ["n <= ?m1", "?m1 <= p"],
            ),
            (
                "forall (p q r : pred), p =p=> r",
                "eapply pimpl_trans",
                ["p =p=> ?q1", "?q1 =p=> r"],
            ),
            (
                "forall n m : nat, n <= m -> n <= S m",
                "apply le_S",
                ["n <= m"],
            ),
        ],
    )
    def test_new_goals_and_meta_numbering(self, env, text, tactic, goals):
        state = _apply(env, text, tactic)
        assert [str(state.resolve(g.concl)) for g in state.goals] == goals
