"""``auto`` / ``eauto`` / ``trivial`` / ``intuition``.

``auto`` is depth-limited backward chaining in the Coq style: it
introduces products, closes goals by assumption/reflexivity, and
applies local hypotheses plus the environment's hint database
(``Hint Resolve`` lemmas and ``Hint Constructors`` intro rules).
``auto`` never fails — if it cannot close the focused goal it leaves
the state untouched (in the proof search this shows up as a duplicate
state, i.e. an invalid tactic, exactly as a useless ``auto`` behaves
in the paper's system).

``eauto`` additionally allows candidate applications to defer
instantiation through metavariables, solved across sibling premises
Prolog-style with backtracking.

``intuition`` decomposes propositional structure (conjunction,
disjunction, ``False``/``True``, implications by modus ponens) and
runs ``auto`` at the leaves, leaving residual subgoals like Coq's.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TacticError, UnificationError
from repro.kernel import arena as _arena
from repro.kernel import cache as _cache
from repro.kernel.env import Environment
from repro.kernel.goals import Goal, HypDecl, ProofState, VarDecl
from repro.kernel.reduction import make_whnf, whnf
from repro.kernel.subst import alpha_eq, fresh_name, subst_var, subst_vars
from repro.kernel.terms import (
    And,
    Eq,
    Exists,
    FalseP,
    Forall,
    Impl,
    Or,
    Term,
    TrueP,
    Var,
    free_vars,
    is_neg,
    metas_of,
    neg_body,
)
from repro.kernel.unify import MetaStore, rigid_head, unify
from repro.tactics.ast import Auto, Intuition, Trivial
from repro.tactics.base import check_deadline, executor
from repro.tactics.common import binder_scope, split_statement

_DEFAULT_DEPTH = 5


class _Candidate(NamedTuple):
    """A statement ``auto`` may apply, split once (see
    :func:`~repro.tactics.common.split_statement`)."""

    binders: Tuple[str, ...]
    premises: Tuple[Tuple[Term, int], ...]
    conclusion: Term
    head: Optional[object]  # the conclusion's rigid head, None if flexible


def _candidate(statement: Term, env: Environment) -> _Candidate:
    binders, premises, conclusion = split_statement(statement)
    return _Candidate(
        binders, premises, conclusion, rigid_head(conclusion, env, binders)
    )


def _index_key(env: Environment) -> tuple:
    """What ``env``'s hint database depends on: its generation (which
    decides what ``whnf`` can unfold) and the length of each hint list."""
    return (env.generation, len(env.hint_resolve), len(env.hint_constructors))


def _hint_index(env: Environment) -> Tuple[_Candidate, ...]:
    """``env``'s hint database, split once per declaration state.

    Kept on ``env`` and rebuilt only when its :func:`_index_key`
    changes.  It is published whole: two racing threads may both build
    it, but neither ever reads a partial index.
    """
    key = _index_key(env)
    index = env.auto_index
    if index is None or index[0] != key:
        hints = tuple(
            _candidate(statement, env) for _, statement in env.auto_hints()
        )
        index = env.auto_index = (key, hints)
    return index[1]


def _clash(goal_head: Optional[object], head: Optional[object]) -> bool:
    """Both heads are rigid and differ, so ``unify`` must fail (see
    :func:`~repro.kernel.unify.rigid_head`); the attempt is skipped.
    A failed attempt leaves no trace — the caller restores its
    ``MetaStore`` snapshot, ``next_uid`` included — so skipping it
    cannot be observed."""
    return goal_head is not None and head is not None and head != goal_head


# The goals ``auto`` failed to prove in this task, each with the
# deepest depth it failed at (DESIGN.md §4a).  Failure is monotone in
# depth, so a call at that depth or less must fail too, and a failed
# ``solve`` leaves the ``MetaStore`` as it found it, so skipping the
# call cannot be observed.  Keyed by the goal itself, its declarations
# resolved, and by everything else ``solve`` reads: the environment,
# its hint database and the ``using`` lemmas.  A kernel cache: one
# table per search, bypassed with the caches off.
_AUTO_FAIL = _cache.register("auto_fail", capacity=4_096)


class _Prover:
    def __init__(
        self,
        env: Environment,
        store: MetaStore,
        allow_metas: bool,
        extra_hints: Sequence[Tuple[str, Term]] = (),
    ) -> None:
        self.env = env
        self.store = store
        self.allow_metas = allow_metas
        self.whnf = make_whnf(env)
        self.hints = tuple(
            _candidate(statement, env) for _, statement in extra_hints
        ) + _hint_index(env)
        # A goal's failure depends on nothing else; eauto's deferred
        # metavariables are out of the memo's scope.
        self.scope = None
        if not allow_metas:
            self.scope = (
                env,
                _index_key(env),
                tuple(name for name, _ in extra_hints),
            )

    # ------------------------------------------------------------------

    def solve(self, goal: Goal, depth: int) -> bool:
        check_deadline()
        concl = self.store.resolve(goal.concl)
        if isinstance(concl, TrueP):
            return True
        if isinstance(concl, (Forall, Impl)):
            return self.solve(self._intro(goal, concl), depth)
        key = self._failure_key(goal, concl)
        if key is None:
            return self._search(goal, concl, depth)
        failures = _arena.current().tables[_AUTO_FAIL]
        failed = failures.data.get(key)
        if failed is not None and depth <= failed:
            failures.hits += 1
            return False
        failures.misses += 1
        if self._search(goal, concl, depth):
            return True
        # Any entry a recursive call made for this goal is shallower.
        failures.put(key, depth)
        return False

    def _failure_key(self, goal: Goal, concl: Term) -> Optional[tuple]:
        """The failure memo's key for ``goal``, or None when the memo is
        off, out of scope, or the goal holds a metavariable."""
        if self.scope is None or metas_of(concl) or not _cache.enabled():
            return None
        decls = []
        for decl in goal.decls:
            if isinstance(decl, HypDecl):
                prop = self.store.resolve(decl.prop)
                if metas_of(prop):
                    return None
                if prop is not decl.prop:
                    decl = HypDecl(decl.name, prop)
            decls.append(decl)
        return (self.scope, tuple(decls), concl)

    def _search(self, goal: Goal, concl: Term, depth: int) -> bool:
        head = rigid_head(concl, self.env)
        if self._by_assumption(goal, concl, head):
            return True
        if self._by_reflexivity(concl):
            return True
        if self._by_contradiction(goal):
            return True
        if depth <= 0:
            return False
        hyps = [
            _candidate(self.store.resolve(d.prop), self.env)
            for d in goal.decls
            if isinstance(d, HypDecl)
        ]
        for candidate in itertools.chain(hyps, self.hints):
            if _clash(head, candidate.head):
                continue
            snapshot = self.store.snapshot()
            if self._try_apply(goal, candidate, concl, depth):
                return True
            self.store.restore(snapshot)
        return False

    # ------------------------------------------------------------------

    def _intro(self, goal: Goal, concl: Term) -> Goal:
        taken = set(goal.names())
        if isinstance(concl, Forall):
            name = fresh_name(concl.var, taken)
            body = subst_var(concl.body, concl.var, Var(name))
            assert concl.ty is not None
            return Goal(goal.decls + (VarDecl(name, concl.ty),), body)
        assert isinstance(concl, Impl)
        name = fresh_name("H", taken)
        return Goal(goal.decls + (HypDecl(name, concl.lhs),), concl.rhs)

    def _by_assumption(
        self, goal: Goal, concl: Term, head: Optional[object]
    ) -> bool:
        for decl in goal.decls:
            if not isinstance(decl, HypDecl):
                continue
            prop = self.store.resolve(decl.prop)
            if alpha_eq(prop, concl):
                return True
            if _clash(head, rigid_head(prop, self.env)):
                continue
            snapshot = self.store.snapshot()
            try:
                unify(prop, concl, self.store, self.whnf)
                return True
            except UnificationError:
                self.store.restore(snapshot)
        return False

    def _by_reflexivity(self, concl: Term) -> bool:
        if not isinstance(concl, Eq):
            return False
        snapshot = self.store.snapshot()
        try:
            unify(concl.lhs, concl.rhs, self.store, self.whnf)
            return True
        except UnificationError:
            self.store.restore(snapshot)
            return False

    def _by_contradiction(self, goal: Goal) -> bool:
        hyps = [d for d in goal.decls if isinstance(d, HypDecl)]
        for hyp in hyps:
            prop = self.store.resolve(hyp.prop)
            if isinstance(prop, FalseP):
                return True
            if is_neg(prop):
                body = neg_body(prop)
                for other in hyps:
                    if alpha_eq(self.store.resolve(other.prop), body):
                        return True
        return False

    def _try_apply(
        self, goal: Goal, candidate: _Candidate, concl: Term, depth: int
    ) -> bool:
        binders = candidate.binders
        metas = [self.store.fresh(name) for name in binders]
        conclusion = subst_vars(
            candidate.conclusion, binder_scope(binders, metas, len(binders))
        )
        try:
            unify(conclusion, concl, self.store, self.whnf)
        except UnificationError:
            return False
        premises = [
            subst_vars(premise, binder_scope(binders, metas, count))
            for premise, count in candidate.premises
        ]
        if not self.allow_metas:
            for premise in premises:
                if metas_of(self.store.resolve(premise)):
                    return False
        for premise in premises:
            sub = goal.with_concl(self.store.resolve(premise))
            if not self.solve(sub, depth - 1):
                return False
        if not self.allow_metas:
            for meta in metas:
                if not self.store.is_solved(meta.uid):
                    return False
        return True


def _run_auto(
    env: Environment, state: ProofState, node: Auto
) -> ProofState:
    goal = state.focused()
    extra: List[Tuple[str, Term]] = []
    for name in node.using:
        statement = env.statement_of(name)
        if statement is None:
            raise TacticError(f"auto: unknown lemma {name}")
        extra.append((name, statement))
    prover = _Prover(env, state.store, node.existential, extra)
    depth = node.depth if node.depth is not None else _DEFAULT_DEPTH
    snapshot = state.store.snapshot()
    if prover.solve(goal, depth):
        return state.replace_focused([])
    state.store.restore(snapshot)
    return state  # auto never fails


@executor(Auto)
def run_auto(env: Environment, state: ProofState, node: Auto) -> ProofState:
    return _run_auto(env, state, node)


@executor(Trivial)
def run_trivial(env: Environment, state: ProofState, node: Trivial) -> ProofState:
    return _run_auto(env, state, Auto(depth=1))


# ----------------------------------------------------------------------
# intuition
# ----------------------------------------------------------------------

_INTUITION_STEPS = 200


def _decompose(goal: Goal, steps: List[int]) -> List[Goal]:
    """One propositional decomposition pass; returns replacement goals."""
    steps[0] += 1
    if steps[0] > _INTUITION_STEPS:
        return [goal]
    check_deadline()
    concl = goal.concl
    # Goal-side rules.
    if isinstance(concl, (Forall, Impl)):
        taken = set(goal.names())
        if isinstance(concl, Forall):
            if concl.ty is None:
                return [goal]
            name = fresh_name(concl.var, taken)
            body = subst_var(concl.body, concl.var, Var(name))
            return _decompose(
                Goal(goal.decls + (VarDecl(name, concl.ty),), body), steps
            )
        name = fresh_name("H", taken)
        return _decompose(
            Goal(goal.decls + (HypDecl(name, concl.lhs),), concl.rhs), steps
        )
    if isinstance(concl, And):
        return _decompose(goal.with_concl(concl.lhs), steps) + _decompose(
            goal.with_concl(concl.rhs), steps
        )
    # Hypothesis-side rules.
    for decl in goal.decls:
        if not isinstance(decl, HypDecl):
            continue
        prop = decl.prop
        if isinstance(prop, FalseP):
            return []
        if isinstance(prop, TrueP):
            return _decompose(goal.remove_decl(decl.name), steps)
        if isinstance(prop, And):
            base = goal.remove_decl(decl.name)
            taken = set(base.names())
            n1 = fresh_name(decl.name, taken)
            taken.add(n1)
            n2 = fresh_name("H", taken)
            return _decompose(
                base.add(HypDecl(n1, prop.lhs)).add(HypDecl(n2, prop.rhs)),
                steps,
            )
        if isinstance(prop, Or):
            base = goal.remove_decl(decl.name)
            left = base.add(HypDecl(decl.name, prop.lhs))
            right = base.add(HypDecl(decl.name, prop.rhs))
            return _decompose(left, steps) + _decompose(right, steps)
        if isinstance(prop, Exists) and prop.ty is not None:
            base = goal.remove_decl(decl.name)
            taken = set(base.names())
            var_name = fresh_name(prop.var, taken)
            body = subst_var(prop.body, prop.var, Var(var_name))
            return _decompose(
                base.add(VarDecl(var_name, prop.ty)).add(
                    HypDecl(decl.name, body)
                ),
                steps,
            )
    # Modus ponens on implication hypotheses with available premises.
    for decl in goal.decls:
        if not isinstance(decl, HypDecl) or not isinstance(decl.prop, Impl):
            continue
        if is_neg(decl.prop):
            continue
        lhs, rhs = decl.prop.lhs, decl.prop.rhs
        for other in goal.decls:
            if (
                isinstance(other, HypDecl)
                and other.name != decl.name
                and alpha_eq(other.prop, lhs)
            ):
                base = goal.replace_decl(decl.name, HypDecl(decl.name, rhs))
                return _decompose(base, steps)
    return [goal]


@executor(Intuition)
def run_intuition(env: Environment, state: ProofState, node: Intuition) -> ProofState:
    goal = state.focused()
    steps = [0]
    residual = _decompose(goal, steps)
    survivors: List[Goal] = []
    for sub in residual:
        prover = _Prover(env, state.store, allow_metas=False)
        snapshot = state.store.snapshot()
        if not prover.solve(sub, _DEFAULT_DEPTH):
            state.store.restore(snapshot)
            survivors.append(sub)
    return state.replace_focused(survivors)
