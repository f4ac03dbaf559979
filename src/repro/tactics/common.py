"""Shared helpers for tactic executors."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TacticError, TypeError_, UnificationError
from repro.kernel.env import Environment
from repro.kernel.goals import Goal, HypDecl, ProofState, VarDecl
from repro.kernel.reduction import make_whnf, simpl
from repro.kernel.subst import alpha_eq, subst_vars
from repro.kernel.terms import (
    Forall,
    Impl,
    Meta,
    Term,
    Var,
    free_vars,
    metas_of,
)
from repro.kernel.typecheck import elaborate_term, infer_type
from repro.kernel.types import Type
from repro.kernel.unify import MetaStore, spine_clash, unify

__all__ = [
    "statement_of_name",
    "split_statement",
    "binder_scope",
    "instantiate_statement",
    "elaborate_in_goal",
    "infer_in_goal",
    "unsolved_metas",
    "apply_statement",
    "hyps_of",
    "fresh_hyp_names",
]


def statement_of_name(
    env: Environment, goal: Goal, name: str
) -> Tuple[str, Term]:
    """Resolve ``name`` to a hypothesis or global lemma statement.

    Returns ``('hyp', prop)`` or ``('lemma', statement)``.  Hypotheses
    shadow lemmas, as in Coq.
    """
    decl = goal.lookup(name)
    if isinstance(decl, HypDecl):
        return "hyp", decl.prop
    if isinstance(decl, VarDecl):
        raise TacticError(f"{name} is a variable, not a proof")
    statement = env.statement_of(name)
    if statement is None:
        raise TacticError(f"unknown lemma or hypothesis: {name}")
    return "lemma", statement


def split_statement(
    statement: Term,
) -> Tuple[Tuple[str, ...], Tuple[Tuple[Term, int], ...], Term]:
    """Split a statement's leading ``forall``/``->`` prefix, substituting
    nothing.

    Quantifiers *behind* premises are stripped too (``forall x, P x ->
    forall y, Q``), matching how ``apply`` digs for the final
    conclusion.  Returns ``(binders, premises, conclusion)``: the bound
    names in order, and each premise with the number of binders in
    scope where it sits.
    """
    binders: List[str] = []
    premises: List[Tuple[Term, int]] = []
    current = statement
    while True:
        if isinstance(current, Forall):
            binders.append(current.var)
            current = current.body
        elif isinstance(current, Impl):
            premises.append((current.lhs, len(binders)))
            current = current.rhs
        else:
            return tuple(binders), tuple(premises), current


def binder_scope(
    binders: Sequence[str], metas: Sequence[Meta], count: int
) -> Dict[str, Term]:
    """The substitution for the first ``count`` binders: a later binder
    shadows an earlier one of the same name."""
    return dict(zip(binders[:count], metas[:count]))


def instantiate_statement(
    statement: Term, store: MetaStore
) -> Tuple[List[Meta], Tuple[Term, ...], Term]:
    """Strip leading quantifiers/premises off a statement.

    Universal binders become fresh metavariables, allocated in order;
    implication premises are collected (see :func:`split_statement`).
    Each part is instantiated with one simultaneous substitution: a
    metavariable has no free variables, so this equals substituting
    binder by binder.

    Returns ``(metas, premises, conclusion)``.
    """
    binders, premises, conclusion = split_statement(statement)
    metas = [store.fresh(name) for name in binders]
    return (
        metas,
        tuple(
            subst_vars(premise, binder_scope(binders, metas, count))
            for premise, count in premises
        ),
        subst_vars(conclusion, binder_scope(binders, metas, len(binders))),
    )


def elaborate_in_goal(
    env: Environment, goal: Goal, raw: Term, expected: Optional[Type] = None
) -> Term:
    """Elaborate a parsed tactic argument in the goal's context."""
    try:
        return elaborate_term(env, raw, goal.var_types(), expected)
    except TypeError_ as exc:
        raise TacticError(str(exc)) from exc


def infer_in_goal(env: Environment, goal: Goal, raw: Term) -> Tuple[Term, Type]:
    try:
        return infer_type(env, raw, goal.var_types())
    except TypeError_ as exc:
        raise TacticError(str(exc)) from exc


def unsolved_metas(store: MetaStore, *terms: Term) -> List[int]:
    """Uids of metas in ``terms`` still unsolved in ``store``."""
    out: List[int] = []
    for term in terms:
        for uid in sorted(metas_of(store.resolve(term))):
            if uid not in out:
                out.append(uid)
    return out


def apply_statement(
    env: Environment,
    state: ProofState,
    statement: Term,
    allow_metas: bool,
    label: str,
) -> ProofState:
    """Core of ``apply``/``eapply``: unify conclusion, emit premises.

    Products are stripped on demand: first the statement's syntactic
    ``forall``/``->`` prefix; if the remaining conclusion does not
    unify with the goal, it is weak-head normalized (e.g. unfolding
    ``incl``) to expose further products, and the attempt repeats —
    mirroring how Coq's ``apply`` digs through definitions.

    With ``allow_metas=False`` any unsolved metavariable is rejected
    (Coq: "cannot infer the instantiation").
    """
    goal = state.focused()
    store = state.store
    whnf = make_whnf(env)
    goal_concl = state.resolve(goal.concl)

    # Minimal-strip-first: try to unify the statement as-is, and only
    # peel one product (or unfold one definition layer) per failure.
    # This keeps e.g. ``apply in_nil`` working on a ``~ ...`` goal (the
    # negation's premise is part of the conclusion, not an argument).
    # A product stage whose spine clashes with the goal's cannot unify
    # with it (``spine_clash``), so it is stripped untried; binders
    # stripped since the last tried stage are substituted at the next
    # one, in one pass.  A non-product stage and the last iteration are
    # always tried, so ``last_error`` is the same as if every stage were.
    metas: List[Meta] = []
    premises: List[Tuple[Term, Dict[str, Term]]] = []
    pending: Dict[str, Term] = {}
    current = store.resolve(statement)
    last_error: Exception = TacticError(f"{label}: does not apply")
    for stage in range(64):
        kind = current.__class__
        dead = (
            (kind is Forall or kind is Impl)
            and stage < 63
            and spine_clash(current, goal_concl, env, pending)
        )
        if not dead:
            if pending:
                current = subst_vars(current, pending)
                pending = {}
            snap = store.snapshot()
            try:
                unify(current, goal_concl, store, whnf)
                break
            except UnificationError as exc:
                store.restore(snap)
                last_error = exc
        if isinstance(current, Forall):
            meta = store.fresh(current.var)
            metas.append(meta)
            pending = {**pending, current.var: meta}
            current = current.body
        elif isinstance(current, Impl):
            premises.append((current.lhs, pending))
            current = current.rhs
        else:
            reduced = whnf(current)
            if reduced == current:
                raise TacticError(label, last_error)
            current = reduced
    else:
        raise TacticError(label, last_error)

    instantiated = [
        store.resolve(subst_vars(premise, scope))
        for premise, scope in premises
    ]
    new_goals = []
    for premise in instantiated:
        if not allow_metas and metas_of(premise):
            raise TacticError(
                f"{label}: cannot infer instantiation (use eapply)"
            )
        new_goals.append(goal.with_concl(premise))
    if not allow_metas:
        for meta in metas:
            if not store.is_solved(meta.uid) and not any(
                meta.uid in metas_of(p) for p in instantiated
            ):
                raise TacticError(
                    f"{label}: cannot infer instantiation (use eapply)"
                )
    return state.replace_focused(new_goals)


def hyps_of(goal: Goal) -> List[HypDecl]:
    return [d for d in goal.decls if isinstance(d, HypDecl)]


def fresh_hyp_names(goal: Goal, count: int, base: str = "H") -> List[str]:
    """``count`` fresh hypothesis names for ``goal``."""
    taken = set(goal.names())
    out: List[str] = []
    for _ in range(count):
        name = base
        if name in taken:
            index = 0
            while f"{base}{index}" in taken:
                index += 1
            name = f"{base}{index}"
        taken.add(name)
        out.append(name)
    return out
