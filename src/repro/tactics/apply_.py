"""``apply`` / ``eapply`` / ``exact`` / ``assumption``."""

from __future__ import annotations

from repro.errors import TacticError, UnificationError
from repro.kernel.env import Environment
from repro.kernel.goals import HypDecl, ProofState
from repro.kernel.reduction import make_whnf
from repro.kernel.subst import alpha_eq
from repro.kernel.terms import metas_of
from repro.kernel.unify import unify
from repro.tactics.ast import Apply, Assumption, Exact
from repro.tactics.base import executor
from repro.tactics.common import apply_statement, statement_of_name


@executor(Apply)
def run_apply(env: Environment, state: ProofState, node: Apply) -> ProofState:
    goal = state.focused()
    _, statement = statement_of_name(env, goal, node.name)
    if node.in_hyp is not None:
        return _apply_in(env, state, statement, node)
    return apply_statement(
        env, state, statement, allow_metas=node.existential, label=node.render()
    )


def _apply_in(
    env: Environment, state: ProofState, statement, node: Apply
) -> ProofState:
    """Forward reasoning: ``apply L in H``.

    As in Coq, the *first* premise of ``L`` (after its leading
    universals) is unified with ``H``; ``H`` then becomes the rest of
    the chain with the inferred instantiation.
    """
    from repro.kernel.terms import Forall, Impl
    from repro.kernel.subst import subst_var

    goal = state.focused()
    hyp = goal.hyp(node.in_hyp)
    store = state.store

    current = statement
    while isinstance(current, Forall):
        meta = store.fresh(current.var)
        current = subst_var(current.body, current.var, meta)
    if not isinstance(current, Impl):
        raise TacticError(f"{node.render()}: lemma has no premise to match")
    whnf = make_whnf(env)
    target = state.resolve(hyp.prop)
    try:
        unify(store.resolve(current.lhs), target, store, whnf)
    except UnificationError as exc:
        raise TacticError(
            f"{node.render()}: {node.in_hyp} does not match the premise"
        ) from exc
    new_prop = store.resolve(current.rhs)
    if not node.existential and metas_of(new_prop):
        raise TacticError(f"{node.render()}: cannot infer instantiation")
    new_goal = goal.replace_decl(node.in_hyp, HypDecl(node.in_hyp, new_prop))
    return state.replace_focused([new_goal])


@executor(Exact)
def run_exact(env: Environment, state: ProofState, node: Exact) -> ProofState:
    goal = state.focused()
    _, statement = statement_of_name(env, goal, node.name)
    new_state = apply_statement(
        env, state, statement, allow_metas=False, label=node.render()
    )
    if new_state.num_goals() >= state.num_goals():
        raise TacticError(f"{node.render()}: does not close the goal")
    return new_state


@executor(Assumption)
def run_assumption(
    env: Environment, state: ProofState, node: Assumption
) -> ProofState:
    goal = state.focused()
    concl = state.resolve(goal.concl)
    whnf = make_whnf(env)
    for decl in goal.decls:
        if not isinstance(decl, HypDecl):
            continue
        prop = state.resolve(decl.prop)
        if alpha_eq(prop, concl):
            return state.replace_focused([])
        # Fall back to unification (solves goal metas, handles
        # conversion), mirroring Coq's assumption-up-to-conversion.
        snap = state.store.snapshot()
        try:
            unify(prop, concl, state.store, whnf)
            return state.replace_focused([])
        except UnificationError:
            state.store.restore(snap)
    raise TacticError("assumption: no matching hypothesis")
