"""Goals and proof states.

A :class:`Goal` is a Coq-style sequent: an ordered context of variable
declarations (``x : nat``) and hypotheses (``H : P``) above a
conclusion.  A :class:`ProofState` is the sequence of open goals (the
first is focused) plus the metavariable store shared by all of them
(``eapply`` can thread an existential through sibling goals, exactly
as in Coq).

States are immutable from the outside: the tactic runner clones the
metavariable store before a tactic mutates it, so search-tree siblings
never interfere — a requirement for best-first search, where many
alternative expansions of one state coexist.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import KernelError
from repro.kernel import cache as _cache
from repro.kernel.env import Environment
from repro.kernel.pretty import pp_term, pp_type
from repro.kernel.subst import alpha_fingerprint, alpha_key, fresh_name
from repro.kernel.terms import Term, free_vars, intern, metas_of
from repro.kernel.types import TArrow, TCon, TVar, Type
from repro.kernel.unify import MetaStore

__all__ = ["VarDecl", "HypDecl", "Decl", "Goal", "ProofState", "initial_state"]

# The display text of each term rendered in this task.  A child
# state's display shares most hypotheses with its parent's, so each
# prompt renders only what the last tactic changed.  A kernel cache:
# emptied per task and bypassed with the caches off.
_RENDERED = _cache.BoundedCache("render", capacity=1_024)


def _render(term: Term) -> str:
    """``pp_term(term)``, memoized per task."""
    if not _cache.enabled():
        return pp_term(term)
    text = _RENDERED.get(term)
    if text is None:
        text = pp_term(term)
        _RENDERED.put(term, text)
    return text


@dataclass(frozen=True)
class VarDecl:
    """A context variable declaration ``name : ty``."""

    name: str
    ty: Type

    def render(self) -> str:
        return f"{self.name} : {pp_type(self.ty)}"


@dataclass(frozen=True)
class HypDecl:
    """A context hypothesis ``name : prop``."""

    name: str
    prop: Term

    def render(self) -> str:
        return f"{self.name} : {_render(self.prop)}"


Decl = Union[VarDecl, HypDecl]


def _ty_key(ty: Type, canon: Dict[str, str], parts: List[str]) -> None:
    """Append a canonical token stream for ``ty`` to ``parts``.

    Inference-generated type variables (``?``-prefixed, from
    :func:`repro.kernel.types.fresh_tvar`) are numbered by first
    occurrence within one goal, so a goal's key no longer depends on
    the global fresh-tvar counter — loading the corpus with or without
    proof replay used to shift those names (``?A17`` vs ``?A243``) and
    silently change duplicate-state keys.
    """
    if isinstance(ty, TVar):
        name = ty.name
        if name.startswith("?"):
            name = canon.setdefault(name, f"?{len(canon)}")
        parts.append(f"tv:{name};")
    elif isinstance(ty, TCon):
        parts.append(f"tc:{ty.name}{len(ty.args)}(")
        for arg in ty.args:
            _ty_key(arg, canon, parts)
        parts.append(")")
    elif isinstance(ty, TArrow):
        parts.append("ar(")
        _ty_key(ty.dom, canon, parts)
        _ty_key(ty.cod, canon, parts)
        parts.append(")")
    else:
        raise AssertionError(f"unknown type node: {ty!r}")


def _ty_fp(ty: Type, canon: Dict[str, int]) -> int:
    """Integer counterpart of :func:`_ty_key` (same canonicalization)."""
    if isinstance(ty, TVar):
        if ty.name.startswith("?"):
            return hash(("tv?", canon.setdefault(ty.name, len(canon))))
        return hash(("tv", ty.name))
    if isinstance(ty, TCon):
        return hash(("tc", ty.name) + tuple(_ty_fp(a, canon) for a in ty.args))
    if isinstance(ty, TArrow):
        return hash(("ar", _ty_fp(ty.dom, canon), _ty_fp(ty.cod, canon)))
    raise AssertionError(f"unknown type node: {ty!r}")


@dataclass(frozen=True)
class Goal:
    """One sequent: context declarations above a conclusion."""

    decls: Tuple[Decl, ...]
    concl: Term

    # -- context queries -------------------------------------------------

    def names(self) -> List[str]:
        return [d.name for d in self.decls]

    def lookup(self, name: str) -> Optional[Decl]:
        for decl in self.decls:
            if decl.name == name:
                return decl
        return None

    def hyp(self, name: str) -> HypDecl:
        decl = self.lookup(name)
        if not isinstance(decl, HypDecl):
            raise KernelError(f"no hypothesis named {name}")
        return decl

    def var_types(self) -> Dict[str, Type]:
        """Context for the elaborator: every declared name's type.

        Hypotheses get no entry (they are proofs, not terms); variable
        declarations map to their type.
        """
        return {d.name: d.ty for d in self.decls if isinstance(d, VarDecl)}

    def fresh(self, base: str) -> str:
        return fresh_name(base, set(self.names()))

    # -- context updates (all return new goals) ---------------------------

    def add(self, decl: Decl) -> "Goal":
        if self.lookup(decl.name) is not None:
            raise KernelError(f"name already used: {decl.name}")
        return Goal(self.decls + (decl,), self.concl)

    def with_concl(self, concl: Term) -> "Goal":
        return Goal(self.decls, concl)

    def replace_decl(self, name: str, decl: Decl) -> "Goal":
        out = []
        found = False
        for d in self.decls:
            if d.name == name:
                out.append(decl)
                found = True
            else:
                out.append(d)
        if not found:
            raise KernelError(f"no declaration named {name}")
        return Goal(tuple(out), self.concl)

    def remove_decl(self, name: str) -> "Goal":
        out = [d for d in self.decls if d.name != name]
        if len(out) == len(self.decls):
            raise KernelError(f"no declaration named {name}")
        return Goal(tuple(out), self.concl)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Coq-style goal display (context, bar, conclusion)."""
        lines = [decl.render() for decl in self.decls]
        lines.append("=" * 30)
        lines.append(_render(self.concl))
        return "\n".join(lines)

    def key(self, store: MetaStore) -> str:
        """Canonical identity of this goal, for duplicate detection.

        Invariant under bound-variable renaming (via ``alpha_key``)
        and under fresh-tvar counter offsets (via ``_ty_key``'s
        first-occurrence numbering of ``?``-variables).  This is the
        reference oracle for :meth:`fingerprint`.
        """
        canon: Dict[str, str] = {}
        parts = []
        for decl in self.decls:
            if isinstance(decl, VarDecl):
                ty_parts: List[str] = []
                _ty_key(decl.ty, canon, ty_parts)
                parts.append(f"V:{decl.name}:{''.join(ty_parts)}")
            else:
                parts.append(f"H:{decl.name}:{alpha_key(store.resolve(decl.prop))}")
        parts.append("|-")
        parts.append(alpha_key(store.resolve(self.concl)))
        return "\n".join(parts)

    def fingerprint(self, store: MetaStore) -> int:
        """O(1)-amortized integer counterpart of :meth:`key`.

        Equal exactly when :meth:`key` is equal (modulo 64-bit hash
        collisions); built from memoized per-term fingerprints, so a
        search step costs a handful of hash mixes instead of
        re-rendering every hypothesis.
        """
        canon: Dict[str, int] = {}
        parts: List[int] = []
        for decl in self.decls:
            if isinstance(decl, VarDecl):
                parts.append(hash(("V", decl.name, _ty_fp(decl.ty, canon))))
            else:
                parts.append(
                    hash(
                        ("H", decl.name,
                         alpha_fingerprint(store.resolve(decl.prop)))
                    )
                )
        parts.append(alpha_fingerprint(store.resolve(self.concl)))
        return hash(tuple(parts))


@dataclass(frozen=True)
class ProofState:
    """All open goals plus the shared metavariable store.

    The focused goal is ``goals[0]``.  The proof is complete when no
    goals remain and every metavariable ever created has a solution
    (Coq refuses ``Qed`` with unresolved existentials).
    """

    goals: Tuple[Goal, ...]
    store: MetaStore

    def focused(self) -> Goal:
        if not self.goals:
            raise KernelError("no goals remain")
        return self.goals[0]

    def is_complete(self) -> bool:
        if self.goals:
            return False
        return all(
            self.store.is_solved(uid) for uid in range(self.store.next_uid)
        )

    def num_goals(self) -> int:
        return len(self.goals)

    def replace_focused(self, new_goals: Sequence[Goal]) -> "ProofState":
        """Replace the focused goal with ``new_goals`` (possibly none)."""
        return ProofState(tuple(new_goals) + self.goals[1:], self.store)

    def with_goals(self, goals: Sequence[Goal]) -> "ProofState":
        return ProofState(tuple(goals), self.store)

    def resolve(self, term: Term) -> Term:
        return self.store.resolve(term)

    def clone_store(self) -> "ProofState":
        """A state whose store may be mutated without affecting siblings.

        The clone starts an empty trail, so marks taken on this state's
        store do not apply to it."""
        clone = MetaStore(self.store.next_uid, dict(self.store.solutions))
        return ProofState(self.goals, clone)

    def key(self) -> str:
        """Canonical identity of the whole state (paper: duplicate pruning).

        The string form; :meth:`fingerprint` is the fast default used
        by the search engines, with this kept as the reference oracle
        behind ``ProofChecker(state_keys="string")``.
        """
        return "\n---\n".join(goal.key(self.store) for goal in self.goals)

    def fingerprint(self) -> int:
        """O(1)-amortized duplicate-pruning key (see :meth:`Goal.fingerprint`)."""
        return hash(tuple(goal.fingerprint(self.store) for goal in self.goals))

    def render(self) -> str:
        return self._display

    @cached_property
    def _display(self) -> str:
        # Once per state, whoever asks first (the prompt, a failure
        # context, a trace's goal preview): the state never changes,
        # and a second render would only add kernel-cache traffic.
        if not self.goals:
            return "No more goals."
        blocks = []
        total = len(self.goals)
        for i, goal in enumerate(self.goals):
            header = f"goal {i + 1} of {total}:"
            resolved = Goal(
                tuple(
                    HypDecl(d.name, self.store.resolve(d.prop))
                    if isinstance(d, HypDecl)
                    else d
                    for d in goal.decls
                ),
                self.store.resolve(goal.concl),
            )
            blocks.append(f"{header}\n{resolved.render()}")
        return "\n\n".join(blocks)


def initial_state(env: Environment, statement: Term) -> ProofState:
    """The starting proof state for a lemma ``statement``."""
    del env  # reserved for future well-formedness checking
    # Hash-cons the root statement so every proof of a repeated lemma
    # shape shares one representative (and its stamped derived values).
    goal = Goal((), intern(statement))
    return ProofState((goal,), MetaStore())
