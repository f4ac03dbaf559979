"""First-order unification with metavariables.

Used by ``apply``/``eapply`` (unify a lemma's conclusion with the
goal), ``rewrite`` (match an equation's left-hand side against
subterms), ``inversion`` (match constructor conclusions against a
hypothesis), and ``auto``/``eauto``.

Scope discipline: when unification descends under binders, both
binders are renamed to a shared canonical name (``%0``, ``%1``, ...).
A metavariable may never be solved by a term mentioning such a name —
that would smuggle a bound variable out of its scope.

Conversion: on a rigid/rigid head clash the unifier can consult an
optional ``whnf`` callback (weak-head normalization from
:mod:`repro.kernel.reduction`) and retry, approximating Coq's
unification-up-to-conversion in a controlled way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Dict, List, Optional, Set, Tuple

from repro.errors import UnificationError
from repro.kernel.env import Environment
from repro.kernel.subst import subst_metas, subst_var
from repro.kernel.terms import (
    App,
    And,
    Const,
    Eq,
    Exists,
    FalseP,
    Forall,
    Impl,
    Lam,
    Meta,
    Or,
    Term,
    TrueP,
    Var,
    free_var_set,
    meta_set,
)

__all__ = ["MetaStore", "unify", "match_term", "rigid_head", "spine_clash"]

Reducer = Callable[[Term], Term]


@dataclass
class MetaStore:
    """Allocates metavariables and records their solutions.

    ``trail`` lists the solved uids in solving order, so a snapshot is
    a mark on it rather than a copy of ``solutions``.  It takes no part
    in equality or repr: two stores with the same counter and solutions
    are equal whatever their histories."""

    next_uid: int = 0
    solutions: Dict[int, Term] = field(default_factory=dict)
    trail: List[int] = field(default_factory=list, compare=False, repr=False)

    def fresh(self, hint: str = "?") -> Meta:
        meta = Meta(self.next_uid, hint)
        self.next_uid += 1
        return meta

    def solve(self, uid: int, term: Term) -> None:
        if uid in self.solutions:
            raise UnificationError(f"metavariable ?{uid} already solved")
        self.solutions[uid] = term
        self.trail.append(uid)

    def resolve(self, term: Term) -> Term:
        """Substitute all currently known solutions into ``term``."""
        return subst_metas(term, self.solutions)

    def is_solved(self, uid: int) -> bool:
        return uid in self.solutions

    def snapshot(self) -> Tuple[int, int]:
        """Mark both the solutions *and* the uid counter.

        Restoring the counter matters for the Qed completeness check:
        metavariables allocated by failed/abandoned attempts must not
        linger as "unresolved existentials".

        Marks are restored last-in, first-out: :meth:`restore` may be
        given a mark only while every mark taken after it on this store
        has been restored or dropped.  Every caller keeps this contract
        by restoring in the ``except`` arm of the block that took the
        mark (unify's attempt stack, ``auto``, ``apply``, ``rewrite``,
        ``assumption``, ``fold``, ``reflexivity`` and the ``try``,
        ``||`` and ``repeat`` combinators)."""
        return (self.next_uid, len(self.trail))

    def restore(self, snap: Tuple[int, int]) -> None:
        """Undo every solution made since ``snap`` and reset the uid
        counter: the store equals the one :meth:`snapshot` saw."""
        self.next_uid, mark = snap
        trail = self.trail
        while len(trail) > mark:
            del self.solutions[trail.pop()]


def _canonical(level: int) -> str:
    # '%' cannot appear in parsed identifiers, so no user name collides.
    return f"%{level}"


def unify(
    t1: Term,
    t2: Term,
    store: MetaStore,
    whnf: Optional[Reducer] = None,
) -> None:
    """Unify ``t1`` with ``t2``, extending ``store`` with solutions.

    Raises :class:`UnificationError` on failure; on failure the store
    is rolled back to its state at entry.
    """
    snap = store.snapshot()
    try:
        _unify(t1, t2, store, 0, whnf)
    except UnificationError:
        store.restore(snap)
        raise


def match_term(
    pattern: Term,
    subject: Term,
    store: MetaStore,
    whnf: Optional[Reducer] = None,
) -> None:
    """One-sided unification: only ``pattern``'s metas may be solved.

    The caller guarantees ``subject`` contains no unsolved metas (goal
    terms normally do not, except under ``eapply``; rewrite callers
    resolve first).
    """
    unify(pattern, subject, store, whnf)


# Task opcodes for the iterative unifier: unify one resolved pair, or
# pop the innermost attempt marker (its scope completed successfully).
_PAIR, _POP_ATTEMPT = 0, 1


def _unify(
    t1: Term,
    t2: Term,
    store: MetaStore,
    depth: int,
    whnf: Optional[Reducer],
) -> None:
    """Iterative worklist unification.

    The recursive original nested a try/except per application node
    (``_attempt``: snapshot, unify head then args, on failure restore
    and fall back to weak-head normalization).  Here that nesting is a
    stack of *attempt markers* ``(task base, resolved pair, depth,
    snapshot)``: a :class:`UnificationError` unwinds to the innermost
    marker — discarding the tasks pushed inside its scope, restoring
    its snapshot — and retries the recorded pair after ``whnf``; if no
    reduction progress is possible the failure propagates to the next
    marker out, exactly mirroring the exception's path through the
    nested ``except`` blocks.  Only unification failures unwind:
    anything else a ``whnf`` callback raises (tactic timeouts) escapes
    untouched.  Deep spines no longer consume Python stack frames.
    """
    tasks: list = [(_PAIR, t1, t2, depth)]
    # (base_len, resolved_t1, resolved_t2, depth, store_snapshot)
    attempts: list = []
    while tasks:
        task = tasks.pop()
        try:
            if task[0] == _POP_ATTEMPT:
                attempts.pop()
                continue
            _, a, b, d = task
            a = store.resolve(a)
            b = store.resolve(b)

            if isinstance(a, Meta):
                _solve_meta(a, b, store, d)
                continue
            if isinstance(b, Meta):
                _solve_meta(b, a, store, d)
                continue

            if isinstance(a, Var) and isinstance(b, Var):
                if a.name == b.name:
                    continue
                raise UnificationError(
                    f"variable clash: {a.name} vs {b.name}"
                )

            if isinstance(a, Const) and isinstance(b, Const):
                if a.name == b.name:
                    continue
                _retry_whnf(a, b, d, whnf, tasks)
                continue

            if isinstance(a, (TrueP, FalseP)) and type(a) is type(b):
                continue

            if isinstance(a, App) and isinstance(b, App):
                if len(a.args) == len(b.args):
                    attempts.append(
                        (len(tasks), a, b, d, store.snapshot())
                    )
                    tasks.append((_POP_ATTEMPT,))
                    for x, y in zip(reversed(a.args), reversed(b.args)):
                        tasks.append((_PAIR, x, y, d))
                    tasks.append((_PAIR, a.fn, b.fn, d))
                    continue
                _retry_whnf(a, b, d, whnf, tasks)
                continue

            if isinstance(a, (Lam, Forall, Exists)) and type(a) is type(b):
                fresh = _canonical(d)
                body1 = subst_var(a.body, a.var, Var(fresh))
                body2 = subst_var(b.body, b.var, Var(fresh))  # type: ignore[union-attr]
                tasks.append((_PAIR, body1, body2, d + 1))
                continue

            if isinstance(a, (Impl, And, Or)) and type(a) is type(b):
                tasks.append((_PAIR, a.rhs, b.rhs, d))  # type: ignore[union-attr]
                tasks.append((_PAIR, a.lhs, b.lhs, d))  # type: ignore[union-attr]
                continue

            if isinstance(a, Eq) and isinstance(b, Eq):
                tasks.append((_PAIR, a.rhs, b.rhs, d))
                tasks.append((_PAIR, a.lhs, b.lhs, d))
                continue

            _retry_whnf(a, b, d, whnf, tasks)
        except UnificationError as failure:
            current = failure
            while True:
                if not attempts:
                    raise current
                base, ra, rb, d, snap = attempts.pop()
                del tasks[base:]
                store.restore(snap)
                if whnf is not None:
                    r1 = whnf(ra)
                    r2 = whnf(rb)
                    if (r1, r2) != (ra, rb):
                        # Progress was made, so retrying terminates:
                        # reduction is step-bounded and each retry
                        # requires fresh progress.
                        tasks.append((_PAIR, r1, r2, d))
                        break
                current = UnificationError(ra, rb)


def _retry_whnf(
    t1: Term,
    t2: Term,
    depth: int,
    whnf: Optional[Reducer],
    tasks: list,
) -> None:
    """Last resort: weak-head normalize both sides and compare again."""
    if whnf is not None:
        r1 = whnf(t1)
        r2 = whnf(t2)
        if (r1, r2) != (t1, t2):
            # Progress was made, so retrying (with the reducer still
            # available for deeper positions) terminates: reduction is
            # step-bounded and each retry requires fresh progress.
            tasks.append((_PAIR, r1, r2, depth))
            return
    raise UnificationError(t1, t2)


# Node kinds that only ever unify with their own kind, and that ``whnf``
# leaves in place.
_RIGID_NODES = frozenset((Eq, And, Or, Impl, Forall, Exists, TrueP, FalseP))


def rigid_head(
    term: Term, env: Environment, bound: Container[str] = ()
) -> Optional[object]:
    """The head of ``term`` if :func:`_retry_whnf` can never change it.

    The head is the function of an application, or else the term
    itself.  It is *rigid* — returned as the head term, or as the node
    class for a connective or quantifier — when it is a constant that
    is neither a fixpoint nor an abbreviation of ``env``, a variable not
    in ``bound``, or one of ``=``, ``/\\``, ``\\/``, ``->``, ``forall``,
    ``exists``, ``True`` and ``False``.  Anything else is *flexible*
    (``None``) and may match anything: a metavariable, a ``fun`` (a
    beta-redex), a name in ``bound`` (a statement's own binder, which
    becomes a metavariable), or a constant ``whnf`` can unfold.

    When two terms have different rigid heads, ``unify(a, b, store,
    make_whnf(env))`` always raises: the top pair clashes, ``whnf``
    changes neither side, and the store is rolled back.  So a caller may
    skip that attempt without any observable difference.
    """
    head = term.fn if term.__class__ is App else term
    cls = head.__class__
    if cls is Const:
        name = head.name  # type: ignore[attr-defined]
        if name in env.fixpoints or name in env.abbreviations:
            return None
        return head
    if cls is Var:
        return None if head.name in bound else head  # type: ignore[attr-defined]
    if cls in _RIGID_NODES:
        return cls
    return None


def spine_clash(
    t1: Term, t2: Term, env: Environment, bound: Container[str] = ()
) -> bool:
    """True when the ``forall``/``->`` spines of ``t1`` and ``t2`` clash.

    Walks both spines in step, the way the unifier does: ``forall``
    with ``forall`` into the bodies, ``->`` with ``->`` into the
    right-hand sides.  They clash when the walk stops at a pair where
    one side is a product and the two rigid heads (:func:`rigid_head`)
    differ.  The binders walked on either side count as flexible on
    both (they become canonical names), and so do names in ``bound`` in
    ``t1`` (binders a caller has stripped and will substitute by
    metavariables).

    When the spines clash, ``unify(t1, t2, store, make_whnf(env))``
    always raises.  The unifier reaches the clashing pair after the
    walked left-hand sides, with no application attempt open along a
    pure product spine, so the clash propagates to the top just as a
    top-level clash does, and the store is rolled back.  So a caller
    may skip that attempt without any observable difference.
    """
    walked: Set[str] = set()
    while True:
        kind = t1.__class__
        if kind is not t2.__class__:
            break
        if kind is Forall:
            walked.add(t1.var)  # type: ignore[attr-defined]
            walked.add(t2.var)  # type: ignore[attr-defined]
            t1, t2 = t1.body, t2.body  # type: ignore[attr-defined]
        elif kind is Impl:
            t1, t2 = t1.rhs, t2.rhs  # type: ignore[attr-defined]
        else:
            return False
    head1 = rigid_head(t1, env, walked.union(bound))
    head2 = rigid_head(t2, env, walked)
    return (
        (head1 is Forall or head1 is Impl or head2 is Forall or head2 is Impl)
        and head1 is not None
        and head2 is not None
        and head1 != head2
    )


def _solve_meta(meta: Meta, value: Term, store: MetaStore, depth: int) -> None:
    value = store.resolve(value)
    if isinstance(value, Meta) and value.uid == meta.uid:
        return
    if meta.uid in meta_set(value):
        raise UnificationError(f"occurs check: ?{meta.uid}")
    if _mentions_canonical(value):
        raise UnificationError(
            f"scope violation: ?{meta.uid} would capture a bound variable"
        )
    store.solve(meta.uid, value)


def _mentions_canonical(term: Term) -> bool:
    return any(name.startswith("%") for name in free_var_set(term))
