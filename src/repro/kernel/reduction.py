"""Reduction: ``simpl``, weak-head normalization, and ``unfold``.

The kernel's computation rules are:

* **beta** — ``(fun x => b) a`` reduces to ``b[x := a]``.
* **iota** — a fully applied :class:`~repro.kernel.definitions.Fixpoint`
  reduces by its first *matching* pattern equation.  An equation
  requiring a constructor where the argument is not constructor-headed
  *blocks* reduction (first-match semantics, like a compiled ``match``).
* **delta** — an :class:`~repro.kernel.definitions.Abbreviation`
  unfolds to its body.  ``simpl`` never performs delta (matching Coq,
  where ``simpl`` does not unfold ``Definition``s like ``incl``);
  ``unfold`` and weak-head normalization do.

All entry points are *step-budgeted*: on budget exhaustion they return
the partially reduced term rather than raising, so a pathological
``simpl`` degrades gracefully (the tactic-level wall-clock timeout is
the paper's 5 s validity criterion; the budget keeps single reductions
finite well before that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro import deadline as _deadline
from repro.errors import TacticTimeout
from repro.kernel import cache as _cache
from repro.kernel.arena import current as _current_arena
from repro.kernel.definitions import Abbreviation, FixEquation, Fixpoint
from repro.kernel.env import Environment
from repro.kernel.subst import subst_vars
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
    app,
)

__all__ = ["Budget", "simpl", "whnf", "unfold", "make_whnf"]

DEFAULT_BUDGET = 20_000

# How many spend() calls between wall-clock polls.  Deadline checks
# read a clock, so they are amortized: one poll per interval keeps the
# overhead invisible while still interrupting a pathological reduction
# within a few thousand steps of its budget.
DEADLINE_CHECK_INTERVAL = 512


@dataclass
class Budget:
    """A mutable step counter shared across one reduction call tree.

    When a tactic-level :class:`repro.deadline.Deadline` is active for
    this thread, the budget polls it every
    :data:`DEADLINE_CHECK_INTERVAL` steps and raises
    :class:`repro.errors.TacticTimeout` on expiry — so a slow reduction
    inside ``simpl``/``whnf`` is interrupted *at* the tactic budget
    instead of running to step exhaustion first.
    """

    remaining: int = DEFAULT_BUDGET
    deadline: Optional["_deadline.Deadline"] = None
    _until_check: int = field(default=DEADLINE_CHECK_INTERVAL, repr=False)

    def __post_init__(self) -> None:
        if self.deadline is None:
            self.deadline = _deadline.active_deadline()

    def spend(self) -> bool:
        """Consume one step; False when exhausted.

        Raises :class:`~repro.errors.TacticTimeout` when the governing
        wall-clock deadline has expired.
        """
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        if self.deadline is not None:
            self._until_check -= 1
            if self._until_check <= 0:
                self._until_check = DEADLINE_CHECK_INTERVAL
                if self.deadline.expired():
                    raise TacticTimeout(_deadline.TIMEOUT_MESSAGE)
        return True


class _Blocked(Exception):
    """Internal: the subject is not constructor-headed — reduction is
    stuck (a compiled ``match`` would be stuck here too)."""


class _Clash(Exception):
    """Internal: the subject exposes a *different* constructor — this
    equation definitely does not apply; try the next one."""


def _match_pattern(
    env: Environment,
    pattern: Term,
    subject: Term,
    binding: Dict[str, Term],
    budget: Budget,
    reduce_arg: bool,
) -> Term:
    """Match ``pattern`` against ``subject``.

    Returns the (possibly weak-head-reduced) subject actually matched.
    Raises :class:`_Clash` on a definite constructor mismatch and
    :class:`_Blocked` when the subject cannot expose a constructor at
    all.  Variables bind into ``binding``.
    """
    if isinstance(pattern, Var):
        binding[pattern.name] = subject
        return subject
    # Pattern is a constructor application (or bare constructor).
    if reduce_arg:
        subject = whnf(env, subject, budget)
    pat_head, pat_args = _decompose(pattern)
    subj_head, subj_args = _decompose(subject)
    if not isinstance(pat_head, Const):
        raise _Blocked()
    if not (
        isinstance(subj_head, Const) and env.is_constructor(subj_head.name)
    ):
        raise _Blocked()
    if pat_head.name != subj_head.name or len(pat_args) != len(subj_args):
        raise _Clash()
    matched_args: List[Term] = []
    for pat_arg, subj_arg in zip(pat_args, subj_args):
        matched_args.append(
            _match_pattern(env, pat_arg, subj_arg, binding, budget, reduce_arg)
        )
    return app(subj_head, *matched_args)


def _decompose(term: Term) -> Tuple[Term, Tuple[Term, ...]]:
    if isinstance(term, App):
        return term.fn, term.args
    return term, ()


def _try_iota(
    env: Environment,
    fix: Fixpoint,
    args: Tuple[Term, ...],
    budget: Budget,
    reduce_args: bool,
) -> Optional[Tuple[Term, Tuple[Term, ...]]]:
    """Try the fixpoint's equations; return (rhs, extra_args) on success.

    ``extra_args`` are arguments beyond the fixpoint's arity (possible
    when the result type is itself a function).  Returns ``None`` when
    reduction is blocked.
    """
    arity = fix.arity()
    if len(args) < arity:
        return None
    eq_args, extra = args[:arity], args[arity:]
    current = list(eq_args)
    for equation in fix.equations:
        binding: Dict[str, Term] = {}
        matched: List[Term] = []
        try:
            for i, (pat, subj) in enumerate(zip(equation.patterns, current)):
                matched.append(
                    _match_pattern(env, pat, subj, binding, budget, reduce_args)
                )
                current[i] = matched[i]
            rhs = subst_vars(equation.rhs, binding)
            return rhs, extra
        except _Clash:
            continue  # definite mismatch: try the next equation
        except _Blocked:
            # First-match semantics: a blocked equation stops the whole
            # reduction (a compiled match would be stuck here too).
            return None
    return None


_WHNF = _cache.register("whnf", capacity=32_768)
_SIMPL = _cache.register("simpl", capacity=32_768)


def _memo_reduce(name, compute, env, term, budget: Budget) -> Term:
    """Memoize a budgeted reduction with *exact* step accounting.

    A cache entry stores ``(result, steps)`` recorded from a run that
    finished with budget to spare — so ``steps`` is the reduction's
    true cost, independent of the caller's budget.  On a hit we charge
    those steps to the caller's budget when affordable (bit-for-bit
    identical to replaying) and otherwise replay honestly, so partial
    results under tiny budgets match the uncached kernel exactly.
    Entries key on the term's arena id, the environment object, and
    its declaration generation: corpus loading mutates the environment
    between proofs, and a new declaration must never be answered from
    a stale entry.
    """
    arena = _current_arena()
    key = (env, env.generation, arena.intern_id(term))
    cache = arena.tables[name]
    hit = cache.get(key)
    if hit is not None:
        result, steps = hit
        if steps <= budget.remaining:
            budget.remaining -= steps
            return result
        return compute(env, term, budget)
    before = budget.remaining
    result = compute(env, term, budget)
    if budget.remaining > 0:
        # The run returned with budget left, so it completed; had it
        # been cut off, spend() would have driven remaining to 0.
        cache.put(key, (result, before - budget.remaining))
    return result


def whnf(env: Environment, term: Term, budget: Optional[Budget] = None) -> Term:
    """Weak-head normal form: beta + iota + delta at the head only."""
    if _stuck(env, term):
        # What _whnf does with it, without interning the term for a
        # memo probe.  A fresh budget's one step would poll no deadline
        # and be dropped, so none is built.
        if budget is not None:
            budget.spend()
        return term
    return _reduce_head(env, term, Budget() if budget is None else budget)


def _reduce_head(env: Environment, term: Term, budget: Budget) -> Term:
    if not _cache.enabled():
        return _whnf(env, term, budget)
    return _memo_reduce(_WHNF, _whnf, env, term, budget)


def _stuck(env: Environment, term: Term) -> bool:
    """True when :func:`_whnf` cannot take a step on ``term``.

    That is when its head is neither a ``fun`` applied to arguments,
    nor a fixpoint constant, nor an abbreviation applied to at least
    its parameters.  On such a term ``_whnf`` spends one step and
    returns the term itself.
    """
    if term.__class__ is App:
        head = term.fn
        if head.__class__ is Lam:
            return not term.args
        nargs = len(term.args)
    else:
        head = term
        nargs = 0
    if head.__class__ is not Const:
        return True
    name = head.name
    if name in env.fixpoints:
        return False
    abbr = env.abbreviations.get(name)
    return abbr is None or nargs < len(abbr.params)


def _whnf(env: Environment, term: Term, budget: Budget) -> Term:
    while budget.spend():
        head, args = _decompose(term)
        # beta
        if isinstance(head, Lam) and args:
            body = subst_vars(head.body, {head.var: args[0]})
            term = app(body, *args[1:])
            continue
        if not isinstance(head, Const):
            return term
        fix = env.fixpoints.get(head.name)
        if fix is not None:
            result = _try_iota(env, fix, args, budget, reduce_args=True)
            if result is None:
                return term
            rhs, extra = result
            term = app(rhs, *extra) if extra else rhs
            continue
        abbr = env.abbreviations.get(head.name)
        if abbr is not None and len(args) >= len(abbr.params):
            n = len(abbr.params)
            binding = {name: arg for (name, _), arg in zip(abbr.params, args[:n])}
            body = subst_vars(abbr.body, binding)
            term = app(body, *args[n:])
            continue
        return term
    return term


def make_whnf(env: Environment):
    """A unary weak-head reducer bound to ``env`` (for the unifier)."""

    def reducer(term: Term) -> Term:
        if _stuck(env, term):
            return term  # as in whnf: no budget to spend
        return _reduce_head(env, term, Budget(2_000))

    return reducer


# Worklist opcodes for the simpl machine.
_VISIT, _APP_C, _BIND_C, _PAIR_C, _STORE = 0, 1, 2, 3, 4


def simpl(env: Environment, term: Term, budget: Optional[Budget] = None) -> Term:
    """Full bottom-up normalization by beta + iota (no delta).

    Matches Coq's ``simpl`` closely enough for this corpus: recursive
    functions compute on constructor-headed data, but transparent
    ``Definition``s stay folded until ``unfold``.

    Runs as an iterative visit/combine machine (deep terms never hit
    the recursion limit), memoized per *node* with the same exact step
    accounting as :func:`_memo_reduce`: each entry records the
    subtree's true reduction cost, a hit charges those steps when the
    caller's budget affords them and replays honestly otherwise, and
    nothing is stored from a run that exhausted its budget — so
    partial results under tiny budgets match the uncached kernel
    bit-for-bit.
    """
    if budget is None:
        budget = Budget()
    use_cache = _cache.enabled()
    arena = None
    memo = None
    if use_cache:
        arena = _current_arena()
        memo = arena.tables[_SIMPL]

    tasks: list = [(_VISIT, term)]
    vals: list = []
    while tasks:
        frame = tasks.pop()
        op = frame[0]
        if op == _VISIT:
            node = frame[1]
            memo_key = None
            if use_cache:
                memo_key = (env, env.generation, arena.intern_id(node))
                hit = memo.get(memo_key)
                if hit is not None:
                    result, steps = hit
                    if steps <= budget.remaining:
                        budget.remaining -= steps
                        vals.append(result)
                        continue
                    # Unaffordable: fall through and replay honestly.
            before = budget.remaining
            if not budget.spend():
                vals.append(node)
                continue
            cls = node.__class__
            if cls is Var or cls is Const or cls is TrueP or cls is FalseP or cls is Meta:
                if memo_key is not None:
                    memo.put(memo_key, (node, 1))
                vals.append(node)
                continue
            if cls is App:
                tasks.append((_APP_C, node, memo_key, before))
                for arg in reversed(node.args):
                    tasks.append((_VISIT, arg))
                tasks.append((_VISIT, node.fn))
            elif cls is Lam or cls is Forall or cls is Exists:
                tasks.append((_BIND_C, node, memo_key, before))
                tasks.append((_VISIT, node.body))
            elif cls is Impl or cls is And or cls is Or or cls is Eq:
                tasks.append((_PAIR_C, node, memo_key, before))
                tasks.append((_VISIT, node.rhs))
                tasks.append((_VISIT, node.lhs))
            else:
                raise AssertionError(f"unknown term node: {node!r}")
        elif op == _APP_C:
            _, node, memo_key, before = frame
            n = len(node.args)
            fn = vals[-(n + 1)]
            args = tuple(vals[-n:])
            del vals[-(n + 1):]
            reduced = _head_step(env, fn, args, budget)
            if reduced is not None:
                # The redex's normal form is this node's result; the
                # STORE frame waits for it so the memo still records
                # this node's full cost.
                if memo_key is not None:
                    tasks.append((_STORE, memo_key, before))
                tasks.append((_VISIT, reduced))
            else:
                result = app(fn, *args)
                if memo_key is not None and budget.remaining > 0:
                    memo.put(
                        memo_key, (result, before - budget.remaining)
                    )
                vals.append(result)
        elif op == _BIND_C:
            _, node, memo_key, before = frame
            result = node.__class__(node.var, node.ty, vals.pop())
            if memo_key is not None and budget.remaining > 0:
                memo.put(memo_key, (result, before - budget.remaining))
            vals.append(result)
        elif op == _PAIR_C:
            _, node, memo_key, before = frame
            rhs = vals.pop()
            lhs = vals.pop()
            if node.__class__ is Eq:
                result = Eq(node.ty, lhs, rhs)
            else:
                result = node.__class__(lhs, rhs)
            if memo_key is not None and budget.remaining > 0:
                memo.put(memo_key, (result, before - budget.remaining))
            vals.append(result)
        else:  # _STORE
            _, memo_key, before = frame
            if budget.remaining > 0:
                memo.put(
                    memo_key, (vals[-1], before - budget.remaining)
                )
    return vals[0]


def _head_step(
    env: Environment,
    fn: Term,
    args: Tuple[Term, ...],
    budget: Budget,
) -> Optional[Term]:
    """One beta or iota step at an application head, or ``None``."""
    if isinstance(fn, Lam) and args:
        body = subst_vars(fn.body, {fn.var: args[0]})
        return app(body, *args[1:])
    if isinstance(fn, Const):
        fix = env.fixpoints.get(fn.name)
        if fix is not None:
            # Arguments are already simplified; do not re-reduce them.
            result = _try_iota(env, fix, args, budget, reduce_args=False)
            if result is not None:
                rhs, extra = result
                return app(rhs, *extra) if extra else rhs
    return None


def unfold(
    env: Environment,
    term: Term,
    names: Iterable[str],
    budget: Optional[Budget] = None,
) -> Term:
    """Delta-unfold the given constants everywhere, then beta-reduce.

    Abbreviations are replaced by their bodies (eta-expanding partial
    applications); fixpoint names additionally get iota steps at
    positions where their arguments already expose constructors.
    """
    if budget is None:
        budget = Budget()
    name_set = set(names)
    previous = None
    current = term
    while previous != current and budget.spend():
        previous = current
        current = _unfold_pass(env, current, name_set, budget)
    return current


def _unfold_pass(
    env: Environment, term: Term, names: set, budget: Budget
) -> Term:
    if isinstance(term, Const) and term.name in names:
        abbr = env.abbreviations.get(term.name)
        if abbr is not None:
            return _abbr_as_lambda(abbr)
        return term
    if isinstance(term, (Var, Const, TrueP, FalseP, Meta)):
        return term
    if isinstance(term, App):
        fn = term.fn
        args = tuple(_unfold_pass(env, a, names, budget) for a in term.args)
        if isinstance(fn, Const) and fn.name in names:
            abbr = env.abbreviations.get(fn.name)
            if abbr is not None:
                n = len(abbr.params)
                if len(args) >= n:
                    binding = {
                        name: arg
                        for (name, _), arg in zip(abbr.params, args[:n])
                    }
                    body = subst_vars(abbr.body, binding)
                    return app(body, *args[n:])
                return app(_abbr_as_lambda(abbr), *args)
            fix = env.fixpoints.get(fn.name)
            if fix is not None:
                result = _try_iota(env, fix, args, budget, reduce_args=False)
                if result is not None:
                    rhs, extra = result
                    return app(rhs, *extra) if extra else rhs
            return app(fn, *args)
        fn = _unfold_pass(env, fn, names, budget)
        reduced = _head_step(env, fn, args, budget)
        if reduced is not None:
            return reduced
        return app(fn, *args)
    if isinstance(term, Lam):
        return Lam(term.var, term.ty, _unfold_pass(env, term.body, names, budget))
    if isinstance(term, Forall):
        return Forall(term.var, term.ty, _unfold_pass(env, term.body, names, budget))
    if isinstance(term, Exists):
        return Exists(term.var, term.ty, _unfold_pass(env, term.body, names, budget))
    if isinstance(term, Impl):
        return Impl(
            _unfold_pass(env, term.lhs, names, budget),
            _unfold_pass(env, term.rhs, names, budget),
        )
    if isinstance(term, And):
        return And(
            _unfold_pass(env, term.lhs, names, budget),
            _unfold_pass(env, term.rhs, names, budget),
        )
    if isinstance(term, Or):
        return Or(
            _unfold_pass(env, term.lhs, names, budget),
            _unfold_pass(env, term.rhs, names, budget),
        )
    if isinstance(term, Eq):
        return Eq(
            term.ty,
            _unfold_pass(env, term.lhs, names, budget),
            _unfold_pass(env, term.rhs, names, budget),
        )
    raise AssertionError(f"unknown term node: {term!r}")


def _abbr_as_lambda(abbr: Abbreviation) -> Term:
    body = abbr.body
    for name, ty in reversed(abbr.params):
        body = Lam(name, ty, body)
    return body
