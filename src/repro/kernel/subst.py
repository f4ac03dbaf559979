"""Substitution and alpha-equivalence on kernel terms.

Three related operations live here:

* :func:`subst_var` — capture-avoiding substitution of a term for a
  free variable.
* :func:`subst_metas` — instantiation of metavariables from a solution
  map (metavariables are never bound, so no capture can occur through
  them, but the *replacement* may mention variables that a binder in
  the target would capture; we rename binders away from those too).
* :func:`alpha_eq` / :func:`alpha_key` — alpha-equivalence test and a
  canonical string key used for duplicate-proof-state detection in the
  best-first search (the paper prunes tactics that recreate an already
  visited state).
* :func:`alpha_fingerprint` — the integer counterpart of
  :func:`alpha_key`: an alpha-invariant structural hash (bound
  variables enter by de Bruijn *index*, so closed subterms hash
  position-independently and their fingerprints memoize per node).
  The search engine's duplicate-state keys are built from these.

The hot traversals (``subst_vars``, ``subst_metas``) run as
**iterative worklist machines** — an explicit task stack of
visit/combine frames and a value stack — so substitution through a
5000-deep term never touches Python's recursion limit.  Both memoize
*per node* through :mod:`repro.kernel.cache`, keyed by arena id
(:mod:`repro.kernel.arena`) plus the substitution context, so a
subterm shared between goals resolves once per search instead of once
per call.  ``alpha_fingerprint`` delegates to the arena's fingerprint
array; ``alpha_key`` stays a recursive string builder — it is the
*oracle* the property suite checks the fingerprints against, so it
deliberately remains the simple spec-shaped walk.  Substitution
preserves node identity when nothing changes, so memo keys stay
coherent downstream.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Set, Tuple

from repro.kernel import cache as _cache
from repro.kernel.arena import current as _current_arena
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
    free_var_set,
    free_vars,
    meta_set,
)

__all__ = [
    "fresh_name",
    "rename_bound",
    "subst_var",
    "subst_vars",
    "subst_metas",
    "alpha_eq",
    "alpha_key",
    "alpha_fingerprint",
]


def fresh_name(base: str, taken: Set[str]) -> str:
    """A variant of ``base`` not in ``taken`` (``x``, ``x0``, ``x1``...)."""
    if base not in taken:
        return base
    stem = base.rstrip("0123456789") or base
    index = 0
    while True:
        candidate = f"{stem}{index}"
        if candidate not in taken:
            return candidate
        index += 1


def _binder_cls(term: Term):
    return type(term)


def rename_bound(term: Term, old: str, new: str) -> Term:
    """Rename the binder variable of a binder node (caller checks kind)."""
    if isinstance(term, (Lam, Forall, Exists)):
        body = subst_var(term.body, old, Var(new))
        return _binder_cls(term)(new, term.ty, body)
    raise ValueError(f"not a binder: {term!r}")


def subst_var(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding ``term[name := replacement]``."""
    return subst_vars(term, {name: replacement})


_SUBST = _cache.register("subst_vars", capacity=65_536)

# Worklist opcodes shared by the two substitution machines.
_VISIT, _APP, _BIND, _PAIR = 0, 1, 2, 3

_LEAVES = (Const, TrueP, FalseP)


def subst_vars(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution.

    Runs as an iterative visit/combine machine.  Memo entries are per
    *node*, keyed ``(arena id, mapping, removed binders)`` and valued
    ``(result, changed)``: an unchanged hit returns the caller's own
    node so identity-preservation (``subst_vars(t, m) is t`` whenever
    nothing was substituted) survives memoization.
    """
    if not mapping:
        return term
    danger: Set[str] = set()
    for value in mapping.values():
        danger |= free_var_set(value)
    use_cache = _cache.enabled()
    base_key = None
    arena = None
    memo = None
    if use_cache:
        base_key = tuple(sorted(mapping.items()))
        arena = _current_arena()
        memo = arena.tables[_SUBST]

    tasks: list = [(_VISIT, term, dict(mapping), frozenset())]
    vals: list = []
    while tasks:
        frame = tasks.pop()
        op = frame[0]
        if op == _VISIT:
            _, node, cur, removed = frame
            cls = node.__class__
            if cls is Var:
                vals.append(cur.get(node.name, node))
                continue
            if cls in _LEAVES or cls is Meta:
                vals.append(node)
                continue
            memo_key = None
            if use_cache:
                memo_key = (arena.intern_id(node), base_key, removed)
                hit = memo.get(memo_key)
                if hit is not None:
                    result, changed = hit
                    vals.append(result if changed else node)
                    continue
            if cls is App:
                tasks.append((_APP, node, memo_key))
                for arg in reversed(node.args):
                    tasks.append((_VISIT, arg, cur, removed))
                tasks.append((_VISIT, node.fn, cur, removed))
            elif cls is Lam or cls is Forall or cls is Exists:
                var = node.var
                body = node.body
                if var in cur:
                    inner = {k: v for k, v in cur.items() if k != var}
                    if not inner:
                        # The binder shadows the whole mapping: the
                        # subtree is untouched.
                        if memo_key is not None:
                            memo.put(memo_key, (node, False))
                        vals.append(node)
                        continue
                    removed_inner = removed | frozenset((var,))
                else:
                    inner = cur
                    removed_inner = removed
                if var in danger:
                    taken = danger | set(inner) | free_vars(body)
                    new_var = fresh_name(var, taken)
                    # Reentrant rename: spins up a nested machine, so
                    # the Python stack grows only per *collision*, not
                    # per term depth.
                    body = subst_var(body, var, Var(new_var))
                    var = new_var
                tasks.append((_BIND, node, var, memo_key))
                tasks.append((_VISIT, body, inner, removed_inner))
            else:  # Impl / And / Or / Eq
                tasks.append((_PAIR, node, memo_key))
                tasks.append((_VISIT, node.rhs, cur, removed))
                tasks.append((_VISIT, node.lhs, cur, removed))
        elif op == _APP:
            _, node, memo_key = frame
            n = len(node.args)
            fn = vals[-(n + 1)]
            args = tuple(vals[-n:])
            del vals[-(n + 1):]
            if fn is node.fn and all(
                a is b for a, b in zip(args, node.args)
            ):
                result = node
            else:
                result = app(fn, *args)
            if memo_key is not None:
                memo.put(memo_key, (result, result is not node))
            vals.append(result)
        elif op == _BIND:
            _, node, var, memo_key = frame
            body = vals.pop()
            if var is node.var and body is node.body:
                result = node
            else:
                result = node.__class__(var, node.ty, body)
            if memo_key is not None:
                memo.put(memo_key, (result, result is not node))
            vals.append(result)
        else:  # _PAIR
            _, node, memo_key = frame
            rhs = vals.pop()
            lhs = vals.pop()
            if lhs is node.lhs and rhs is node.rhs:
                result = node
            elif node.__class__ is Eq:
                result = Eq(node.ty, lhs, rhs)
            else:
                result = node.__class__(lhs, rhs)
            if memo_key is not None:
                memo.put(memo_key, (result, result is not node))
            vals.append(result)
    return vals[0]


_RESOLVE = _cache.register("subst_metas", capacity=32_768)


def subst_metas(term: Term, solutions: Mapping[int, Term]) -> Term:
    """Replace solved metavariables by their solutions, transitively.

    Same machine shape as :func:`subst_vars`, plus a per-node fast
    path: a subtree whose (cached) meta set is disjoint from the
    solution map is returned unchanged without being walked — the
    common ``resolve()`` call on a meta-free goal is O(1).
    """
    if not solutions:
        return term
    use_cache = _cache.enabled()
    solsig = None
    arena = None
    memo = None
    if use_cache:
        metas = meta_set(term)
        if not metas or all(uid not in solutions for uid in metas):
            return term
        solsig = tuple(sorted(solutions.items()))
        arena = _current_arena()
        memo = arena.tables[_RESOLVE]

    tasks: list = [(_VISIT, term)]
    vals: list = []
    while tasks:
        frame = tasks.pop()
        op = frame[0]
        if op == _VISIT:
            node = frame[1]
            cls = node.__class__
            if cls is Meta:
                solution = solutions.get(node.uid)
                if solution is None:
                    vals.append(node)
                else:
                    # Transitive: the solution may itself mention
                    # solved metas; its result stands in for this one.
                    tasks.append((_VISIT, solution))
                continue
            if cls is Var or cls in _LEAVES:
                vals.append(node)
                continue
            memo_key = None
            if use_cache:
                metas = meta_set(node)
                if not metas or all(uid not in solutions for uid in metas):
                    vals.append(node)
                    continue
                memo_key = (arena.intern_id(node), solsig)
                hit = memo.get(memo_key)
                if hit is not None:
                    result, changed = hit
                    vals.append(result if changed else node)
                    continue
            if cls is App:
                tasks.append((_APP, node, memo_key))
                for arg in reversed(node.args):
                    tasks.append((_VISIT, arg))
                tasks.append((_VISIT, node.fn))
            elif cls is Lam or cls is Forall or cls is Exists:
                tasks.append((_BIND, node, node.var, memo_key))
                tasks.append((_VISIT, node.body))
            else:  # Impl / And / Or / Eq
                tasks.append((_PAIR, node, memo_key))
                tasks.append((_VISIT, node.rhs))
                tasks.append((_VISIT, node.lhs))
        elif op == _APP:
            _, node, memo_key = frame
            n = len(node.args)
            fn = vals[-(n + 1)]
            args = tuple(vals[-n:])
            del vals[-(n + 1):]
            if fn is node.fn and all(
                a is b for a, b in zip(args, node.args)
            ):
                result = node
            else:
                result = app(fn, *args)
            if memo_key is not None:
                memo.put(memo_key, (result, result is not node))
            vals.append(result)
        elif op == _BIND:
            _, node, var, memo_key = frame
            body = vals.pop()
            if body is node.body:
                result = node
            else:
                result = node.__class__(var, node.ty, body)
            if memo_key is not None:
                memo.put(memo_key, (result, result is not node))
            vals.append(result)
        else:  # _PAIR
            _, node, memo_key = frame
            rhs = vals.pop()
            lhs = vals.pop()
            if lhs is node.lhs and rhs is node.rhs:
                result = node
            elif node.__class__ is Eq:
                result = Eq(node.ty, lhs, rhs)
            else:
                result = node.__class__(lhs, rhs)
            if memo_key is not None:
                memo.put(memo_key, (result, result is not node))
            vals.append(result)
    return vals[0]


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Alpha-equivalence (binder names are irrelevant)."""
    return _alpha_eq(t1, t2, {}, {}, 0)


def _alpha_eq(
    t1: Term,
    t2: Term,
    env1: Dict[str, int],
    env2: Dict[str, int],
    depth: int,
) -> bool:
    if isinstance(t1, Var) and isinstance(t2, Var):
        i1 = env1.get(t1.name)
        i2 = env2.get(t2.name)
        if i1 is None and i2 is None:
            return t1.name == t2.name
        return i1 == i2
    if type(t1) is not type(t2):
        return False
    if isinstance(t1, Const):
        return t1.name == t2.name  # type: ignore[union-attr]
    if isinstance(t1, (TrueP, FalseP)):
        return True
    if isinstance(t1, Meta):
        return t1.uid == t2.uid  # type: ignore[union-attr]
    if isinstance(t1, App):
        assert isinstance(t2, App)
        if len(t1.args) != len(t2.args):
            return False
        if not _alpha_eq(t1.fn, t2.fn, env1, env2, depth):
            return False
        return all(
            _alpha_eq(a, b, env1, env2, depth)
            for a, b in zip(t1.args, t2.args)
        )
    if isinstance(t1, (Lam, Forall, Exists)):
        assert isinstance(t2, (Lam, Forall, Exists))
        new1 = dict(env1)
        new2 = dict(env2)
        new1[t1.var] = depth
        new2[t2.var] = depth
        return _alpha_eq(t1.body, t2.body, new1, new2, depth + 1)
    if isinstance(t1, (Impl, And, Or)):
        assert isinstance(t2, (Impl, And, Or))
        return _alpha_eq(t1.lhs, t2.lhs, env1, env2, depth) and _alpha_eq(
            t1.rhs, t2.rhs, env1, env2, depth
        )
    if isinstance(t1, Eq):
        assert isinstance(t2, Eq)
        return _alpha_eq(t1.lhs, t2.lhs, env1, env2, depth) and _alpha_eq(
            t1.rhs, t2.rhs, env1, env2, depth
        )
    raise AssertionError(f"unknown term node: {t1!r}")


_ALPHA_KEY = _cache.register("alpha_key", capacity=8_192)


def alpha_key(term: Term) -> str:
    """A canonical string for ``term`` modulo bound-variable names.

    Two terms produce the same key iff they are alpha-equivalent
    (free variables and constants compare by name, binders by de
    Bruijn level).  Used to build duplicate-proof-state keys.
    """
    if _cache.enabled():
        memo = _current_arena().tables[_ALPHA_KEY]
        hit = memo.get(term)
        if hit is not None:
            return hit
        parts: list = []
        _alpha_key(term, {}, 0, parts)
        result = "".join(parts)
        memo.put(term, result)
        return result
    parts = []
    _alpha_key(term, {}, 0, parts)
    return "".join(parts)


def alpha_fingerprint(term: Term) -> int:
    """An alpha-invariant structural hash of ``term``.

    Produces equal values exactly when :func:`alpha_key` produces
    equal strings (modulo the negligible 64-bit collision risk), but
    costs O(1) amortized: bound variables are hashed by de Bruijn
    *index* (distance to their binder), so a closed subterm hashes the
    same at any depth and its fingerprint memoizes — in the arena's
    ``alpha_fp`` parallel array, keyed by node id.  This is what
    :meth:`repro.kernel.goals.ProofState.fingerprint` — the search
    engine's duplicate-state key — is built from.
    """
    if not _cache.enabled():
        return _alpha_fp_pristine(term)
    arena = _current_arena()
    return arena.alpha_fp_of(arena.intern_id(term))


def _alpha_fp_pristine(term: Term) -> int:
    """The fingerprint by direct iterative walk: no arena, no memo.

    The kill-switch (``REPRO_KERNEL_CACHE=0`` / ``cache.disabled()``)
    oracle: value-identical to the arena computation, structured as a
    plain two-phase machine so even the un-memoized path survives
    5000-deep terms.
    """
    _EMPTY: Dict[str, int] = {}
    tasks: list = [(False, term, _EMPTY, 0)]
    vals: list = []
    while tasks:
        combining, t, env, depth = tasks.pop()
        cls = t.__class__
        if combining:
            if cls is App:
                n = len(t.args)
                child = vals[-(n + 1):]
                del vals[-(n + 1):]
                vals.append(hash(("a", n, child[0]) + tuple(child[1:])))
            elif cls is Lam or cls is Forall or cls is Exists:
                tag = {"Lam": "L", "Forall": "A", "Exists": "E"}[cls.__name__]
                vals.append(hash((tag, vals.pop())))
            elif cls is Eq:
                # The ty annotation is ignored, mirroring alpha_key.
                rhs = vals.pop()
                vals.append(hash(("=", vals.pop(), rhs)))
            else:  # Impl / And / Or
                tag = {"Impl": "I", "And": "&", "Or": "|"}[cls.__name__]
                rhs = vals.pop()
                vals.append(hash((tag, vals.pop(), rhs)))
            continue
        if cls is Var:
            level = env.get(t.name)
            if level is None:
                vals.append(hash(("v", t.name)))
            else:
                vals.append(hash(("b", depth - level)))
        elif cls is Const:
            vals.append(hash(("c", t.name)))
        elif cls is TrueP:
            vals.append(hash("T!"))
        elif cls is FalseP:
            vals.append(hash("F!"))
        elif cls is Meta:
            vals.append(hash(("m", t.uid)))
        elif cls is App:
            tasks.append((True, t, env, depth))
            for arg in reversed(t.args):
                tasks.append((False, arg, env, depth))
            tasks.append((False, t.fn, env, depth))
        elif cls is Lam or cls is Forall or cls is Exists:
            inner = dict(env)
            inner[t.var] = depth
            tasks.append((True, t, env, depth))
            tasks.append((False, t.body, inner, depth + 1))
        elif cls is Impl or cls is And or cls is Or or cls is Eq:
            tasks.append((True, t, env, depth))
            tasks.append((False, t.rhs, env, depth))
            tasks.append((False, t.lhs, env, depth))
        else:
            raise AssertionError(f"unknown term node: {t!r}")
    return vals[0]


def _alpha_key(term: Term, env: Dict[str, int], depth: int, parts: list) -> None:
    if isinstance(term, Var):
        level = env.get(term.name)
        if level is None:
            parts.append(f"v:{term.name};")
        else:
            parts.append(f"b:{level};")
    elif isinstance(term, Const):
        parts.append(f"c:{term.name};")
    elif isinstance(term, TrueP):
        parts.append("T;")
    elif isinstance(term, FalseP):
        parts.append("F;")
    elif isinstance(term, Meta):
        parts.append(f"m:{term.uid};")
    elif isinstance(term, App):
        parts.append(f"a{len(term.args)}(")
        _alpha_key(term.fn, env, depth, parts)
        for arg in term.args:
            _alpha_key(arg, env, depth, parts)
        parts.append(")")
    elif isinstance(term, (Lam, Forall, Exists)):
        tag = {"Lam": "L", "Forall": "A", "Exists": "E"}[type(term).__name__]
        inner = dict(env)
        inner[term.var] = depth
        parts.append(f"{tag}(")
        _alpha_key(term.body, inner, depth + 1, parts)
        parts.append(")")
    elif isinstance(term, (Impl, And, Or)):
        tag = {"Impl": "I", "And": "&", "Or": "|"}[type(term).__name__]
        parts.append(f"{tag}(")
        _alpha_key(term.lhs, env, depth, parts)
        _alpha_key(term.rhs, env, depth, parts)
        parts.append(")")
    elif isinstance(term, Eq):
        parts.append("=(")
        _alpha_key(term.lhs, env, depth, parts)
        _alpha_key(term.rhs, env, depth, parts)
        parts.append(")")
    else:
        raise AssertionError(f"unknown term node: {term!r}")
