"""Arena of hash-consed term nodes addressed by integer ids.

The arena is the single constructor path behind :func:`~repro.kernel.
terms.intern`.  Every distinct term structure is admitted exactly once
and assigned a dense integer id; the node table maps an id to both a
structural key (tag + child ids, the hash-consing key) and the one
canonical :class:`~repro.kernel.terms.Term` object for that structure.
Consequences the hot paths rely on:

* **structural equality is id equality** — two interned terms are
  structurally equal iff they are the *same object* (same id), so
  duplicate detection, memo keys, and occurs checks never walk trees;
* **derived data lives in parallel arrays keyed by id** — structural
  hash (eager, O(1) per admitted node from child hashes), free-var
  set, meta set, and the alpha fingerprint (all lazy) are computed at
  most once per structure, not once per copy;
* **traversals are iterative** — interning and fingerprinting run as
  explicit work-stack loops over ids/nodes, so 5000-deep terms never
  hit Python's recursion limit.

Kernel state: an arena plus the registered memo tables keyed by its
ids (:attr:`TermArena.tables`) is one search's whole kernel state.
:func:`scope` runs a block in a fresh state held in a
:class:`contextvars.ContextVar` and drops it when the block exits; the
eval runner opens one per task.  Outside any scope a default state
serves, and :func:`repro.kernel.cache.clear_caches` replaces it.

Stamps: an admitted term carries one attribute, ``_st``, its arena's
shared ``(generation, id)`` tuple.  Generations are unique, so a stamp
never matches a dead or foreign arena.  Concurrent searches share
terms (the environment's statements) and re-stamp them, so a reader
takes the tuple once; a node's key is built from child stamps the walk
has just read as this arena's, and derived data takes child ids from
the node keys, never from the children's stamps.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, FrozenSet, Iterator, List, Optional

from repro.kernel import cache as _cache
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
    structural_hash,
    term_children,
)

__all__ = [
    "TermArena", "current", "scope", "intern_term", "intern_id", "term_of"
]

_GENERATIONS = itertools.count()

# Node-key tags, also hashed into alpha fingerprints.
_TAG = {App: "a", Lam: "L", Forall: "A", Exists: "E"}
_TAG.update({Impl: "I", And: "&", Or: "|", Eq: "="})


class TermArena:
    """One search's node table, parallel derived-data arrays and memos.

    Thread safety: threads outside any scope share the default state,
    so *admission* (which must keep the node table and every parallel
    array aligned) is serialized on ``admit_lock`` with a
    double-checked table probe.  The hit paths stay lock-free: a table
    entry is published only after all parallel arrays hold the node
    (publish-last), so an unlocked reader that observes a hit can
    always dereference it.
    """

    __slots__ = (
        "generation",
        "nodes",
        "terms",
        "stamps",
        "table",
        "hashes",
        "fvs",
        "metas",
        "alpha_fp",
        "tables",
        "intern_hits",
        "intern_misses",
        "fp_hits",
        "fp_misses",
        "admit_lock",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.generation = next(_GENERATIONS)
        self.nodes: List[tuple] = []  # id -> structural key (tag + child ids)
        self.terms: List[Term] = []  # id -> canonical Term object
        self.stamps: List[tuple] = []  # id -> the (generation, id) stamp
        self.table: Dict[tuple, int] = {}  # structural key -> id
        # Parallel derived arrays, keyed by id.
        self.hashes: List[int] = []  # structural hash (eager)
        self.fvs: List[Optional[FrozenSet[str]]] = []  # lazy
        self.metas: List[Optional[FrozenSet[int]]] = []  # lazy
        self.alpha_fp: List[Optional[int]] = []  # lazy (empty-env fp)
        # The registered memo tables, keyed by these ids.
        self.tables = _cache.MemoTables()
        self.intern_hits = 0
        self.intern_misses = 0
        self.fp_hits = 0
        self.fp_misses = 0
        self.admit_lock = threading.Lock()

    def size(self) -> int:
        return len(self.nodes)

    def drop(self) -> None:
        """Free every node and memo entry, keeping the counters: a
        frame that a stored traceback keeps alive may still hold it."""
        for data in (
            self.nodes, self.terms, self.stamps, self.table, self.hashes,
            self.fvs, self.metas, self.alpha_fp, self.tables,
        ):
            data.clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """This state's lookups and resident entries, per table."""
        out = {name: t.stats() for name, t in list(self.tables.items())}
        size = len(self.nodes)
        for name, hits, misses in (
            ("intern", self.intern_hits, self.intern_misses),
            ("alpha_fp", self.fp_hits, self.fp_misses),
        ):
            out[name] = dict(
                hits=hits, misses=misses, size=size, capacity=0, evictions=0
            )
        return out

    # -- interning ------------------------------------------------------

    def intern_id(self, term: Term) -> int:
        """The id of ``term``'s structure, admitting nodes as needed.

        Iterative post-order walk: a node is admitted once all of its
        children carry this arena's stamp, keyed by the ids those
        stamps held when this visit read them, each once; a child
        another search's arena re-stamps meanwhile is walked again.
        The root is popped last, so the last id the walk sees is the
        root's.
        """
        gen = self.generation
        stamp = term.__dict__.get("_st")
        if stamp is not None and stamp[0] == gen:
            self.intern_hits += 1
            return stamp[1]
        tid = -1
        stack = [term]
        while stack:
            t = stack[-1]
            stamp = t.__dict__.get("_st")
            if stamp is not None and stamp[0] == gen:
                stack.pop()
                tid = stamp[1]
                continue
            ids = []
            for child in term_children(t):
                stamp = child.__dict__.get("_st")
                if stamp is None or stamp[0] != gen:
                    stack.append(child)
                else:
                    ids.append(stamp[1])
            if stack[-1] is t:
                stack.pop()
                tid = self._admit(t, ids)
        return tid

    def intern_term(self, term: Term) -> Term:
        """The canonical representative of ``term``'s structure."""
        return self.terms[self.intern_id(term)]

    def term_of(self, tid: int) -> Term:
        """The canonical term for id ``tid``."""
        return self.terms[tid]

    def _admit(self, term: Term, ids: List[int]) -> int:
        """Intern one node whose children have the ids ``ids``."""
        key = self._node_key(term, ids)
        tid = self.table.get(key)
        if tid is None:
            # Admission is the only compound mutation: the node table
            # and every parallel array must stay aligned, and two
            # threads admitting concurrently would both read the same
            # len(nodes) as their id.  Double-checked under the lock;
            # the table entry is published last so the lock-free hit
            # path above never sees an id its arrays don't yet hold.
            with self.admit_lock:
                tid = self.table.get(key)
                if tid is None:
                    self.intern_misses += 1
                    rep = self._canonicalize(term, key)
                    tid = len(self.nodes)
                    stamp = (self.generation, tid)
                    self.nodes.append(key)
                    self.terms.append(rep)
                    self.stamps.append(stamp)
                    self.hashes.append(structural_hash(rep))
                    self.fvs.append(None)
                    self.metas.append(None)
                    self.alpha_fp.append(None)
                    object.__setattr__(rep, "_st", stamp)
                    self.table[key] = tid
                else:
                    self.intern_hits += 1
        else:
            self.intern_hits += 1
        stamp = self.stamps[tid]
        if term.__dict__.get("_st") is not stamp:
            object.__setattr__(term, "_st", stamp)
        return tid

    def _node_key(self, term: Term, ids: List[int]) -> tuple:
        """The hash-consing key: class tag, scalar payload, child ids."""
        cls = term.__class__
        if cls is App:
            return ("a", *ids)
        if cls is Var:
            return ("v", term.name)
        if cls is Const:
            return ("c", term.name)
        if cls is Eq:
            return ("=", term.ty, *ids)
        if cls is Lam or cls is Forall or cls is Exists:
            return (_TAG[cls], term.var, term.ty, *ids)
        if cls is TrueP:
            return ("T",)
        if cls is FalseP:
            return ("F",)
        if cls is Meta:
            return ("m", term.uid, term.hint)
        return (_TAG[cls], *ids)  # Impl / And / Or

    def _canonicalize(self, term: Term, key: tuple) -> Term:
        """Rebuild ``term`` over the canonical children its ``key``
        names (identity-preserving)."""
        cls = term.__class__
        terms = self.terms
        if cls is App:
            fn = terms[key[1]]
            args = tuple(terms[a] for a in key[2:])
            if fn is term.fn and all(
                a is b for a, b in zip(args, term.args)
            ):
                return term
            return App(fn, args)
        if cls is Lam or cls is Forall or cls is Exists:
            body = terms[key[-1]]
            if body is term.body:
                return term
            return cls(term.var, term.ty, body)
        if cls is Impl or cls is And or cls is Or or cls is Eq:
            lhs = terms[key[-2]]
            rhs = terms[key[-1]]
            if lhs is term.lhs and rhs is term.rhs:
                return term
            if cls is Eq:
                return Eq(term.ty, lhs, rhs)
            return cls(lhs, rhs)
        # Leaves are canonical by construction.
        return term

    # -- derived data (parallel arrays) ---------------------------------

    def hash_of(self, tid: int) -> int:
        return self.hashes[tid]

    def fvs_of(self, tid: int) -> FrozenSet[str]:
        """Free-variable set for id ``tid`` (lazy parallel array)."""
        val = self.fvs[tid]
        if val is None:
            val = free_var_set(self.terms[tid])
            self.fvs[tid] = val
        return val

    def metas_of(self, tid: int) -> FrozenSet[int]:
        """Metavariable-uid set for id ``tid`` (lazy parallel array)."""
        val = self.metas[tid]
        if val is None:
            val = meta_set(self.terms[tid])
            self.metas[tid] = val
        return val

    def alpha_fp_of(self, tid: int) -> int:
        """Alpha-invariant fingerprint of id ``tid`` (empty binder env).

        Iterative two-phase machine over nodes.  Value-identical to
        the pristine walk in :mod:`repro.kernel.subst` — bound
        variables hash by de Bruijn index, so a subterm closed with
        respect to the enclosing binders fingerprints the same at any
        position and its value memoizes in the ``alpha_fp`` array.
        Child ids come from the node keys (the last entries).
        """
        memo = self.alpha_fp
        cached = memo[tid]
        if cached is not None:
            self.fp_hits += 1
            return cached
        self.fp_misses += 1
        terms = self.terms
        nodes = self.nodes
        _EMPTY: Dict[str, int] = {}
        # Frames: (False, tid, env, depth) to visit, (True, tid, env,
        # depth) to combine child fingerprints off the value stack.
        tasks: List[tuple] = [(False, tid, _EMPTY, 0)]
        vals: List[int] = []
        while tasks:
            combining, i, env, depth = tasks.pop()
            t = terms[i]
            cls = t.__class__
            if combining:
                if cls is App:
                    n = len(t.args)
                    child = vals[-(n + 1):]
                    del vals[-(n + 1):]
                    fp = hash(("a", n, child[0]) + tuple(child[1:]))
                elif cls is Lam or cls is Forall or cls is Exists:
                    fp = hash((_TAG[cls], vals.pop()))
                else:  # Impl / And / Or / Eq
                    rhs = vals.pop()
                    fp = hash((_TAG[cls], vals.pop(), rhs))
                if not env:
                    memo[i] = fp
                vals.append(fp)
                continue
            if not env:
                hit = memo[i]
                if hit is not None:
                    vals.append(hit)
                    continue
            elif self.fvs_of(i).isdisjoint(env):
                # Closed w.r.t. the enclosing binders: the value is
                # position-independent; compute (and memoize) it in an
                # empty environment instead.
                tasks.append((False, i, _EMPTY, 0))
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
                tasks.append((True, i, env, depth))
                for c in reversed(nodes[i][1:]):
                    tasks.append((False, c, env, depth))
            elif cls is Lam or cls is Forall or cls is Exists:
                inner = dict(env)
                inner[t.var] = depth
                tasks.append((True, i, env, depth))
                tasks.append((False, nodes[i][-1], inner, depth + 1))
            elif cls is Impl or cls is And or cls is Or or cls is Eq:
                key = nodes[i]
                tasks.append((True, i, env, depth))
                tasks.append((False, key[-1], env, depth))
                tasks.append((False, key[-2], env, depth))
            else:
                raise AssertionError(f"unknown term node: {t!r}")
        return vals[0]


# ----------------------------------------------------------------------
# The running search's state, or the default outside any search
# ----------------------------------------------------------------------

_STATE: ContextVar[TermArena] = ContextVar("kernel_state")
_DEFAULT = TermArena()
_cache.track(_DEFAULT)


def current() -> TermArena:
    """The kernel state of the running search, else the default."""
    return _STATE.get(_DEFAULT)


@contextmanager
def scope() -> Iterator[TermArena]:
    """Run a block — one search — in a fresh kernel state.

    The state is dropped when the block exits, its lookups folded into
    :func:`repro.kernel.cache.cache_stats`, and the caller's state is
    current again.  A thread the block starts does not inherit it: it
    runs in the default state.
    """
    state = TermArena()
    _cache.track(state)
    token = _STATE.set(state)
    try:
        yield state
    finally:
        _STATE.reset(token)
        _cache.retire(state)
        state.drop()


def reset() -> None:
    """Replace the default state with a fresh one."""
    global _DEFAULT
    old, _DEFAULT = _DEFAULT, TermArena()
    _cache.track(_DEFAULT)
    _cache.retire(old)


def intern_id(term: Term) -> int:
    return current().intern_id(term)


def intern_term(term: Term) -> Term:
    return current().intern_term(term)


def term_of(tid: int) -> Term:
    return current().term_of(tid)
