"""Term AST for the proof kernel.

Terms cover both the *object* language (natural numbers, lists, file
system trees...) and the *proposition* language (equality, connectives,
quantifiers).  Propositions are terms of type ``Prop``; this mirrors
Coq, where ``Prop`` is just another sort.

Design notes
------------

* Variables are **named** (no de Bruijn indices).  Substitution is
  capture-avoiding (:mod:`repro.kernel.subst`) and duplicate-state
  detection uses an alpha-canonical rendering, so names are purely
  cosmetic.
* Negation ``~ P`` is *not* a node: the parser produces
  ``Impl(P, FALSE)`` exactly as Coq unfolds ``not``.  The pretty
  printer recognizes the pattern and prints ``~ P``.
* ``Meta`` nodes are unification variables.  They appear when a lemma
  is instantiated by ``apply``/``eapply`` and in goals produced by
  ``eapply``; they are resolved through the proof state's metavariable
  store.
* Numerals are Peano terms (``S (S O)``); the pretty printer renders
  them back as decimal literals.

Performance layer
-----------------

Term nodes are frozen, so three derived quantities are computed once
and stamped on the node (via ``object.__setattr__``): the structural
hash (installed as ``__hash__``, making term-keyed dict/set probes
O(1) after first use), the free-variable set, and the metavariable
set.  ``__eq__`` gets a fast path — identity, then class, then cached
hash — before falling back to the dataclass field walk.  On top of
that, :func:`intern` hash-conses terms through the node arena in
:mod:`repro.kernel.arena`: structurally equal terms share one
representative addressed by an integer id, structural equality of
interned terms is id equality, and derived data (hash, free vars,
metas, alpha fingerprints) lives in parallel arrays keyed by id.  All
of this is transparent: hashing and equality semantics are unchanged,
only their cost is.

Every derived-data walk here is **iterative** (explicit work stacks,
post-order stamping), so hashing or collecting the free variables of
a 5000-deep Peano numeral never touches Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Set, Tuple

from repro.kernel import cache as _cache
from repro.kernel.types import Type

__all__ = [
    "Term",
    "Var",
    "Const",
    "App",
    "Lam",
    "Forall",
    "Exists",
    "Impl",
    "And",
    "Or",
    "Eq",
    "TrueP",
    "FalseP",
    "TRUE",
    "FALSE",
    "Meta",
    "app",
    "napp",
    "neg",
    "is_neg",
    "neg_body",
    "conj",
    "impl_chain",
    "foralls",
    "strip_foralls",
    "strip_impls",
    "nat_lit",
    "as_nat_lit",
    "free_vars",
    "free_var_set",
    "subterms",
    "head_const",
    "metas_of",
    "meta_set",
    "intern",
    "intern_id",
    "term_of",
    "structural_hash",
    "term_children",
]


class Term:
    """Abstract base class of all term nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        # Deferred import: pretty needs terms.
        from repro.kernel.pretty import pp_term

        return pp_term(self)


@dataclass(frozen=True)
class Var(Term):
    """A term variable (bound by a quantifier/lambda, or a context var)."""

    name: str


@dataclass(frozen=True)
class Const(Term):
    """A reference to a signature constant (constructor or function)."""

    name: str


@dataclass(frozen=True)
class App(Term):
    """Application of ``fn`` to one or more arguments."""

    fn: Term
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("App requires at least one argument")
        if isinstance(self.fn, App):
            raise ValueError("App must be flattened; use terms.app()")


@dataclass(frozen=True)
class Lam(Term):
    """An anonymous function ``fun (v : ty) => body``."""

    var: str
    ty: Optional[Type]
    body: Term


@dataclass(frozen=True)
class Forall(Term):
    """Universal quantification ``forall (v : ty), body``."""

    var: str
    ty: Optional[Type]
    body: Term


@dataclass(frozen=True)
class Exists(Term):
    """Existential quantification ``exists (v : ty), body``."""

    var: str
    ty: Optional[Type]
    body: Term


@dataclass(frozen=True)
class Impl(Term):
    """Implication ``lhs -> rhs`` (non-dependent product)."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class And(Term):
    """Conjunction ``lhs /\\ rhs``."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Or(Term):
    """Disjunction ``lhs \\/ rhs``."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Eq(Term):
    """Propositional equality ``lhs = rhs`` at type ``ty``.

    ``ty`` is ``None`` until elaboration fills it in.
    """

    ty: Optional[Type]
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TrueP(Term):
    """The trivially true proposition."""


@dataclass(frozen=True)
class FalseP(Term):
    """The absurd proposition."""


TRUE = TrueP()
FALSE = FalseP()


@dataclass(frozen=True)
class Meta(Term):
    """A unification (existential) variable, e.g. introduced by apply."""

    uid: int
    hint: str = "?"


# ----------------------------------------------------------------------
# Performance layer: cached structural hash, fast equality, interning
# ----------------------------------------------------------------------


def term_children(term: Term) -> Tuple[Term, ...]:
    """The direct term-valued children of ``term`` (types excluded)."""
    cls = term.__class__
    if cls is App:
        return (term.fn,) + term.args
    if cls is Lam or cls is Forall or cls is Exists:
        return (term.body,)
    if cls is Impl or cls is And or cls is Or or cls is Eq:
        return (term.lhs, term.rhs)
    return ()


def _combine_hash(term: Term) -> int:
    """Structural hash of one node from already-stamped child hashes."""
    cls = term.__class__
    if cls is Var:
        return hash(("V", term.name))
    if cls is Const:
        return hash(("C", term.name))
    if cls is App:
        return hash(("A", hash(term.fn)) + tuple(hash(a) for a in term.args))
    if cls is Lam or cls is Forall or cls is Exists:
        return hash((cls.__name__, term.var, hash(term.ty), hash(term.body)))
    if cls is Impl or cls is And or cls is Or:
        return hash((cls.__name__, hash(term.lhs), hash(term.rhs)))
    if cls is Eq:
        return hash(("=", hash(term.ty), hash(term.lhs), hash(term.rhs)))
    if cls is TrueP:
        return hash("TrueP")
    if cls is FalseP:
        return hash("FalseP")
    if cls is Meta:
        return hash(("M", term.uid, term.hint))
    raise AssertionError(f"unknown term node: {term!r}")


def _term_hash(self: Term) -> int:
    h = self.__dict__.get("_h")
    if h is None:
        # Iterative post-order stamp: children first, so _combine_hash
        # only ever reads O(1) cached child hashes.  Recursing here
        # would overflow on deep terms (5k-deep Peano numerals).
        stack = [self]
        while stack:
            t = stack[-1]
            if "_h" in t.__dict__:
                stack.pop()
                continue
            pending = [c for c in term_children(t) if "_h" not in c.__dict__]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            object.__setattr__(t, "_h", _combine_hash(t))
        h = self.__dict__["_h"]
    return h


def _term_eq(self: Term, other: object):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    s1 = self.__dict__.get("_st")
    if s1 is not None:
        s2 = other.__dict__.get("_st")  # type: ignore[attr-defined]
        if s2 is not None and s1[0] == s2[0]:
            # Both stamped by one arena: structural equality IS id
            # equality.  Each stamp is one (generation, id) read.
            return s1[1] == s2[1]
    if _term_hash(self) != _term_hash(other):  # type: ignore[arg-type]
        return False
    return _structural_eq(self, other)  # type: ignore[arg-type]


def _structural_eq(t1: Term, t2: Term) -> bool:
    """Field-by-field equality as an iterative pair walk.

    The dataclass-generated ``__eq__`` compares child terms
    recursively; on 5k-deep numerals that blows the recursion limit
    (e.g. from a plain dict probe whose bucket holds an equal deep
    key).  Hashes are compared before descending, so unequal pairs
    exit early just like the recursive version.
    """
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        sa = a.__dict__.get("_st")
        if sa is not None:
            sb = b.__dict__.get("_st")
            if sb is not None and sa[0] == sb[0]:
                if sa[1] != sb[1]:
                    return False
                continue
        if _term_hash(a) != _term_hash(b):
            return False
        if cls is Var or cls is Const:
            if a.name != b.name:
                return False
        elif cls is App:
            if len(a.args) != len(b.args):
                return False
            stack.append((a.fn, b.fn))
            stack.extend(zip(a.args, b.args))
        elif cls is Lam or cls is Forall or cls is Exists:
            if a.var != b.var or a.ty != b.ty:
                return False
            stack.append((a.body, b.body))
        elif cls is Impl or cls is And or cls is Or:
            stack.append((a.lhs, b.lhs))
            stack.append((a.rhs, b.rhs))
        elif cls is Eq:
            if a.ty != b.ty:
                return False
            stack.append((a.lhs, b.lhs))
            stack.append((a.rhs, b.rhs))
        elif cls is Meta:
            if a.uid != b.uid or a.hint != b.hint:
                return False
        # TrueP/FalseP carry no fields.
    return True


def structural_hash(term: Term) -> int:
    """The term's cached structural hash (same value as ``hash(term)``)."""
    return _term_hash(term)


_TERM_CLASSES = (
    Var,
    Const,
    App,
    Lam,
    Forall,
    Exists,
    Impl,
    And,
    Or,
    Eq,
    TrueP,
    FalseP,
    Meta,
)

for _cls in _TERM_CLASSES:
    # Replace the dataclass-generated __hash__/__eq__ (full recursive
    # field walks on every call) with the cached-hash / id-equality /
    # iterative-fallback variants.
    _cls.__eq__ = _term_eq  # type: ignore[assignment]
    _cls.__hash__ = _term_hash  # type: ignore[assignment]
del _cls


# Deferred import cache: arena imports the term classes from this
# module, so this module can only reach arena lazily.
_ARENA_MOD = None


def _arena():
    global _ARENA_MOD
    if _ARENA_MOD is None:
        from repro.kernel import arena as mod

        _ARENA_MOD = mod
    return _ARENA_MOD


def intern(term: Term) -> Term:
    """Hash-cons ``term``: one shared representative per structure.

    Structurally equal terms intern to the *same object* — the arena's
    canonical node for their id (:mod:`repro.kernel.arena`) — so all
    derived values (hash, free variables, metas, alpha fingerprints)
    are computed once per structure rather than once per copy, and
    structural equality of interned terms is id (identity) equality.
    Interning is safe because terms are frozen.  The arena is the
    running search's own (:func:`repro.kernel.arena.scope`), or the
    default one outside any search; a term interned in another arena
    is re-stamped for this one.
    """
    if not _cache.enabled():
        return term
    return _arena().intern_term(term)


def intern_id(term: Term) -> int:
    """The arena id of ``term`` (interning it first if necessary)."""
    return _arena().intern_id(term)


def term_of(tid: int) -> Term:
    """The canonical term for an arena id (inverse of :func:`intern_id`)."""
    return _arena().term_of(tid)


def app(fn: Term, *args: Term) -> Term:
    """Apply ``fn`` to ``args``, flattening nested applications."""
    if not args:
        return fn
    if isinstance(fn, App):
        return App(fn.fn, fn.args + tuple(args))
    return App(fn, tuple(args))


def napp(name: str, *args: Term) -> Term:
    """Apply the constant ``name`` to ``args`` (``napp('S', x)``)."""
    return app(Const(name), *args)


def neg(body: Term) -> Term:
    """Negation, encoded as ``body -> False`` (Coq's ``not``)."""
    return Impl(body, FALSE)


def is_neg(term: Term) -> bool:
    """True when ``term`` is an encoded negation ``P -> False``."""
    return isinstance(term, Impl) and isinstance(term.rhs, FalseP)


def neg_body(term: Term) -> Term:
    """The ``P`` of an encoded negation ``P -> False``."""
    if not is_neg(term):
        raise ValueError(f"not a negation: {term!r}")
    assert isinstance(term, Impl)
    return term.lhs


def conj(*parts: Term) -> Term:
    """Right-nested conjunction of one or more propositions."""
    if not parts:
        return TRUE
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = And(part, result)
    return result


def impl_chain(premises: Tuple[Term, ...], conclusion: Term) -> Term:
    """Build ``P1 -> ... -> Pn -> conclusion``."""
    result = conclusion
    for prem in reversed(premises):
        result = Impl(prem, result)
    return result


def foralls(binders: Tuple[Tuple[str, Optional[Type]], ...], body: Term) -> Term:
    """Wrap ``body`` in universal quantifiers for each ``(name, ty)``."""
    result = body
    for name, ty in reversed(binders):
        result = Forall(name, ty, result)
    return result


def strip_foralls(term: Term) -> Tuple[Tuple[Tuple[str, Optional[Type]], ...], Term]:
    """Split leading universal quantifiers off ``term``."""
    binders = []
    while isinstance(term, Forall):
        binders.append((term.var, term.ty))
        term = term.body
    return tuple(binders), term


def strip_impls(term: Term) -> Tuple[Tuple[Term, ...], Term]:
    """Split leading implications off ``term`` (premises, conclusion)."""
    premises = []
    while isinstance(term, Impl):
        premises.append(term.lhs)
        term = term.rhs
    return tuple(premises), term


def nat_lit(n: int) -> Term:
    """The Peano numeral for ``n``: ``S (S (... O))``."""
    if n < 0:
        raise ValueError("nat_lit requires a non-negative integer")
    result: Term = Const("O")
    for _ in range(n):
        result = App(Const("S"), (result,))
    return result


def as_nat_lit(term: Term) -> Optional[int]:
    """Inverse of :func:`nat_lit`; ``None`` if not a closed numeral."""
    count = 0
    while True:
        if isinstance(term, Const) and term.name == "O":
            return count
        if (
            isinstance(term, App)
            and isinstance(term.fn, Const)
            and term.fn.name == "S"
            and len(term.args) == 1
        ):
            count += 1
            term = term.args[0]
            continue
        return None


_EMPTY_NAMES: FrozenSet[str] = frozenset()


def free_var_set(term: Term) -> FrozenSet[str]:
    """The free term-variable names of ``term``, cached on the node."""
    cached = term.__dict__.get("_fvs")
    if cached is None:
        # Iterative post-order stamp (children before parents), so the
        # combine step below reads only cached child sets.
        stack = [term]
        while stack:
            t = stack[-1]
            if "_fvs" in t.__dict__:
                stack.pop()
                continue
            pending = [
                c for c in term_children(t) if "_fvs" not in c.__dict__
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            object.__setattr__(t, "_fvs", _combine_free_vars(t))
        cached = term.__dict__["_fvs"]
    return cached


def _combine_free_vars(term: Term) -> FrozenSet[str]:
    """Free vars of one node from already-stamped child sets."""
    cls = term.__class__
    if cls is Var:
        return frozenset((term.name,))
    if cls is App:
        out = set(term.fn.__dict__["_fvs"])
        for arg in term.args:
            out |= arg.__dict__["_fvs"]
        return frozenset(out)
    if cls is Lam or cls is Forall or cls is Exists:
        fvs = term.body.__dict__["_fvs"]
        return fvs - {term.var} if term.var in fvs else fvs
    if cls is Impl or cls is And or cls is Or or cls is Eq:
        return term.lhs.__dict__["_fvs"] | term.rhs.__dict__["_fvs"]
    # Var-free leaves: Const, TrueP, FalseP, Meta.
    return _EMPTY_NAMES


def free_vars(term: Term, bound: Optional[Set[str]] = None) -> Set[str]:
    """The free term-variable names of ``term`` (minus ``bound``)."""
    fvs = free_var_set(term)
    if bound:
        return set(fvs - frozenset(bound))
    return set(fvs)


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all of its subterms, pre-order (iterative)."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(term_children(t)))


def head_const(term: Term) -> Optional[str]:
    """The name of the head constant of ``term``, if any."""
    if isinstance(term, Const):
        return term.name
    if isinstance(term, App) and isinstance(term.fn, Const):
        return term.fn.name
    return None


_EMPTY_UIDS: FrozenSet[int] = frozenset()


def meta_set(term: Term) -> FrozenSet[int]:
    """The uids of metavariables occurring in ``term``, cached on the node."""
    cached = term.__dict__.get("_metas")
    if cached is None:
        stack = [term]
        while stack:
            t = stack[-1]
            if "_metas" in t.__dict__:
                stack.pop()
                continue
            pending = [
                c for c in term_children(t) if "_metas" not in c.__dict__
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            object.__setattr__(t, "_metas", _combine_metas(t))
        cached = term.__dict__["_metas"]
    return cached


def _combine_metas(term: Term) -> FrozenSet[int]:
    cls = term.__class__
    if cls is Meta:
        return frozenset((term.uid,))
    if cls is App:
        out = set(term.fn.__dict__["_metas"])
        for arg in term.args:
            out |= arg.__dict__["_metas"]
        return frozenset(out)
    if cls is Lam or cls is Forall or cls is Exists:
        return term.body.__dict__["_metas"]
    if cls is Impl or cls is And or cls is Or or cls is Eq:
        return term.lhs.__dict__["_metas"] | term.rhs.__dict__["_metas"]
    return _EMPTY_UIDS


def metas_of(term: Term) -> Set[int]:
    """The uids of all metavariables occurring in ``term``."""
    return set(meta_set(term))
