"""The global environment: every declaration visible to a proof.

An :class:`Environment` is the kernel-side image of a Coq project: a
signature of constants, the inductive datatypes and predicates, the
transparent/recursive definitions, proved lemmas and axioms, and the
hint databases used by ``auto``/``eauto``.

The corpus loader (:mod:`repro.corpus.loader`) builds one environment
incrementally in file-dependency order, exactly as ``coqc`` would
process FSCQ's files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import EnvironmentError_
from repro.kernel.definitions import Abbreviation, Fixpoint
from repro.kernel.inductives import Inductive, InductivePred, PredConstructor
from repro.kernel.signature import ConstInfo, ConstKind, Signature
from repro.kernel.terms import Term
from repro.kernel.types import PROP, TCon, Type, arrows

__all__ = ["LemmaInfo", "Environment"]


@dataclass(frozen=True)
class LemmaInfo:
    """A named proved statement (or trusted axiom)."""

    name: str
    statement: Term
    is_axiom: bool = False


class Environment:
    """Mutable global environment for kernel declarations."""

    def __init__(self) -> None:
        self.signature = Signature()
        self.inductives: Dict[str, Inductive] = {}
        self.preds: Dict[str, InductivePred] = {}
        self.abbreviations: Dict[str, Abbreviation] = {}
        self.fixpoints: Dict[str, Fixpoint] = {}
        self.lemmas: Dict[str, LemmaInfo] = {}
        self.opaque_types: List[str] = []  # declared base types (valu, pred...)
        self.hint_resolve: List[str] = []  # lemma names for auto/eauto
        self.hint_constructors: List[str] = []  # pred names for auto/eauto
        # Bumped whenever a declaration that can change reduction
        # behaviour lands (constructors, definitions, fixpoints); the
        # reduction memo keys on (env, generation, term) so entries
        # cached mid-load never survive a later declaration.
        self.generation: int = 0
        # ``auto``'s split hint database with the state it was built
        # for; owned by :mod:`repro.tactics.auto_`.
        self.auto_index: Optional[Tuple[tuple, tuple]] = None

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def declare_type(self, name: str) -> None:
        """Declare an opaque base type (e.g. ``valu``, ``pred``)."""
        if name in self.opaque_types:
            raise EnvironmentError_(f"duplicate type: {name}")
        self.opaque_types.append(name)

    def declare_inductive(self, ind: Inductive) -> None:
        """Declare a datatype and register its constructors."""
        if ind.name in self.inductives:
            raise EnvironmentError_(f"duplicate inductive: {ind.name}")
        self.inductives[ind.name] = ind
        self.generation += 1
        for ctor in ind.constructors:
            self.signature.add(
                ConstInfo(
                    name=ctor.name,
                    ty=ind.constructor_type(ctor),
                    kind=ConstKind.CONSTRUCTOR,
                    parent=ind.name,
                )
            )

    def declare_pred(self, pred: InductivePred) -> None:
        """Declare an inductive predicate; its intro rules become lemmas."""
        if pred.name in self.preds:
            raise EnvironmentError_(f"duplicate predicate: {pred.name}")
        self.preds[pred.name] = pred
        self.signature.add(
            ConstInfo(name=pred.name, ty=pred.ty, kind=ConstKind.INDUCTIVE_PRED)
        )
        for ctor in pred.constructors:
            self._add_lemma(LemmaInfo(ctor.name, ctor.statement, is_axiom=True))

    def declare_abbreviation(self, abbr: Abbreviation) -> None:
        if abbr.name in self.abbreviations:
            raise EnvironmentError_(f"duplicate definition: {abbr.name}")
        self.abbreviations[abbr.name] = abbr
        self.generation += 1
        param_types = tuple(ty for _, ty in abbr.params)
        self.signature.add(
            ConstInfo(
                name=abbr.name,
                ty=arrows(*param_types, abbr.result_ty),
                kind=ConstKind.ABBREVIATION,
            )
        )

    def declare_fixpoint(self, fix: Fixpoint) -> None:
        if fix.name in self.fixpoints:
            raise EnvironmentError_(f"duplicate fixpoint: {fix.name}")
        self.fixpoints[fix.name] = fix
        self.generation += 1
        self.signature.add(
            ConstInfo(
                name=fix.name,
                ty=arrows(*fix.arg_types, fix.result_ty),
                kind=ConstKind.FIXPOINT,
            )
        )

    def declare_opaque(self, name: str, ty: Type) -> None:
        """Declare a constant with no computation rules (e.g. ``emp``)."""
        self.signature.add(ConstInfo(name=name, ty=ty, kind=ConstKind.OPAQUE))

    def add_axiom(self, name: str, statement: Term) -> None:
        self._add_lemma(LemmaInfo(name, statement, is_axiom=True))

    def add_lemma(self, name: str, statement: Term) -> None:
        """Record a *proved* lemma (the script layer calls this on Qed)."""
        self._add_lemma(LemmaInfo(name, statement, is_axiom=False))

    def _add_lemma(self, info: LemmaInfo) -> None:
        if info.name in self.lemmas:
            raise EnvironmentError_(f"duplicate lemma: {info.name}")
        if info.name in self.signature:
            raise EnvironmentError_(f"lemma shadows constant: {info.name}")
        self.lemmas[info.name] = info

    # ------------------------------------------------------------------
    # Hint databases
    # ------------------------------------------------------------------

    def hint_resolve_add(self, *names: str) -> None:
        """``Hint Resolve``: make lemmas available to auto/eauto."""
        for name in names:
            if self.statement_of(name) is None:
                raise EnvironmentError_(f"hint for unknown lemma: {name}")
            if name not in self.hint_resolve:
                self.hint_resolve.append(name)

    def hint_constructors_add(self, *pred_names: str) -> None:
        """``Hint Constructors``: let auto apply a predicate's intro rules."""
        for name in pred_names:
            if name not in self.preds:
                raise EnvironmentError_(f"hint for unknown predicate: {name}")
            if name not in self.hint_constructors:
                self.hint_constructors.append(name)

    def auto_hints(self) -> List[Tuple[str, Term]]:
        """All (name, statement) pairs auto may apply, in declaration order."""
        hints: List[Tuple[str, Term]] = []
        for name in self.hint_resolve:
            statement = self.statement_of(name)
            assert statement is not None
            hints.append((name, statement))
        for pred_name in self.hint_constructors:
            for ctor in self.preds[pred_name].constructors:
                hints.append((ctor.name, ctor.statement))
        return hints

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def statement_of(self, name: str) -> Optional[Term]:
        """The statement of a lemma/axiom/intro-rule named ``name``."""
        info = self.lemmas.get(name)
        if info is not None:
            return info.statement
        return None

    def inductive_for_type(self, ty: Type) -> Optional[Inductive]:
        """The datatype declaration behind a :class:`TCon`, if any."""
        if isinstance(ty, TCon):
            return self.inductives.get(ty.name)
        return None

    def constructor_parent(self, const_name: str) -> Optional[Inductive]:
        """The inductive owning ``const_name`` when it is a constructor."""
        info = self.signature.get(const_name)
        if info is None or info.kind is not ConstKind.CONSTRUCTOR:
            return None
        assert info.parent is not None
        return self.inductives[info.parent]

    def is_constructor(self, const_name: str) -> bool:
        info = self.signature.get(const_name)
        return info is not None and info.kind is ConstKind.CONSTRUCTOR

    def all_lemma_names(self) -> List[str]:
        return list(self.lemmas)
