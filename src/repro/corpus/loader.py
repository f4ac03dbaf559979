"""Project assembly: load corpus files in dependency order.

``load_project()`` plays the role of ``make`` over FSCQ's ``.v``
files: it topologically orders the corpus files by their imports,
installs every declaration into one shared environment, and — crucially
— machine-checks every lemma's human proof along the way.  The result
is a :class:`Project` the evaluation layer can query for theorems,
contexts, and categories.
"""

from __future__ import annotations

import hashlib
import importlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CorpusError
from repro.kernel import arena as kernel_arena
from repro.kernel.env import Environment
from repro.corpus.model import SourceFile, Theorem
from repro.corpus.tokenizer import count_tokens

__all__ = ["Project", "load_project", "FILE_MODULES", "ADHOC_GOAL_PREFIX"]

#: Name prefix of theorems registered via :meth:`Project.adhoc_theorem`.
ADHOC_GOAL_PREFIX = "goal_"

# Ad-hoc statements elaborate with fresh type variables drawn from this
# fixed base (far above anything corpus loading or search allocates),
# so the parsed statement — and therefore every rendered prompt — is
# identical no matter how many goals were registered before it.
_ADHOC_TVAR_BASE = 1_000_000_000

# Registered after every corpus declaration: an ad-hoc goal's prover
# sees the whole project, like a user working at the end of the tree.
_ADHOC_CUTOFF = 10**9

_ADHOC_LOCK = threading.Lock()

# Corpus files in a valid dependency order (checked against imports).
FILE_MODULES: Tuple[str, ...] = (
    "repro.corpus.fscq.prelude",
    "repro.corpus.fscq.arith_utils",
    "repro.corpus.fscq.list_utils",
    "repro.corpus.fscq.word_utils",
    "repro.corpus.fscq.list_pred",
    "repro.corpus.fscq.sorting",
    "repro.corpus.fscq.rounding",
    "repro.corpus.fscq.chl.pred",
    "repro.corpus.fscq.chl.sep_star",
    "repro.corpus.fscq.chl.sep_norm",
    "repro.corpus.fscq.chl.hoare",
    "repro.corpus.fscq.chl.crash",
    "repro.corpus.fscq.chl.idempotence",
    "repro.corpus.fscq.fs.addr_log",
    "repro.corpus.fscq.fs.padded_log",
    "repro.corpus.fscq.fs.log_replay",
    "repro.corpus.fscq.fs.balloc",
    "repro.corpus.fscq.fs.inode",
    "repro.corpus.fscq.fs.bfile",
    "repro.corpus.fscq.fs.txn",
    "repro.corpus.fscq.fs.recover",
    "repro.corpus.fscq.fs.dir_tree",
    "repro.corpus.fscq.fs.dirname",
    "repro.corpus.fscq.fs.super",
)


@dataclass
class Project:
    """A fully loaded, fully checked corpus."""

    env: Environment
    files: List[SourceFile]
    theorems: List[Theorem]
    # Declaration-order bookkeeping, used to reconstruct the
    # environment "as of" a theorem (a prover must not see the theorem
    # itself, later lemmas, or later hints — coqc order).
    lemma_order: Dict[str, int] = field(default_factory=dict)
    hint_events: List[Tuple[int, str, Tuple[str, ...]]] = field(
        default_factory=list
    )
    theorem_cutoff: Dict[str, int] = field(default_factory=dict)
    # How this project was loaded.  Re-loads that must reproduce this
    # environment bit-for-bit (e.g. process-pool workers) have to use
    # the same mode: replaying proofs at load advances the global
    # type-variable gensym, so later statements parse with different
    # fresh-variable names — which show up in prompts and therefore in
    # the seeded generator's output.
    check_proofs: bool = True
    _by_name: Dict[str, Theorem] = field(default_factory=dict)
    _env_cache: Dict[int, Environment] = field(default_factory=dict)

    def theorem(self, name: str) -> Theorem:
        thm = self._by_name.get(name)
        if thm is None:
            raise CorpusError(f"no theorem named {name}")
        return thm

    def file_named(self, name: str) -> SourceFile:
        for f in self.files:
            if f.name == name:
                return f
        raise CorpusError(f"no file named {name}")

    def theorems_in(self, category: str) -> List[Theorem]:
        return [t for t in self.theorems if t.category == category]

    def env_for(self, theorem: Theorem) -> Environment:
        """The environment as of ``theorem``'s position in the project.

        Lemmas at or after the theorem (including the theorem itself)
        and hints registered after it are invisible — the prover sees
        exactly what a human proving it in place would.  Datatypes and
        definitions are shared by reference (they are immutable during
        evaluation).
        """
        cutoff = self.theorem_cutoff[theorem.name]
        cached = self._env_cache.get(cutoff)
        if cached is not None:
            return cached
        view = Environment()
        view.signature = self.env.signature
        view.inductives = self.env.inductives
        view.preds = self.env.preds
        view.abbreviations = self.env.abbreviations
        view.fixpoints = self.env.fixpoints
        view.opaque_types = self.env.opaque_types
        view.lemmas = {
            name: info
            for name, info in self.env.lemmas.items()
            if self.lemma_order.get(name, -1) < cutoff
        }
        for order, kind, names in self.hint_events:
            if order >= cutoff:
                continue
            if kind == "resolve":
                view.hint_resolve.extend(
                    n for n in names if n not in view.hint_resolve
                )
            else:
                view.hint_constructors.extend(
                    n for n in names if n not in view.hint_constructors
                )
        self._env_cache[cutoff] = view
        return view

    def adhoc_theorem(self, statement_text: str) -> Theorem:
        """Register a raw goal as an ad-hoc theorem (prover service).

        The goal is named by a content hash of its statement text
        (``goal_<sha16>``), so the same goal registers once and maps to
        a stable :meth:`~repro.eval.tasks.TheoremTask.cache_key` across
        server restarts.  It is attached *after* the last corpus file —
        the prover sees the entire project, and ``proof_text`` is empty
        (there is no human reference; similarity/length-ratio stay
        meaningful only for corpus theorems).

        Parsing is serialised and the fresh-type-variable counter is
        pinned to a fixed base for the duration, so concurrent
        registrations elaborate bit-identical statements regardless of
        arrival order.  It runs in a kernel state of its own, so a
        long-running server's default state does not grow with every
        goal.  The registered theorem is NOT appended to
        :attr:`theorems` — splits, sweeps, and benchmarks must keep
        seeing exactly the corpus.
        """
        from repro.kernel.parser import parse_statement
        from repro.kernel import types as kernel_types

        digest = hashlib.sha256(
            statement_text.strip().encode("utf-8")
        ).hexdigest()[:16]
        name = f"{ADHOC_GOAL_PREFIX}{digest}"
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        with _ADHOC_LOCK:
            existing = self._by_name.get(name)
            if existing is not None:
                return existing
            counter = kernel_types._FRESH_COUNTER
            saved = counter[0]
            counter[0] = _ADHOC_TVAR_BASE
            try:
                with kernel_arena.scope():
                    statement = parse_statement(
                        self.env, statement_text.strip()
                    )
            finally:
                counter[0] = saved
            last = self.files[-1]
            theorem = Theorem(
                name=name,
                file=last.name,
                category=last.category,
                index=len(last.declarations),
                statement_text=statement_text.strip(),
                proof_text="",
                statement=statement,
                proof_tokens=0,
            )
            self.theorem_cutoff[name] = _ADHOC_CUTOFF
            self._by_name[name] = theorem
            return theorem


def _check_import_order(files: Sequence[SourceFile]) -> None:
    seen = set()
    for f in files:
        for imp in f.imports:
            if imp not in seen:
                raise CorpusError(
                    f"file {f.name} imports {imp} before it is loaded"
                )
        seen.add(f.name)


_CACHE: Dict[Tuple[Tuple[str, ...], bool], Project] = {}


def load_project(
    modules: Optional[Sequence[str]] = None,
    check_proofs: bool = True,
    use_cache: bool = True,
) -> Project:
    """Build the corpus environment, verifying all proofs.

    With ``check_proofs=False`` lemma statements are trusted and their
    scripts are not replayed (used by fast unit tests; the full check
    runs in ``tests/corpus``).  The load runs in a kernel state of its
    own (:func:`repro.kernel.arena.scope`): the arena and memo tables
    its proof replay filled are dropped once the project is built.
    """
    key = (tuple(modules) if modules is not None else FILE_MODULES, check_proofs)
    if use_cache and key in _CACHE:
        return _CACHE[key]
    with kernel_arena.scope():
        project = _build_project(modules, check_proofs)
    if use_cache:
        _CACHE[key] = project
    return project


def _build_project(
    modules: Optional[Sequence[str]], check_proofs: bool
) -> Project:
    module_names = list(modules) if modules is not None else list(FILE_MODULES)
    env = Environment()
    files: List[SourceFile] = []
    theorems: List[Theorem] = []
    lemma_order: Dict[str, int] = {}
    hint_events: List[Tuple[int, str, Tuple[str, ...]]] = []
    theorem_cutoff: Dict[str, int] = {}
    order = 0

    for module_name in module_names:
        module = importlib.import_module(module_name)
        if not hasattr(module, "build"):
            raise CorpusError(f"{module_name} has no build() entry point")
        source_file: SourceFile = module.build()
        files.append(source_file)
        for index, decl in enumerate(source_file.declarations):
            order += 1
            before_lemmas = set(env.lemmas)
            before_resolve = len(env.hint_resolve)
            before_ctors = len(env.hint_constructors)
            if decl.kind == "lemma" and not check_proofs:
                # Trusted fast path: install the statement only.
                from repro.kernel.parser import parse_statement

                statement = parse_statement(env, decl.statement_text)
                env.add_lemma(decl.name, statement)
            else:
                try:
                    decl.install(env)
                except CorpusError:
                    raise
                except Exception as exc:  # pragma: no cover - authoring aid
                    raise CorpusError(
                        f"{source_file.name}.{decl.name}: {exc}"
                    ) from exc
            for name in set(env.lemmas) - before_lemmas:
                lemma_order[name] = order
            if len(env.hint_resolve) > before_resolve:
                hint_events.append(
                    (order, "resolve", tuple(env.hint_resolve[before_resolve:]))
                )
            if len(env.hint_constructors) > before_ctors:
                hint_events.append(
                    (
                        order,
                        "ctors",
                        tuple(env.hint_constructors[before_ctors:]),
                    )
                )
            if decl.kind == "lemma":
                assert decl.statement_text and decl.proof_text
                theorem = Theorem(
                    name=decl.name,
                    file=source_file.name,
                    category=source_file.category,
                    index=index,
                    statement_text=decl.statement_text,
                    proof_text=decl.proof_text,
                    statement=env.statement_of(decl.name),
                    proof_tokens=count_tokens(decl.proof_text),
                )
                theorems.append(theorem)
                theorem_cutoff[theorem.name] = order

    _check_import_order(files)
    project = Project(
        env=env,
        files=files,
        theorems=theorems,
        lemma_order=lemma_order,
        hint_events=hint_events,
        theorem_cutoff=theorem_cutoff,
        check_proofs=check_proofs,
    )
    for theorem in theorems:
        project._by_name[theorem.name] = theorem
    return project
