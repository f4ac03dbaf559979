"""Parsing a prompt back into a structured view.

A (simulated) model "reads" its prompt; this module is that reading.
Everything here works on the prompt *text only* — regular expressions
over the Coq-style source plus the raw term parser on the goal display
— so a model's knowledge is exactly bounded by its (possibly
truncated) context window.

The search prompts one theorem up to 128 times with the same context,
and the contexts of one file share most of their paragraphs, so every
reading here is a pure function of some text and is memoized by it:
each context paragraph, each context, each lemma statement and each
goal or hypothesis text (DESIGN.md §4b).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import ParseError
from repro.kernel.cache import BoundedCache
from repro.kernel.parser import parse_term
from repro.kernel.terms import Term
from repro.prompting.prompt import GOAL_HEADER, THEOREM_HEADER

__all__ = [
    "LemmaView",
    "HypView",
    "PromptView",
    "Signature",
    "parse_prompt",
    "proof_steps",
    "signature_tokens",
]

_LEMMA_RE = re.compile(
    r"^(?:Lemma|Theorem|Axiom)\s+(\w+)\s*:\s*(.*?)\.\s*$",
    re.MULTILINE | re.DOTALL,
)
_PROOF_RE = re.compile(
    r"Lemma\s+(\w+)\s*:.*?\.\nProof\.\n(.*?)\nQed\.",
    re.DOTALL,
)
_PROOF_MARK = ".\nProof.\n"
_DEFINITION_RE = re.compile(r"^Definition\s+(\w+)", re.MULTILINE)
_FIXPOINT_RE = re.compile(r"^Fixpoint\s+(\w+)", re.MULTILINE)
_INDUCTIVE_RE = re.compile(
    r"^Inductive\s+(\w+)[^\n]*:\s*([^\n]*?):=", re.MULTILINE
)
_RULE_RE = re.compile(r"^\s*\|\s*(\w+)\s*:\s*(.+?)$", re.MULTILINE)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_SENTENCE_RE = re.compile(r"[^.;]+[.]")
# Repair-round feedback lines (repro.repair.prompts): the tactics a
# previous attempt tried at this frontier and the checker refused.
_FAILED_TACTIC_RE = re.compile(
    r"^\(\* The checker rejected: (.*?) \*\)$", re.MULTILINE
)

# Tokens that mark a context line as a variable declaration rather
# than a hypothesis (a model would judge this visually the same way).
_TYPEISH = {
    "nat",
    "bool",
    "list",
    "option",
    "prod",
    "valu",
    "pred",
    "string",
    "dirtree",
    "prog",
}

# Identifiers too common to say what a statement is about.
_STOP = {
    "forall",
    "exists",
    "fun",
    "Type",
    "Prop",
    "nat",
    "list",
    "bool",
    "prod",
    "option",
    "True",
    "False",
}


def idents(text: str) -> Set[str]:
    return set(_IDENT_RE.findall(text))


def signature_tokens(text: str) -> Set[str]:
    """The identifiers of ``text`` that say what it is about."""
    return {t for t in idents(text) if t not in _STOP and len(t) > 1}


class Signature(NamedTuple):
    """A statement's signature tokens, its binder names removed."""

    conclusion: frozenset
    lhs: frozenset  # of an equation's left-hand side; empty otherwise
    statement: frozenset


def proof_steps(proof: str) -> List[str]:
    """Split a hint proof into tactic sentences (bullets dropped)."""
    steps: List[str] = []
    for raw in _SENTENCE_RE.findall(proof):
        text = raw.strip().lstrip("-+*{} \t\n")
        if text.endswith("."):
            text = text[:-1]
        text = text.strip()
        if text:
            steps.append(text)
    return steps


@dataclass
class LemmaView:
    """A lemma/axiom statement as seen in the prompt.

    Every context that shows the same lemma with the same proof (or
    none) shares one view of it, so views are read-only once parsed.
    """

    name: str
    statement: str
    conclusion: str  # textual final conclusion
    head: str  # head symbol of the conclusion ('=', '=p=>', or ident)
    is_equation: bool
    proof: Optional[str] = None  # hint setting only
    binders: frozenset = frozenset()  # universally bound names

    @cached_property
    def signature(self) -> Signature:
        lhs = frozenset()
        if self.is_equation:
            lhs = frozenset(
                signature_tokens(self.conclusion.split("=")[0]) - self.binders
            )
        return Signature(
            frozenset(signature_tokens(self.conclusion) - self.binders),
            lhs,
            frozenset(signature_tokens(self.statement) - self.binders),
        )

    @cached_property
    def steps(self) -> List[str]:
        """The tactic sentences of ``proof`` (none without one)."""
        return proof_steps(self.proof) if self.proof else []


_BINDER_PREFIX_RE = re.compile(r"^forall\s+(.*?),", re.DOTALL)


def _binder_names(statement: str) -> frozenset:
    """Names bound by the statement's leading ``forall`` prefix."""
    match = _BINDER_PREFIX_RE.match(statement.strip())
    if not match:
        return frozenset()
    prefix = match.group(1)
    # Drop the type annotations inside each (x y : T) group.
    names = set()
    for group in re.findall(r"\(([^:()]*):[^()]*\)", prefix):
        names.update(_IDENT_RE.findall(group))
    if "(" not in prefix:
        names.update(_IDENT_RE.findall(prefix.split(":")[0]))
    return frozenset(names)


@dataclass
class HypView:
    name: str
    text: str
    is_var: bool
    term: Optional[Term] = None  # raw-parsed, hypotheses only


@dataclass
class PromptView:
    lemmas: Dict[str, LemmaView] = field(default_factory=dict)
    definitions: List[str] = field(default_factory=list)
    fixpoints: List[str] = field(default_factory=list)
    inductive_preds: Set[str] = field(default_factory=set)
    theorem_name: str = ""
    theorem_statement: str = ""
    steps: List[str] = field(default_factory=list)
    hyps: List[HypView] = field(default_factory=list)
    goal_text: str = ""
    goal_term: Optional[Term] = None
    num_goals: int = 1
    # Tactics a repair-feedback block reports as already refused by the
    # checker at this frontier (an attentive model won't retry them).
    failed_tactics: List[str] = field(default_factory=list)
    # What the context alone decides, read once per context and shared
    # by every view of it: the lemmas it shows a proof of, and the
    # tactic-head frequencies of those proofs.  A view built by hand
    # leaves them None and derives them from ``lemmas`` on use.
    hinted: Optional[List[LemmaView]] = None
    head_priors: Optional[Dict[str, float]] = None

    def hinted_lemmas(self) -> List[LemmaView]:
        if self.hinted is not None:
            return self.hinted
        return [l for l in self.lemmas.values() if l.proof]


def _conclusion_of(statement: str) -> str:
    """The textual conclusion of a statement (after binders/premises)."""
    text = statement.strip()
    # Drop a leading "forall ... ," prefix (up to the matching comma).
    if text.startswith("forall"):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                text = text[i + 1 :].strip()
                break
    # Take the final arrow component at paren depth 0.
    depth = 0
    last = 0
    i = 0
    while i < len(text) - 1:
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text[i : i + 2] == "->" and text[i : i + 4] != "->>":
            # Skip '=p=>' (its '=>' is not an implication arrow).
            if i > 0 and text[i - 1] == "=":
                i += 2
                continue
            last = i + 2
        i += 1
    return text[last:].strip()


def _head_of(conclusion: str) -> Tuple[str, bool]:
    if " =p=> " in conclusion:
        return "=p=>", False
    stripped = re.sub(r"\([^()]*\)", " ", conclusion)
    if re.search(r"(?<![<>=:~])=(?![>=])", stripped):
        return "=", True
    match = _IDENT_RE.search(conclusion)
    return (match.group(0) if match else "?", False)


def head_priors(hinted: Sequence[LemmaView]) -> Dict[str, float]:
    """Tactic-head frequencies across the steps of ``hinted``'s proofs."""
    counts: Counter = Counter()
    total = 0
    for lemma in hinted:
        for step in lemma.steps:
            head = step.split()[0] if step.split() else ""
            if head:
                counts[head] += 1
                total += 1
    if not total:
        return {}
    return {head: count / total for head, count in counts.items()}


# The text memos.  Each maps a text to a pure function of it, so a
# stale entry cannot exist; each is bounded and evicts its oldest
# entry when full, and a racing thread can only compute an entry
# twice.  The bounds cover one project's statements and paragraphs,
# one file's run of contexts, and the goal and hypothesis texts of a
# few searches.
_VIEWS = BoundedCache("prompt_lemmas", 4_096)
_PARAGRAPHS = BoundedCache("prompt_paragraphs", 4_096)
_CONTEXTS = BoundedCache("prompt_contexts", 64)
_TERMS = BoundedCache("prompt_terms", 1_024)


def _lemma_view(
    name: str, statement: str, proof: Optional[str] = None
) -> LemmaView:
    """The one view of lemma ``name`` stating ``statement`` (showing
    ``proof``)."""
    key = (name, statement, proof)
    view = _VIEWS.get(key)
    if view is None:
        conclusion = _conclusion_of(statement)
        head, is_eq = _head_of(conclusion)
        view = LemmaView(
            name, statement, conclusion, head, is_eq,
            proof=proof, binders=_binder_names(statement),
        )
        _VIEWS.put(key, view)
    return view


class _Paragraph(NamedTuple):
    """What one context paragraph declares, in text order."""

    lemmas: Tuple[LemmaView, ...]
    rules: Tuple[LemmaView, ...]  # an inductive's introduction rules
    definitions: Tuple[str, ...]
    fixpoints: Tuple[str, ...]
    inductive_preds: Tuple[str, ...]


def _parse_paragraph(text: str) -> _Paragraph:
    """Read one paragraph of a context (a declaration or file header).

    No regular expression here matches across a blank line in the
    contexts :func:`repro.prompting.context.context_for` builds, so a
    context's parse is its paragraphs' parses put together
    (``tests/llm/test_context_parse.py`` holds the whole-text reading
    as the reference).
    """
    parsed = _PARAGRAPHS.get(text)
    if parsed is not None:
        return parsed
    lemmas = []
    for match in _LEMMA_RE.finditer(text):
        name, statement = match.group(1), " ".join(match.group(2).split())
        if statement.endswith("Proof. (* ... *) Qed") or "Proof" in statement:
            statement = statement.split(".")[0]
        lemmas.append(_lemma_view(name, statement))
    rules = [
        _lemma_view(match.group(1), " ".join(match.group(2).split()))
        for match in _RULE_RE.finditer(text)
    ]
    parsed = _Paragraph(
        tuple(lemmas),
        tuple(rules),
        tuple(_DEFINITION_RE.findall(text)),
        tuple(_FIXPOINT_RE.findall(text)),
        tuple(
            match.group(1)
            for match in _INDUCTIVE_RE.finditer(text)
            if "Prop" in match.group(2)
        ),
    )
    _PARAGRAPHS.put(text, parsed)
    return parsed


class _Context(NamedTuple):
    lemmas: Dict[str, LemmaView]
    definitions: List[str]
    fixpoints: List[str]
    inductive_preds: Set[str]
    hinted: List[LemmaView]
    head_priors: Dict[str, float]


def _parse_context(context: str) -> _Context:
    """Parse the (per-theorem constant) context block, memoized.

    The search queries the model up to 128 times per theorem with the
    same context prefix; caching its parse keeps query latency low
    without changing what the model can see.  The cache is keyed by the
    context text itself, so two contexts never share a parse.
    """
    cached = _CONTEXTS.get(context)
    if cached is not None:
        return cached
    paragraphs = [_parse_paragraph(text) for text in context.split("\n\n")]
    lemmas: Dict[str, LemmaView] = {}
    for paragraph in paragraphs:
        for lemma in paragraph.lemmas:
            lemmas[lemma.name] = lemma
    # Every hint proof contains this literal.  Without one, the lazy
    # ``.*?`` from each ``Lemma`` would scan to the end of the context.
    # This reading stays whole-text: a hidden proof (``Proof. (* ...
    # *) Qed.``) does not end a match, so a shown proof is credited to
    # the hidden-proof lemma above it (pinned in tests/llm).
    if _PROOF_MARK in context:
        for match in _PROOF_RE.finditer(context):
            name, body = match.group(1), match.group(2).strip()
            if name in lemmas and "(* ... *)" not in body:
                lemmas[name] = _lemma_view(name, lemmas[name].statement, body)
    for paragraph in paragraphs:
        for lemma in paragraph.rules:
            if lemma.name not in lemmas:
                lemmas[lemma.name] = lemma
    hinted = [lemma for lemma in lemmas.values() if lemma.proof]
    result = _Context(
        lemmas,
        [name for paragraph in paragraphs for name in paragraph.definitions],
        [name for paragraph in paragraphs for name in paragraph.fixpoints],
        {name for paragraph in paragraphs for name in paragraph.inductive_preds},
        hinted,
        head_priors(hinted),
    )
    _CONTEXTS.put(context, result)
    return result


def _read_term(text: str) -> Optional[Term]:
    """``parse_term(text)``, or None when the text does not parse."""
    term = _TERMS.get(text)
    if term is None:
        try:
            term = parse_term(text)
        except ParseError:
            term = False
        _TERMS.put(text, term)
    return term if term is not False else None


def parse_prompt(prompt: str) -> PromptView:
    """Structure the prompt the way an attentive model would."""
    view = PromptView()

    theorem_pos = prompt.rfind(THEOREM_HEADER)
    goal_pos = prompt.rfind(GOAL_HEADER)
    context = prompt[: theorem_pos if theorem_pos >= 0 else len(prompt)]

    # Shared, read-only after caching.
    (
        view.lemmas,
        view.definitions,
        view.fixpoints,
        view.inductive_preds,
        view.hinted,
        view.head_priors,
    ) = _parse_context(context)

    # Current theorem + steps so far.
    if theorem_pos >= 0:
        tail = prompt[theorem_pos:goal_pos if goal_pos >= 0 else len(prompt)]
        view.failed_tactics = _FAILED_TACTIC_RE.findall(tail)
        m = re.search(r"Lemma\s+(\w+)\s*:\s*(.*?)\.\nProof\.", tail, re.DOTALL)
        if m:
            view.theorem_name = m.group(1)
            view.theorem_statement = " ".join(m.group(2).split())
        for line in tail.splitlines():
            line = line.strip()
            if line.endswith(".") and not line.startswith(
                ("Lemma", "Proof", "(*")
            ):
                view.steps.append(line[:-1])

    # Goal display.
    if goal_pos >= 0:
        goal_block = prompt[goal_pos + len(GOAL_HEADER) :]
        m = re.search(r"goal 1 of (\d+):", goal_block)
        if m:
            view.num_goals = int(m.group(1))
        lines = goal_block.splitlines()
        concl_lines: List[str] = []
        seen_bar = False
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("==="):
                seen_bar = True
                continue
            if stripped.startswith("goal "):
                if seen_bar:
                    break  # next goal's display: stop
                continue
            if stripped.startswith("(*"):
                if seen_bar:
                    break
                continue
            if not seen_bar:
                if " : " in stripped:
                    name, _, text = stripped.partition(" : ")
                    tokens = idents(text)
                    is_var = bool(tokens) and tokens <= _TYPEISH
                    term = None if is_var else _read_term(text)
                    view.hyps.append(HypView(name.strip(), text, is_var, term))
            else:
                concl_lines.append(stripped)
        view.goal_text = " ".join(concl_lines).strip()
        if view.goal_text == "No more goals.":
            view.goal_text = ""
        if view.goal_text:
            view.goal_term = _read_term(view.goal_text)
    return view
