"""Parsing a prompt back into a structured view.

A (simulated) model "reads" its prompt; this module is that reading.
Everything here works on the prompt *text only* — regular expressions
over the Coq-style source plus the raw term parser on the goal display
— so a model's knowledge is exactly bounded by its (possibly
truncated) context window.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ParseError
from repro.kernel.parser import parse_term
from repro.kernel.terms import Term
from repro.prompting.prompt import GOAL_HEADER, THEOREM_HEADER

__all__ = ["LemmaView", "HypView", "PromptView", "parse_prompt"]

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


@dataclass
class LemmaView:
    """A lemma/axiom statement as seen in the prompt."""

    name: str
    statement: str
    conclusion: str  # textual final conclusion
    head: str  # head symbol of the conclusion ('=', '=p=>', or ident)
    is_equation: bool
    proof: Optional[str] = None  # hint setting only
    binders: frozenset = frozenset()  # universally bound names


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

    def hinted_lemmas(self) -> List[LemmaView]:
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


def idents(text: str) -> Set[str]:
    return set(_IDENT_RE.findall(text))


# ``(conclusion, head, is_equation, binders)`` of each statement text
# read so far: the prompts of one project state the same lemmas again
# and again.  Every part is a pure function of the text, so the memo is
# exact; it is emptied when full, and a racing thread can only make it
# parse a statement again.
_STATEMENT_SHAPES: Dict[str, Tuple[str, str, bool, frozenset]] = {}
_STATEMENT_SHAPES_MAX = 4_096


def _lemma_view(name: str, statement: str) -> LemmaView:
    """A fresh view of ``statement`` (``proof`` is set per context)."""
    shape = _STATEMENT_SHAPES.get(statement)
    if shape is None:
        conclusion = _conclusion_of(statement)
        head, is_eq = _head_of(conclusion)
        shape = (conclusion, head, is_eq, _binder_names(statement))
        if len(_STATEMENT_SHAPES) >= _STATEMENT_SHAPES_MAX:
            _STATEMENT_SHAPES.clear()
        _STATEMENT_SHAPES[statement] = shape
    conclusion, head, is_eq, binders = shape
    return LemmaView(name, statement, conclusion, head, is_eq, binders=binders)


_CONTEXT_CACHE: Dict[str, tuple] = {}


def _parse_context(context: str) -> tuple:
    """Parse the (per-theorem constant) context block, memoized.

    The search queries the model up to 128 times per theorem with the
    same context prefix; caching its parse keeps query latency low
    without changing what the model can see.  The cache is keyed by the
    context text itself, so two contexts never share a parse.
    """
    cached = _CONTEXT_CACHE.get(context)
    if cached is not None:
        return cached
    lemmas: Dict[str, LemmaView] = {}
    for match in _LEMMA_RE.finditer(context):
        name, statement = match.group(1), " ".join(match.group(2).split())
        if statement.endswith("Proof. (* ... *) Qed") or "Proof" in statement:
            statement = statement.split(".")[0]
        lemmas[name] = _lemma_view(name, statement)
    # Every hint proof contains this literal.  Without one, the lazy
    # ``.*?`` from each ``Lemma`` would scan to the end of the context.
    if _PROOF_MARK in context:
        for match in _PROOF_RE.finditer(context):
            name, body = match.group(1), match.group(2).strip()
            if name in lemmas and "(* ... *)" not in body:
                lemmas[name].proof = body
    for match in _RULE_RE.finditer(context):
        name, statement = match.group(1), " ".join(match.group(2).split())
        if name not in lemmas:
            lemmas[name] = _lemma_view(name, statement)
    definitions = _DEFINITION_RE.findall(context)
    fixpoints = _FIXPOINT_RE.findall(context)
    inductive_preds = set()
    for match in _INDUCTIVE_RE.finditer(context):
        if "Prop" in match.group(2):
            inductive_preds.add(match.group(1))
    result = (lemmas, definitions, fixpoints, inductive_preds)
    if len(_CONTEXT_CACHE) > 64:
        _CONTEXT_CACHE.clear()
    _CONTEXT_CACHE[context] = result
    return result


def parse_prompt(prompt: str) -> PromptView:
    """Structure the prompt the way an attentive model would."""
    view = PromptView()

    theorem_pos = prompt.rfind(THEOREM_HEADER)
    goal_pos = prompt.rfind(GOAL_HEADER)
    context = prompt[: theorem_pos if theorem_pos >= 0 else len(prompt)]

    lemmas, definitions, fixpoints, inductive_preds = _parse_context(context)
    # Shared, read-only after caching.
    view.lemmas = lemmas
    view.definitions = definitions
    view.fixpoints = fixpoints
    view.inductive_preds = inductive_preds

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
                    term = None
                    if not is_var:
                        try:
                            term = parse_term(text)
                        except ParseError:
                            term = None
                    view.hyps.append(HypView(name.strip(), text, is_var, term))
            else:
                concl_lines.append(stripped)
        view.goal_text = " ".join(concl_lines).strip()
        if view.goal_text == "No more goals.":
            view.goal_text = ""
        if view.goal_text:
            try:
                view.goal_term = parse_term(view.goal_text)
            except ParseError:
                view.goal_term = None
    return view
