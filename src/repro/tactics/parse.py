"""Parser from tactic text (one sentence, no trailing period) to AST.

This is the front door for LLM-generated tactics: the search engine
feeds each candidate string through :func:`parse_tactic`; a
:class:`~repro.errors.ParseError` counts as "rejected by Coq".

Combinator precedence matches Ltac: ``;`` binds loosest (left
associative), then ``||``, then the prefix combinators ``try`` /
``repeat``, then atomic tactics and parentheses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.kernel.cache import BoundedCache
from repro.kernel.parser import Lexer, TermParser
from repro.kernel.terms import Term
from repro.tactics import ast
from repro.tactics.base import TacticNode

__all__ = ["parse_tactic"]

_NO_ARG = {
    "assumption": ast.Assumption,
    "reflexivity": ast.Reflexivity,
    "f_equal": ast.FEqual,
    "split": ast.Split,
    "left": ast.Left,
    "right": ast.Right,
    "eexists": ast.EExists,
    "exfalso": ast.Exfalso,
    "contradiction": ast.Contradiction,
    "trivial": ast.Trivial,
    "intuition": ast.Intuition,
    "congruence": ast.Congruence,
    "idtac": ast.Idtac,
    "fail": ast.Fail,
}

_STOPPERS = {";", "||", ")", ".", "|", "]"}


class _TacticParser:
    def __init__(self, lexer: Lexer) -> None:
        self.lx = lexer

    # -- combinators ------------------------------------------------------

    def tactic(self) -> TacticNode:
        node = self.alt()
        while self.lx.accept("sym", ";"):
            node = ast.Seq(node, self.alt())
        return node

    def alt(self) -> TacticNode:
        node = self.prefixed()
        while self.lx.accept("sym", "||"):
            node = ast.OrElse(node, self.prefixed())
        return node

    def prefixed(self) -> TacticNode:
        tok = self.lx.peek()
        if tok.kind == "ident" and tok.text == "try":
            self.lx.next()
            return ast.Try(self.prefixed())
        if tok.kind == "ident" and tok.text == "repeat":
            self.lx.next()
            return ast.Repeat(self.prefixed())
        if tok.kind == "sym" and tok.text == "(":
            self.lx.next()
            inner = self.tactic()
            self.lx.expect("sym", ")")
            return inner
        return self.atomic()

    # -- atomic tactics --------------------------------------------------

    def atomic(self) -> TacticNode:
        tok = self.lx.expect("ident")
        head = tok.text
        builder = getattr(self, f"_t_{head}", None)
        if builder is not None:
            return builder()
        cls = _NO_ARG.get(head)
        if cls is not None:
            return cls()
        raise ParseError(f"unknown tactic: {head}", tok.pos)

    # Helpers ------------------------------------------------------------

    def _at_stop(self) -> bool:
        tok = self.lx.peek()
        if tok.kind == "eof":
            return True
        if tok.kind == "sym" and tok.text in _STOPPERS:
            return True
        return False

    def _name_list(self) -> Tuple[str, ...]:
        names: List[str] = []
        while self.lx.peek().kind == "ident" and self.lx.peek().text not in (
            "in",
            "by",
            "as",
            "using",
        ):
            names.append(self.lx.next().text)
        return tuple(names)

    def _comma_names(self) -> Tuple[str, ...]:
        names = [self.lx.expect("ident").text]
        while self.lx.accept("sym", ","):
            names.append(self.lx.expect("ident").text)
        return tuple(names)

    def _in_clause(self) -> Optional[str]:
        tok = self.lx.peek()
        if tok.kind == "ident" and tok.text == "in":
            self.lx.next()
            if self.lx.accept("sym", "*"):
                return "*"
            return self.lx.expect("ident").text
        return None

    def _term(self) -> Term:
        return TermParser(self.lx, set()).term()

    def _term_atom(self) -> Term:
        parser = TermParser(self.lx, set())
        return parser._atom()  # shares our lexer position

    # Individual tactics ---------------------------------------------------

    def _t_intro(self) -> TacticNode:
        if self._at_stop():
            return ast.Intro()
        return ast.Intro(self.lx.expect("ident").text)

    def _t_intros(self) -> TacticNode:
        return ast.Intros(self._name_list())

    def _t_apply(self, existential: bool = False) -> TacticNode:
        name = self.lx.expect("ident").text
        in_hyp = self._in_clause()
        return ast.Apply(name, existential=existential, in_hyp=in_hyp)

    def _t_eapply(self) -> TacticNode:
        return self._t_apply(existential=True)

    def _t_exact(self) -> TacticNode:
        return ast.Exact(self.lx.expect("ident").text)

    def _t_symmetry(self) -> TacticNode:
        return ast.Symmetry(self._in_clause())

    def _t_rewrite(self, setoid: bool = False) -> TacticNode:
        sources = [self._rewrite_source()]
        while self.lx.accept("sym", ","):
            sources.append(self._rewrite_source())
        in_hyp = self._in_clause()
        by_tac: Optional[TacticNode] = None
        tok = self.lx.peek()
        if tok.kind == "ident" and tok.text == "by":
            self.lx.next()
            by_tac = self.prefixed()
        return ast.Rewrite(tuple(sources), in_hyp=in_hyp, by_tac=by_tac, setoid=setoid)

    def _t_setoid_rewrite(self) -> TacticNode:
        return self._t_rewrite(setoid=True)

    def _rewrite_source(self) -> ast.RewriteSource:
        backwards = False
        if self.lx.accept("sym", "<"):
            self.lx.expect("sym", "-")
            backwards = True
        elif self.lx.peek().kind == "sym" and self.lx.peek().text == "<-":
            # '<-' never survives the lexer (no such symbol); kept for safety.
            self.lx.next()
            backwards = True
        name = self.lx.expect("ident").text
        return ast.RewriteSource(name, backwards)

    def _t_simpl(self) -> TacticNode:
        return ast.Simpl(self._in_clause())

    def _t_unfold(self) -> TacticNode:
        names = self._comma_names()
        return ast.Unfold(names, self._in_clause())

    def _t_fold(self) -> TacticNode:
        return ast.Fold(self._comma_names())

    def _t_induction(self) -> TacticNode:
        return ast.Induction(self.lx.expect("ident").text)

    def _t_destruct(self) -> TacticNode:
        tok = self.lx.peek()
        raw_term: Optional[Term] = None
        if tok.kind == "sym" and tok.text == "(":
            self.lx.next()
            raw_term = self._term()
            self.lx.expect("sym", ")")
            target = ""
        else:
            target = self.lx.expect("ident").text
        pattern = None
        nxt = self.lx.peek()
        if nxt.kind == "ident" and nxt.text == "as":
            self.lx.next()
            pattern = self._intro_pattern()
        eqn = None
        nxt = self.lx.peek()
        if nxt.kind == "ident" and nxt.text == "eqn":
            self.lx.next()
            self.lx.expect("sym", ":")
            eqn = self.lx.expect("ident").text
        return ast.Destruct(target, raw_term=raw_term, pattern=pattern, eqn=eqn)

    def _intro_pattern(self) -> str:
        """Capture a bracketed intro pattern as raw text."""
        tok = self.lx.expect("sym", "[")
        depth = 1
        parts = ["["]
        while depth:
            tok = self.lx.next()
            if tok.kind == "eof":
                raise ParseError("unterminated intro pattern", tok.pos)
            if tok.kind == "sym" and tok.text == "[":
                depth += 1
            elif tok.kind == "sym" and tok.text == "]":
                depth -= 1
            parts.append(tok.text)
        return " ".join(parts).replace("[ ", "[").replace(" ]", "]")

    def _t_inversion(self) -> TacticNode:
        return ast.Inversion(self.lx.expect("ident").text)

    def _t_inversion_clear(self) -> TacticNode:
        return ast.Inversion(self.lx.expect("ident").text)

    def _t_constructor(self) -> TacticNode:
        return ast.Constructor()

    def _t_econstructor(self) -> TacticNode:
        return ast.Constructor(existential=True)

    def _t_exists(self) -> TacticNode:
        return ast.ExistsTac(self._term())

    def _t_subst(self) -> TacticNode:
        return ast.Subst(self._name_list())

    def _t_discriminate(self) -> TacticNode:
        if self._at_stop():
            return ast.Discriminate()
        return ast.Discriminate(self.lx.expect("ident").text)

    def _t_injection(self) -> TacticNode:
        hyp = self.lx.expect("ident").text
        as_names: Tuple[str, ...] = ()
        tok = self.lx.peek()
        if tok.kind == "ident" and tok.text == "as":
            self.lx.next()
            as_names = self._name_list()
        return ast.Injection(hyp, as_names)

    def _t_specialize(self) -> TacticNode:
        self.lx.expect("sym", "(")
        hyp = self.lx.expect("ident").text
        args: List[Term] = []
        while not (self.lx.peek().kind == "sym" and self.lx.peek().text == ")"):
            args.append(self._term_atom())
        self.lx.expect("sym", ")")
        if not args:
            raise ParseError("specialize needs at least one argument", 0)
        return ast.Specialize(hyp, tuple(args))

    def _t_pose(self) -> TacticNode:
        tok = self.lx.expect("ident")
        if tok.text != "proof":
            raise ParseError("expected 'pose proof'", tok.pos)
        args: Tuple[Term, ...] = ()
        if self.lx.accept("sym", "("):
            name = self.lx.expect("ident").text
            arg_list: List[Term] = []
            while not (self.lx.peek().kind == "sym" and self.lx.peek().text == ")"):
                arg_list.append(self._term_atom())
            self.lx.expect("sym", ")")
            args = tuple(arg_list)
        else:
            name = self.lx.expect("ident").text
        as_name = None
        nxt = self.lx.peek()
        if nxt.kind == "ident" and nxt.text == "as":
            self.lx.next()
            as_name = self.lx.expect("ident").text
        return ast.PoseProof(name, args, as_name)

    def _t_assert(self) -> TacticNode:
        self.lx.expect("sym", "(")
        name: Optional[str] = None
        tok = self.lx.peek()
        nxt = self.lx.peek(1)
        if tok.kind == "ident" and nxt.kind == "sym" and nxt.text == ":":
            name = self.lx.next().text
            self.lx.next()  # ':'
        prop = self._term()
        self.lx.expect("sym", ")")
        tok = self.lx.peek()
        if tok.kind == "ident" and tok.text == "as":
            self.lx.next()
            name = self.lx.expect("ident").text
        return ast.Assert(prop, name)

    def _t_revert(self) -> TacticNode:
        names = self._name_list()
        if not names:
            raise ParseError("revert needs names", 0)
        return ast.Revert(names)

    def _t_clear(self) -> TacticNode:
        names = self._name_list()
        if not names:
            raise ParseError("clear needs names", 0)
        return ast.Clear(names)

    def _t_auto(self, existential: bool = False) -> TacticNode:
        depth: Optional[int] = None
        tok = self.lx.peek()
        if tok.kind == "num":
            depth = int(self.lx.next().text)
        using: Tuple[str, ...] = ()
        tok = self.lx.peek()
        if tok.kind == "ident" and tok.text == "using":
            self.lx.next()
            using = self._comma_names()
        return ast.Auto(depth=depth, existential=existential, using=using)

    def _t_eauto(self) -> TacticNode:
        return self._t_auto(existential=True)

    def _t_lia(self) -> TacticNode:
        return ast.Lia()

    def _t_omega(self) -> TacticNode:
        return ast.Lia(legacy_name=True)


# Each tactic text parsed so far: its frozen node, or the (message,
# position) of its ParseError.  A search checks the same few candidate
# texts at many states, and the parse is a pure function of the text.
_PARSED = BoundedCache("tactic_parse", 4_096, register=False)


def parse_tactic(text: str) -> TacticNode:
    """Parse one tactic sentence (without its trailing period).

    Memoized by the text; a text that failed raises an equal
    :class:`~repro.errors.ParseError` (same message and position)."""
    parsed = _PARSED.get(text)
    if parsed is None:
        try:
            parsed = _parse_tactic(text)
        except ParseError as exc:
            parsed = (str(exc), exc.position)
        _PARSED.put(text, parsed)
    if isinstance(parsed, tuple):
        raise ParseError(*parsed)
    return parsed


def _parse_tactic(text: str) -> TacticNode:
    text = text.strip()
    if text.endswith("."):
        text = text[:-1]
    lexer = Lexer(text)
    parser = _TacticParser(lexer)
    node = parser.tactic()
    if not lexer.at_eof():
        tok = lexer.peek()
        raise ParseError(f"trailing input in tactic: {tok.text!r}", tok.pos)
    return node
