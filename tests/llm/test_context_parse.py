"""The paragraph-memo context parse against the whole-text reading.

``promptview._parse_context`` reads a context one paragraph at a time,
each from a memo keyed by the paragraph text, and keeps only the proof
reading whole-text.  The reference below is the reading it replaced,
which ran every regular expression over the whole context.  Both must
agree on every context a sweep can show: each theorem's vanilla and
hinted context, whole and cut at a sample of keep-the-end lines.
"""

import random

import pytest

from repro.corpus.splits import make_splits
from repro.kernel.cache import BoundedCache
from repro.llm import promptview
from repro.prompting import context_for
from repro.prompting.truncation import keep_end

_MEMOS = ("_CONTEXTS", "_PARAGRAPHS", "_VIEWS")


def _whole_text(context):
    """Lemmas (in order), definitions, fixpoints and inductive
    predicates, each regular expression run over the whole context."""
    lemmas = {}
    for match in promptview._LEMMA_RE.finditer(context):
        name, statement = match.group(1), " ".join(match.group(2).split())
        if statement.endswith("Proof. (* ... *) Qed") or "Proof" in statement:
            statement = statement.split(".")[0]
        lemmas[name] = (statement, None)
    if promptview._PROOF_MARK in context:
        for match in promptview._PROOF_RE.finditer(context):
            name, body = match.group(1), match.group(2).strip()
            if name in lemmas and "(* ... *)" not in body:
                lemmas[name] = (lemmas[name][0], body)
    for match in promptview._RULE_RE.finditer(context):
        name, statement = match.group(1), " ".join(match.group(2).split())
        if name not in lemmas:
            lemmas[name] = (statement, None)
    inductive_preds = {
        match.group(1)
        for match in promptview._INDUCTIVE_RE.finditer(context)
        if "Prop" in match.group(2)
    }
    return (
        [(name, statement, proof) for name, (statement, proof) in lemmas.items()],
        promptview._DEFINITION_RE.findall(context),
        promptview._FIXPOINT_RE.findall(context),
        inductive_preds,
    )


def _paragraph_parse(context):
    parsed = promptview._parse_context(context)
    return (
        [
            (lemma.name, lemma.statement, lemma.proof)
            for lemma in parsed.lemmas.values()
        ],
        parsed.definitions,
        parsed.fixpoints,
        parsed.inductive_preds,
    )


def _contexts(project, theorem, hints, cuts):
    """The context whole, then cut ``cuts`` times as keep_end cuts a
    prompt (the context's part of it: through the blank line)."""
    text = context_for(project, theorem, hints) + "\n\n"
    yield text
    lines = text.splitlines(keepends=True)
    rng = random.Random(f"{theorem.name}/{hints is not None}")
    for keep in rng.sample(range(1, len(lines)), min(cuts, len(lines) - 1)):
        yield keep_end(lines, [1] * len(lines), keep)


@pytest.fixture()
def fresh_memos(monkeypatch):
    for name in _MEMOS:
        memo = getattr(promptview, name)
        monkeypatch.setattr(
            promptview,
            name,
            BoundedCache(memo.name, memo.capacity, register=False),
        )


def test_paragraph_parse_matches_whole_text(project, fresh_memos):
    hint_names = make_splits(project).hint_names
    compared = 0
    for theorem in project.theorems:
        for hints in (None, hint_names):
            for context in _contexts(project, theorem, hints, cuts=2):
                want = _whole_text(context)
                assert _paragraph_parse(context) == want, theorem.name
                # A memo hit answers the same.
                assert _paragraph_parse(context) == want, theorem.name
                compared += 1
    assert compared == 2 * 3 * len(project.theorems)
    # The paragraphs of one project's contexts repeat.
    stats = promptview._PARAGRAPHS.stats()
    assert stats["hits"] > 10 * stats["misses"]


def test_memos_stay_bounded(project, monkeypatch):
    for name in _MEMOS:
        memo = getattr(promptview, name)
        monkeypatch.setattr(
            promptview, name, BoundedCache(memo.name, 8, register=False)
        )
    hint_names = make_splits(project).hint_names
    for theorem in project.theorems[:40]:
        context = context_for(project, theorem, hint_names) + "\n\n"
        assert _paragraph_parse(context) == _whole_text(context)
    for name in _MEMOS:
        memo = getattr(promptview, name)
        assert len(memo.data) <= 8
        assert memo.evictions > 0
