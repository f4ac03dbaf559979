"""``parse_tactic`` is memoized by text, failures included."""

import pytest

from repro.errors import ParseError
from repro.kernel.cache import BoundedCache
from repro.serapi import ProofChecker
from repro.tactics import parse as tactic_parse
from repro.tactics import parse_tactic

_GOOD = ["intros", "exists (S 0)", "simpl; auto.", "rewrite <- H in H0"]
_BAD = ["apply", "intros )", "rewrite ->", "destruct (x"]


@pytest.mark.parametrize("text", _GOOD)
def test_repeat_parse_is_the_same_node(text):
    first = parse_tactic(text)
    assert parse_tactic(text) is first
    assert first == tactic_parse._parse_tactic(text)


@pytest.mark.parametrize("text", _BAD)
def test_repeat_failure_raises_an_equal_error(text):
    with pytest.raises(ParseError) as reference:
        tactic_parse._parse_tactic(text)
    for _ in range(2):
        with pytest.raises(ParseError) as raised:
            parse_tactic(text)
        assert str(raised.value) == str(reference.value)
        assert raised.value.position == reference.value.position


def test_checker_message_is_unchanged_on_a_memo_hit(env):
    checker = ProofChecker(env)
    state = checker.start_text("forall n : nat, n = n")
    messages = [checker.check(state, "intros )").message for _ in range(2)]
    assert messages[0] == messages[1]
    assert messages[0].startswith("parse: ")


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(
        tactic_parse, "_PARSED", BoundedCache("tactic_parse", 4)
    )
    for depth in range(10):
        parse_tactic(f"auto {depth}")
    assert len(tactic_parse._PARSED.data) == 4
    assert parse_tactic("auto 9") == tactic_parse._parse_tactic("auto 9")
