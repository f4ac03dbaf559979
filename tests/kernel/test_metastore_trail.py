"""``MetaStore`` snapshots are trail marks, exact under LIFO restores.

A snapshot is ``(next_uid, len(trail))`` and a restore undoes the
solutions made since the mark.  Random last-in, first-out sequences of
``fresh``, ``solve``, ``snapshot``, ``restore`` and dropped marks run
against a reference that copies the solutions dict, as snapshots did
before the trail.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import UnificationError
from repro.kernel.terms import Const, Eq, Var
from repro.kernel.unify import MetaStore, unify

_VALUES = (Const("O"), Const("nil"), Var("x"), Var("y"))


class _CopyingStore:
    """The reference: snapshots copy the solutions dict."""

    def __init__(self) -> None:
        self.next_uid = 0
        self.solutions = {}

    def fresh(self) -> None:
        self.next_uid += 1

    def solve(self, uid, term) -> None:
        if uid in self.solutions:
            raise UnificationError(f"metavariable ?{uid} already solved")
        self.solutions[uid] = term

    def snapshot(self):
        return (self.next_uid, dict(self.solutions))

    def restore(self, snap) -> None:
        self.next_uid, self.solutions = snap[0], dict(snap[1])


_ops = st.lists(
    st.tuples(
        st.sampled_from(("fresh", "solve", "snapshot", "restore", "drop")),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=60,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ops)
def test_lifo_sequences_match_copying_reference(ops):
    store, ref = MetaStore(), _CopyingStore()
    marks = []  # (trail mark, reference copy), innermost last
    for op, n in ops:
        if op == "fresh":
            store.fresh()
            ref.fresh()
        elif op == "solve" and store.next_uid:
            uid, value = n % store.next_uid, _VALUES[n % len(_VALUES)]
            try:
                ref.solve(uid, value)
            except UnificationError:
                with pytest.raises(UnificationError):
                    store.solve(uid, value)
            else:
                store.solve(uid, value)
        elif op == "snapshot":
            marks.append((store.snapshot(), ref.snapshot()))
        elif op == "restore" and marks:
            mark, copy = marks.pop()
            store.restore(mark)
            ref.restore(copy)
        elif op == "drop" and marks:
            marks.pop()  # the block that took it succeeded
        assert store.next_uid == ref.next_uid
        assert list(store.solutions.items()) == list(ref.solutions.items())
        assert len(store.trail) == len(store.solutions)
    assert store == MetaStore(ref.next_uid, dict(ref.solutions))
    assert repr(store) == repr(MetaStore(ref.next_uid, dict(ref.solutions)))


def test_failed_unify_restores_through_the_trail():
    """``b`` is solved on the way to the clash and undone by it."""
    store = MetaStore()
    a, b = store.fresh("a"), store.fresh("b")
    unify(a, Const("O"), store)
    mark = store.snapshot()
    with pytest.raises(UnificationError):
        unify(
            Eq(None, b, Const("nil")),
            Eq(None, Const("O"), Const("O")),
            store,
        )
    assert store.snapshot() == mark
    assert store.solutions == {a.uid: Const("O")}
    assert store.trail == [a.uid]
