"""``whnf``'s shortcut for terms that cannot reduce is exact.

A term whose head is neither a ``fun`` applied to arguments, nor a
fixpoint constant, nor an abbreviation applied to at least its
parameters cannot take a weak-head step.  ``whnf`` returns such a term
after the one ``budget.spend()`` that ``_whnf`` makes on it, without a
memo probe, and the unifier's reducer returns it without building a
budget.  These tests hold the shortcut to ``_whnf`` with the kernel
caches off: on every term that replaying human proofs asks to reduce,
and on random terms over the corpus's fixpoints and abbreviations.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.kernel import cache, reduction
from repro.kernel.reduction import Budget, make_whnf, whnf
from repro.kernel.terms import (
    TRUE,
    App,
    Const,
    Eq,
    Forall,
    Impl,
    Lam,
    Meta,
    Var,
    app,
)
from repro.serapi import ProofChecker
from repro.tactics.script import script_tactics

_REPLAYED = (
    "in_app_or",
    "incl_app",
    "NoDup_app_l",
    "firstn_oob",
    "beq_nat_true",
    "mult_n_Sm",
    "sep_star_assoc_swap",
    "hoare_write_read",
)

# Probed at every step of the replays: they reach the unifier's
# reducer, ``apply``'s unfolding and ``auto``'s conversion checks.
_PROBES = ("auto", "eauto", "apply le_trans", "apply in_or_app", "apply H")

# 0 is an exhausted budget, 1 runs out after the first step.
_BUDGETS = (0, 1, 7, 2_000)


def _assert_agrees(env, term):
    """``whnf`` equals ``_whnf`` with the caches off, steps included; on
    a stuck term it returns the term itself, and so does the reducer."""
    stuck = reduction._stuck(env, term)
    for size in _BUDGETS:
        fast, slow = Budget(size), Budget(size)
        got = whnf(env, term, fast)
        with cache.disabled():
            want = reduction._whnf(env, term, slow)
        assert got == want, (str(term), size)
        assert fast.remaining == slow.remaining, (str(term), size)
        if stuck:
            assert got is term and want is term
            assert fast._until_check == slow._until_check
    if stuck:
        assert make_whnf(env)(term) is term
    else:
        assert make_whnf(env)(term) == whnf(env, term, Budget(2_000))
    return stuck


class TestReplayedTerms:
    def test_every_reduced_term(self, project, monkeypatch):
        real = reduction._stuck
        seen = {}

        def recording(env, term):
            seen.setdefault((id(env), term), (env, term))
            return real(env, term)

        monkeypatch.setattr(reduction, "_stuck", recording)
        for name in _REPLAYED:
            theorem = project.theorem(name)
            checker = ProofChecker(project.env_for(theorem))
            state = checker.start(theorem.statement)
            for tactic in script_tactics(theorem.proof_text):
                for probe in _PROBES:
                    checker.check(state, probe)
                result = checker.check(state, tactic)
                assert result.ok, (name, tactic, result.message)
                state = result.state
            assert state.is_complete(), name
        monkeypatch.setattr(reduction, "_stuck", real)

        stuck = sum(_assert_agrees(env, term) for env, term in seen.values())
        # Both sides of the shortcut are exercised.
        assert stuck > 100
        assert len(seen) - stuck > 100


_CONSTS = ("O", "S", "nil", "cons", "add", "app", "length", "incl", "lt")

_leaves = st.one_of(
    st.sampled_from(("x", "y", "n")).map(Var),
    st.sampled_from(_CONSTS).map(Const),
    st.integers(min_value=0, max_value=2).map(Meta),
    st.just(TRUE),
)


def _extend(children):
    return st.one_of(
        st.tuples(children, st.lists(children, min_size=1, max_size=3)).map(
            lambda p: app(p[0], *p[1])
        ),
        st.tuples(st.sampled_from(("x", "y")), children).map(
            lambda p: Lam(p[0], None, p[1])
        ),
        st.tuples(st.sampled_from(("x", "y")), children).map(
            lambda p: Forall(p[0], None, p[1])
        ),
        st.tuples(children, children).map(lambda p: Impl(*p)),
        st.tuples(children, children).map(lambda p: Eq(None, *p)),
    )


_terms = st.recursive(_leaves, _extend, max_leaves=10)


class TestRandomTerms:
    @settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_terms)
    def test_agrees_with_whnf_uncached(self, env, term):
        _assert_agrees(env, term)

    def test_stuck_classes(self, env):
        n = Var("n")
        fun = Lam("x", None, Var("x"))
        assert "add" in env.fixpoints
        assert len(env.abbreviations["incl"].params) == 2
        assert reduction._stuck(env, App(Const("S"), (n,)))
        assert reduction._stuck(env, fun)
        assert reduction._stuck(env, App(n, (n,)))
        assert reduction._stuck(env, App(Const("incl"), (n,)))
        assert not reduction._stuck(env, App(fun, (n,)))
        assert not reduction._stuck(env, Const("add"))
        assert not reduction._stuck(env, App(Const("incl"), (n, n)))
