"""Property-based soundness suite for the kernel performance layer.

Random terms exercise the hash-consing, memoization, and fingerprint
machinery against their pristine counterparts: interning preserves
equality, fingerprints agree with the alpha-key oracle, substitution
obeys its composition law, and every memoized function returns the
same value with caches on and off.

Runs in tier-1 with a fixed seed (``derandomize=True``): failures are
reproducible and CI never flakes on an unlucky draw.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.kernel import cache
from repro.kernel.goals import Goal, ProofState, VarDecl
from repro.kernel.subst import (
    alpha_eq,
    alpha_fingerprint,
    alpha_key,
    rename_bound,
    subst_var,
    subst_vars,
)
from repro.kernel.terms import (
    FALSE,
    TRUE,
    And,
    App,
    Const,
    Eq,
    Exists,
    Forall,
    Impl,
    Lam,
    Meta,
    Or,
    Var,
    app,
    free_var_set,
    free_vars,
    intern,
    meta_set,
    metas_of,
    structural_hash,
)
from repro.kernel.types import NAT, TArrow, TVar, fresh_tvar, instantiate_scheme
from repro.kernel.unify import MetaStore

SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

NAMES = ("x", "y", "z", "w")
CONSTS = ("O", "S", "cons", "nil", "f")

_leaves = st.one_of(
    st.sampled_from(NAMES).map(Var),
    st.sampled_from(CONSTS).map(Const),
    st.just(TRUE),
    st.just(FALSE),
    st.integers(min_value=0, max_value=3).map(Meta),
)


def _extend(children):
    binder = st.tuples(st.sampled_from(NAMES), children)
    pair = st.tuples(children, children)
    return st.one_of(
        st.tuples(children, st.lists(children, min_size=1, max_size=2)).map(
            lambda p: app(p[0], *p[1])
        ),
        binder.map(lambda p: Lam(p[0], None, p[1])),
        binder.map(lambda p: Forall(p[0], None, p[1])),
        binder.map(lambda p: Exists(p[0], None, p[1])),
        pair.map(lambda p: Impl(*p)),
        pair.map(lambda p: And(*p)),
        pair.map(lambda p: Or(*p)),
        pair.map(lambda p: Eq(None, *p)),
    )


terms_st = st.recursive(_leaves, _extend, max_leaves=12)
binders_st = terms_st.filter(lambda t: isinstance(t, (Lam, Forall, Exists)))


class TestSubstitution:
    @SETTINGS
    @given(terms_st)
    def test_empty_mapping_is_identity(self, t):
        assert subst_vars(t, {}) is t

    @SETTINGS
    @given(terms_st, st.sampled_from(NAMES))
    def test_self_substitution_is_alpha_identity(self, t, x):
        assert alpha_eq(subst_var(t, x, Var(x)), t)

    @SETTINGS
    @given(terms_st, terms_st, terms_st)
    def test_composition_law(self, t, u, v):
        # t[x:=u][y:=v]  ==  t[x := u[y:=v]]  when y is not free in t
        # besides through x (the standard substitution lemma).
        x, y = "x", "y"
        if y in free_vars(t) - {x}:
            return
        lhs = subst_var(subst_var(t, x, u), y, v)
        rhs = subst_var(t, x, subst_var(u, y, v))
        assert alpha_eq(lhs, rhs)

    @SETTINGS
    @given(terms_st, terms_st)
    def test_same_result_with_caches_off(self, t, u):
        cached = subst_var(t, "x", u)
        with cache.disabled():
            pristine = subst_var(t, "x", u)
        assert cached == pristine


class TestFingerprints:
    @SETTINGS
    @given(terms_st, terms_st)
    def test_fingerprint_agrees_with_alpha_key(self, t1, t2):
        keys_equal = alpha_key(t1) == alpha_key(t2)
        fps_equal = alpha_fingerprint(t1) == alpha_fingerprint(t2)
        assert keys_equal == fps_equal

    @SETTINGS
    @given(binders_st)
    def test_alpha_stability_under_binder_rename(self, t):
        renamed = rename_bound(t, t.var, "fresh_name")
        assert alpha_key(renamed) == alpha_key(t)
        assert alpha_fingerprint(renamed) == alpha_fingerprint(t)

    @SETTINGS
    @given(terms_st)
    def test_same_value_with_caches_off(self, t):
        cached = alpha_fingerprint(t)
        with cache.disabled():
            assert alpha_fingerprint(t) == cached
        assert alpha_key(t) == alpha_key(t)  # memoized path is stable

    @SETTINGS
    @given(terms_st)
    def test_alpha_eq_iff_equal_keys(self, t):
        # Wrapping in two alpha-equivalent binders must not disturb
        # either canonical form (binder names are outside the NAMES
        # pool, so they cannot capture anything free in ``t``).
        a = Forall("b1", None, subst_var(t, "x", Var("b1")))
        b = Forall("b2", None, subst_var(t, "x", Var("b2")))
        assert alpha_eq(a, b)
        assert alpha_key(a) == alpha_key(b)
        assert alpha_fingerprint(a) == alpha_fingerprint(b)


class TestInterning:
    @SETTINGS
    @given(terms_st)
    def test_intern_preserves_equality(self, t):
        assert intern(t) == t
        assert structural_hash(intern(t)) == structural_hash(t)

    @SETTINGS
    @given(terms_st, terms_st)
    def test_intern_identity_iff_structural_equality(self, t1, t2):
        assert (intern(t1) is intern(t2)) == (t1 == t2)

    @SETTINGS
    @given(terms_st)
    def test_derived_sets_match_pristine_walk(self, t):
        assert free_var_set(t) == frozenset(free_vars(t))
        assert meta_set(t) == frozenset(metas_of(t))

    def test_intern_is_identity_when_disabled(self):
        with cache.disabled():
            t = app(Const("f"), Var("x"))
            assert intern(t) is t


class TestArena:
    """The hash-consing arena itself: ids, round-trips, scopes."""

    @SETTINGS
    @given(terms_st)
    def test_intern_extern_round_trip(self, t):
        from repro.kernel.arena import current

        arena = current()
        tid = arena.intern_id(t)
        back = arena.term_of(tid)
        assert back == t
        assert arena.intern_id(back) == tid

    @SETTINGS
    @given(terms_st, terms_st)
    def test_id_equality_iff_structural_equality(self, t1, t2):
        from repro.kernel.arena import current

        arena = current()
        assert (arena.intern_id(t1) == arena.intern_id(t2)) == (t1 == t2)

    @SETTINGS
    @given(terms_st)
    def test_derived_arrays_match_object_walk(self, t):
        from repro.kernel.arena import current

        arena = current()
        tid = arena.intern_id(t)
        assert arena.fvs_of(tid) == free_var_set(t)
        assert arena.metas_of(tid) == meta_set(t)
        assert arena.hash_of(tid) == structural_hash(t)
        assert arena.alpha_fp_of(tid) == alpha_fingerprint(t)

    @SETTINGS
    @given(terms_st)
    def test_fingerprint_stable_across_arena_epochs(self, t):
        from repro.kernel.arena import current, scope

        before = alpha_fingerprint(t)
        with scope() as arena:  # a fresh arena for one search
            assert current() is arena
            assert alpha_fingerprint(t) == before

    def test_interning_tracks_the_live_generation(self):
        from repro.kernel.arena import current, scope

        t = app(Const("f"), Var("x"), Var("y"))
        first = intern(t)
        with scope() as arena:
            second = intern(t)
            # A fresh arena: the same structure, stamped with this
            # arena's generation.
            assert second == first
            assert second.__dict__["_st"][0] == arena.generation
        assert intern(t) is first
        assert first.__dict__["_st"][0] == current().generation


class TestStateKeyTVarInvariance:
    """Regression: goal keys must not depend on the global fresh-tvar
    counter (PR 1's ``?A<n>`` load-mode sensitivity)."""

    @staticmethod
    def _make_state():
        # instantiate_scheme allocates ?A<n>/?B<n> names from the
        # global counter; a checked corpus load advances that counter
        # far beyond an unchecked load's position.
        ty = instantiate_scheme(TArrow(TVar("A"), TVar("B")))
        goal = Goal(
            (VarDecl("f", ty), VarDecl("n", NAT)),
            Eq(None, Var("n"), Var("n")),
        )
        return ProofState((goal,), MetaStore())

    def test_keys_invariant_under_counter_offsets(self):
        first = self._make_state()
        for _ in range(100):  # simulate a proof-replaying load
            fresh_tvar()
        second = self._make_state()
        assert first.key() == second.key()
        assert first.fingerprint() == second.fingerprint()

    def test_distinct_tvar_structure_still_distinguishes(self):
        shared = instantiate_scheme(TVar("A"))
        linked = Goal(
            (VarDecl("a", shared), VarDecl("b", shared)), TRUE
        )
        separate = Goal(
            (
                VarDecl("a", instantiate_scheme(TVar("A"))),
                VarDecl("b", instantiate_scheme(TVar("A"))),
            ),
            TRUE,
        )
        store = MetaStore()
        assert linked.key(store) != separate.key(store)
        assert linked.fingerprint(store) != separate.fingerprint(store)

    def test_named_signature_tvars_not_renamed(self):
        # Only inference-generated '?' variables are canonicalized;
        # source-level polymorphic names stay distinguishable.
        g1 = Goal((VarDecl("a", TVar("A")),), TRUE)
        g2 = Goal((VarDecl("a", TVar("B")),), TRUE)
        store = MetaStore()
        assert g1.key(store) != g2.key(store)
        assert g1.fingerprint(store) != g2.fingerprint(store)
