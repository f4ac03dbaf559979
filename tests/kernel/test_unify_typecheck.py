"""Term unification and elaboration."""

import pickle

import pytest

from repro.errors import TypeError_, UnificationError
from repro.kernel.parser import parse_statement, parse_term
from repro.kernel.reduction import make_whnf
from repro.kernel.subst import alpha_eq
from repro.kernel.terms import Const, Eq, Forall, Var, app, napp, nat_lit
from repro.kernel.typecheck import elaborate_term, infer_type
from repro.kernel.types import NAT, PROP, TCon
from repro.kernel.unify import MetaStore, unify


class TestUnify:
    def test_solve_meta(self, env):
        store = MetaStore()
        m = store.fresh("x")
        unify(napp("S", m), napp("S", nat_lit(3)), store)
        assert store.resolve(m) == nat_lit(3)

    def test_rigid_clash(self, env):
        store = MetaStore()
        with pytest.raises(UnificationError):
            unify(Const("O"), napp("S", Const("O")), store)

    def test_rollback_on_failure(self, env):
        store = MetaStore()
        m = store.fresh("x")
        with pytest.raises(UnificationError):
            # First arg solves m := 0, second clashes; m must roll back.
            unify(
                napp("pair", m, Const("O")),
                napp("pair", nat_lit(0), napp("S", Const("O"))),
                store,
            )
        assert not store.is_solved(m.uid)

    def test_occurs_check(self, env):
        store = MetaStore()
        m = store.fresh("x")
        with pytest.raises(UnificationError):
            unify(m, napp("S", m), store)

    def test_binder_scope_violation(self, env):
        store = MetaStore()
        m = store.fresh("x")
        # ?m cannot capture the bound variable.
        with pytest.raises(UnificationError):
            unify(
                Forall("y", NAT, Eq(NAT, m, Var("y"))),
                Forall("z", NAT, Eq(NAT, Var("z"), Var("z"))),
                store,
            )

    def test_unify_up_to_conversion(self, env):
        store = MetaStore()
        lhs = elaborate_term(env, parse_term("1 + 1"), {})
        rhs = nat_lit(2)
        unify(lhs, rhs, store, make_whnf(env))  # succeeds via whnf

    def test_alpha_in_binders(self, env):
        store = MetaStore()
        t1 = Forall("a", NAT, Eq(NAT, Var("a"), Var("a")))
        t2 = Forall("b", NAT, Eq(NAT, Var("b"), Var("b")))
        unify(t1, t2, store)  # no exception


_CLASHES = [
    (Const("O"), napp("S", Const("O")), "cannot unify 0 with 1"),
    # The argument clash unwinds to the enclosing application's attempt.
    (
        napp("pair", nat_lit(0), Const("O")),
        napp("pair", nat_lit(0), napp("S", Const("O"))),
        "cannot unify pair 0 0 with pair 0 1",
    ),
    (
        napp("app", Var("l"), Const("nil")),
        napp("cons", Var("x"), Var("l")),
        "cannot unify l ++ nil with x :: l",
    ),
]


class TestClashMessages:
    """A clash keeps its two terms and formats them only on ``str()``."""

    @pytest.mark.parametrize("lhs, rhs, message", _CLASHES)
    def test_message_is_the_eager_format(self, env, lhs, rhs, message):
        with pytest.raises(UnificationError) as info:
            unify(lhs, rhs, MetaStore())
        exc = info.value
        assert str(exc) == message
        assert str(exc) == f"cannot unify {exc.args[0]} with {exc.args[1]}"
        assert str(pickle.loads(pickle.dumps(exc))) == message

    def test_dropped_clash_prints_no_term(self, env, monkeypatch):
        import repro.kernel.pretty as pretty

        printed = []
        original = pretty.pp_term

        def counting(term):
            printed.append(term)
            return original(term)

        monkeypatch.setattr(pretty, "pp_term", counting)
        for lhs, rhs, _ in _CLASHES:
            try:
                unify(lhs, rhs, MetaStore())
            except UnificationError:
                pass
        assert printed == []

    def test_message_errors_unchanged(self):
        exc = UnificationError("occurs check: ?3")
        assert str(exc) == "occurs check: ?3"
        assert str(pickle.loads(pickle.dumps(exc))) == "occurs check: ?3"


class TestElaboration:
    def test_resolves_constants(self, env):
        term = elaborate_term(env, parse_term("length nil"), {})
        assert term == napp("length", Const("nil"))

    def test_unknown_identifier(self, env):
        with pytest.raises(TypeError_):
            elaborate_term(env, parse_term("definitely_not_a_thing x"), {})

    def test_star_resolves_to_mult(self, env):
        term = elaborate_term(env, parse_term("2 * 3"), {})
        assert term == napp("mult", nat_lit(2), nat_lit(3))

    def test_star_resolves_to_sep_star(self, env):
        term = elaborate_term(
            env,
            parse_term("p * q"),
            {"p": TCon("pred"), "q": TCon("pred")},
        )
        assert term == napp("sep_star", Var("p"), Var("q"))

    def test_eq_type_filled(self, env):
        statement = parse_statement(env, "forall n, n + 0 = n")
        body = statement.body
        assert isinstance(body, Eq)
        assert body.ty == NAT

    def test_type_error_on_misapplication(self, env):
        with pytest.raises(TypeError_):
            elaborate_term(env, parse_term("S nil"), {})

    def test_infer_type(self, env):
        _, ty = infer_type(env, parse_term("0 :: nil"), {})
        assert ty == TCon("list", (NAT,))

    def test_statement_must_be_prop(self, env):
        with pytest.raises(TypeError_):
            parse_statement(env, "1 + 1")

    def test_polymorphic_statement(self, env):
        statement = parse_statement(
            env, "forall (T : Type) (l : list T), l ++ nil = l"
        )
        assert isinstance(statement, Forall)
