"""Environments and the scoping predicates over them."""

import gc
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given

from fsub.judgments import (
    EMPTY_ENV,
    Env,
    closed,
    dom,
    env_concat,
    fresh_for_env,
    gfresh,
    lookup,
    ok,
)
from fsub.parser import parse_env
from fsub.syntax import Arrow, BoundIdx, Forall, FreeVar, Top, fv
from strategies import envs_with_closed_ty, ok_envs

X_TOP_Y_X = Env.from_decls([("X", Top()), ("Y", FreeVar("X"))])


class TestDom:
    def test_empty(self):
        assert dom(EMPTY_ENV) == []

    def test_declaration_order(self):
        assert dom(X_TOP_Y_X) == ["X", "Y"]

    def test_duplicates_preserved(self):
        g = Env.from_decls([("X", Top()), ("X", Top())])
        assert dom(g) == ["X", "X"]


class TestLookup:
    def test_absent(self):
        assert lookup(EMPTY_ENV, "X") is None

    def test_present(self):
        assert lookup(X_TOP_Y_X, "Y") == FreeVar("X")
        assert lookup(X_TOP_Y_X, "X") == Top()

    def test_most_recent_wins(self):
        g = Env.from_decls([("X", Top()), ("X", Arrow(Top(), Top()))])
        assert lookup(g, "X") == Arrow(Top(), Top())


class TestGfresh:
    def test_empty(self):
        assert gfresh(EMPTY_ENV, "X")

    def test_declared(self):
        assert not gfresh(Env.from_decls([("X", Top())]), "X")

    @given(ok_envs())
    def test_fresh_for_env_is_gfresh(self, g):
        assert gfresh(g, fresh_for_env(g))


class TestClosed:
    def test_top_everywhere(self):
        assert closed(Top(), EMPTY_ENV)

    def test_undeclared_variable(self):
        assert not closed(FreeVar("Y"), Env.from_decls([("X", Top())]))

    def test_under_binder(self):
        # All Z <: X . Z -> Y
        t = Forall(FreeVar("X"), Arrow(BoundIdx(0), FreeVar("Y")))
        assert closed(t, X_TOP_Y_X)
        assert fv(t) <= set(dom(X_TOP_Y_X))

    @given(envs_with_closed_ty())
    def test_closed_monotone_under_extension(self, pair):
        g, t = pair
        wider = g.extend(fresh_for_env(g), Top())
        assert closed(t, g)
        assert closed(t, wider)


class TestOk:
    def test_empty(self):
        assert ok(EMPTY_ENV)

    def test_dependent_chain(self):
        assert ok(X_TOP_Y_X)

    def test_unbound_bound(self):
        assert not ok(Env.from_decls([("X", FreeVar("Y"))]))

    def test_duplicate_name(self):
        assert not ok(Env.from_decls([("X", Top()), ("X", Top())]))

    def test_forward_reference(self):
        # Y's bound mentions Z, declared only later.
        g = Env.from_decls([("Y", FreeVar("Z")), ("Z", Top())])
        assert not ok(g)

    @given(ok_envs())
    def test_generated_envs_are_ok(self, g):
        assert ok(g)


class TestFreshForEnv:
    def test_empty(self):
        assert fresh_for_env(EMPTY_ENV) == "X0"

    def test_avoids_declared(self):
        g = Env.from_decls([("X0", Top())])
        assert fresh_for_env(g) != "X0"

    def test_avoids_bound_variables_too(self):
        g = Env.from_decls([("X0", Top()), ("A", FreeVar("X0"))])
        assert fresh_for_env(g) not in {"X0", "A"}


class TestConcat:
    def test_order(self):
        delta = Env.from_decls([("Z", Top())])
        combined = env_concat(X_TOP_Y_X, delta)
        assert dom(combined) == ["X", "Y", "Z"]
        assert len(combined) == 3

    def test_identity(self):
        assert env_concat(X_TOP_Y_X, EMPTY_ENV) == X_TOP_Y_X
        assert env_concat(EMPTY_ENV, X_TOP_Y_X) == X_TOP_Y_X


class TestInterning:
    """Environments are hash-consed like types: equal bindings give one object."""

    def test_equal_construction_is_identical(self):
        decls = [("X", Top()), ("Y", Arrow(FreeVar("X"), Top()))]
        g = Env.from_decls(decls)
        assert Env.from_decls(list(decls)) is g
        assert Env(tuple(reversed(decls))) is g
        assert parse_env("X <: Top, Y <: X -> Top") is g
        assert Env() is EMPTY_ENV
        assert EMPTY_ENV.extend("X", Top()).extend("Y", Arrow(FreeVar("X"), Top())) is g
        assert env_concat(Env.from_decls(decls[:1]), Env.from_decls(decls[1:])) is g

    def test_a_dropped_environment_is_released(self):
        g = Env.from_decls([("Dropped", Top())])
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        assert lookup(Env.from_decls([("Dropped", Top())]), "Dropped") is Top()

    def test_bindings_cannot_be_assigned(self):
        with pytest.raises(FrozenInstanceError):
            X_TOP_Y_X.bindings = ()
        assert len(X_TOP_Y_X) == 2

    def test_match_and_repr(self):
        match X_TOP_Y_X:
            case Env(((newest, _), (oldest, _))):
                assert (newest, oldest) == ("Y", "X")
            case _:
                pytest.fail("no case matched")
        assert repr(X_TOP_Y_X) == "Env(bindings=(('Y', FreeVar(name='X')), ('X', Top())))"
