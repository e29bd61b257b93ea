"""Environments and the scoping predicates over them."""

import copy
import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

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
    witness_for,
)
from fsub.parser import parse_env
from fsub.subtyper import Derivation, No, Rule, check_derivation, decide_sub
from fsub.syntax import Arrow, BoundIdx, Forall, FreeVar, Top, close_ty, fv
from strategies import envs_with_closed_ty, ok_envs
import reference_scope as reference

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

    @pytest.mark.parametrize("name", ["Top", "All", "1x", ""])
    def test_name_that_is_not_a_variable_name(self, name):
        assert not ok(Env.from_decls([(name, Top())]))
        assert not ok(Env.from_decls([("X", Top()), (name, FreeVar("X"))]))

    def test_checker_and_decider_refuse_a_keyword_name(self):
        # Such an environment would print as `Top <: Top`, which does not
        # parse back as an environment.
        g = Env.from_decls([("Top", Top())])
        assert not check_derivation(Derivation(Rule.TOP, g, Top(), Top()))
        result = decide_sub(g, Top(), Top())
        assert isinstance(result, No)
        assert result.reason == "environment is not ok"


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
        assert ok(X_TOP_Y_X)  # fills the scope slots, which are as fixed
        for name, value in (("bindings", ()), ("_scope", {}), ("_ok", False)):
            with pytest.raises(FrozenInstanceError):
                setattr(X_TOP_Y_X, name, value)
        assert len(X_TOP_Y_X) == 2
        assert ok(X_TOP_Y_X)

    def test_copies_and_pickles_are_the_interned_environment(self):
        assert lookup(X_TOP_Y_X, "Y") is FreeVar("X")
        assert copy.copy(X_TOP_Y_X) is X_TOP_Y_X
        assert copy.deepcopy(X_TOP_Y_X) is X_TOP_Y_X
        assert pickle.loads(pickle.dumps(X_TOP_Y_X)) is X_TOP_Y_X

    def test_match_and_repr(self):
        match X_TOP_Y_X:
            case Env(((newest, _), (oldest, _))):
                assert (newest, oldest) == ("Y", "X")
            case _:
                pytest.fail("no case matched")
        assert repr(X_TOP_Y_X) == "Env(bindings=(('Y', FreeVar(name='X')), ('X', Top())))"


# Names that `fresh_for_env` and `witness_for` draw first, so that generated
# environments and types collide with their choices.
SCOPE_NAMES = st.sampled_from(("X0", "X1", "X2", "X", "Y"))
SCOPE_TYPES = st.recursive(
    st.one_of(st.just(Top()), st.builds(FreeVar, SCOPE_NAMES)),
    lambda inner: st.one_of(
        st.builds(Arrow, inner, inner),
        st.builds(lambda bound, x, body: Forall(bound, close_ty(body, x)), inner, SCOPE_NAMES, inner),
    ),
    max_leaves=6,
)
# Binding names also include two strings that are not variable names, so an
# environment that declares one is not ok.  Only bindings draw them: a type
# cannot hold them, since `FreeVar("1x")` raises.
BINDING_NAMES = st.sampled_from(("X0", "X1", "X2", "X", "Y", "1x", "Top"))
# Generated ok environments; the same with one binding `X <: Y` added, which
# may shadow a name, mention itself or mention an undeclared one; and
# arbitrary binding lists, where duplicates and forward references abound.
# Half their bounds are Top, so that a list is often ok but for one duplicate.
ANY_ENVS = st.one_of(
    ok_envs(),
    st.builds(lambda g, x, y: g.extend(x, FreeVar(y)), ok_envs(), BINDING_NAMES, SCOPE_NAMES),
    st.lists(st.tuples(BINDING_NAMES, st.one_of(st.just(Top()), SCOPE_TYPES)), max_size=6).map(Env.from_decls),
)


class TestScopeTable:
    """Each environment answers scope questions from one scan, kept in its
    slots; the answers are those of the linear scans in `reference_scope`."""

    @given(ANY_ENVS, SCOPE_NAMES, SCOPE_TYPES, SCOPE_TYPES)
    def test_answers_match_linear_scans(self, g, x, s, t):
        # The second round reads what the first one cached.
        for _ in range(2):
            assert ok(g) == reference.ok(g)
            assert lookup(g, x) is reference.lookup(g, x)
            assert gfresh(g, x) == reference.gfresh(g, x)
            assert closed(s, g) == reference.closed(s, g)
            assert fresh_for_env(g) == reference.fresh_for_env(g)
            assert witness_for(g, s, t) == reference.witness_for(g, s, t)
