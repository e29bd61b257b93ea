"""Environments and the scoping predicates over them."""

import copy
import gc
import pickle
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from fsub import judgments
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
from fsub.metatheory import derive_weaken, split_env
from fsub.parser import parse_env, parse_type
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

    def test_what_is_not_an_environment_is_a_type_error(self):
        for g, delta, bad in ((X_TOP_Y_X, None, None), (X_TOP_Y_X, "Z <: Top", "'Z <: Top'"), (None, EMPTY_ENV, None)):
            with pytest.raises(TypeError, match=f"^not an environment: {bad}$"):
                env_concat(g, delta)


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
        for name, value in (("bindings", ()), ("_scope", {})):
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


# Bindings added one at a time on top of an environment: names that shadow,
# that are not variable names, and that fill the `X<n>` sequence.
LINKS = st.lists(st.tuples(BINDING_NAMES, st.one_of(st.just(Top()), SCOPE_TYPES)), min_size=1, max_size=6)


def assert_answers_match_linear_scans(g, x, s, t):
    assert ok(g) == reference.ok(g)
    assert lookup(g, x) is reference.lookup(g, x)
    assert gfresh(g, x) == reference.gfresh(g, x)
    assert closed(s, g) == reference.closed(s, g)
    assert fresh_for_env(g) == reference.fresh_for_env(g)
    assert witness_for(g, s, t) == reference.witness_for(g, s, t)


class TestScopeTable:
    """Each environment answers scope questions from a table, kept in its
    slots; the answers are those of the linear scans in `reference_scope`."""

    @given(ANY_ENVS, SCOPE_NAMES, SCOPE_TYPES, SCOPE_TYPES)
    def test_answers_match_linear_scans(self, g, x, s, t):
        # The second round reads what the first one cached.
        for _ in range(2):
            assert_answers_match_linear_scans(g, x, s, t)

    @given(ANY_ENVS, LINKS, SCOPE_NAMES, SCOPE_TYPES, SCOPE_TYPES)
    def test_extensions_of_an_asked_environment_match_linear_scans(self, g, links, x, s, t):
        # Every link extends an environment that has already answered, so a
        # table built from its parent's is asked, and then extended in turn.
        assert_answers_match_linear_scans(g, x, s, t)
        for name, bound in links:
            g = g.extend(name, bound)
            assert_answers_match_linear_scans(g, x, s, t)


@pytest.fixture()
def steps(monkeypatch):
    """The names declared by every call of the per-binding scope step."""
    names = []
    declare = judgments._Scope.declare

    def counting(table, cell):
        names.append(cell.name)
        declare(table, cell)

    monkeypatch.setattr(judgments._Scope, "declare", counting)
    return names


class TestInheritedScope:
    """A question about the child of an environment that has answered a
    scope question builds the child's table from its parent's with one scope
    step, and `extend` itself moves nothing."""

    def test_extension_of_an_asked_environment_takes_one_step(self, steps):
        g = Env.from_decls([("Inherit0", Top()), ("Inherit1", FreeVar("Inherit0"))])
        assert ok(g) and steps == ["Inherit0", "Inherit1"]
        child = g.extend("X0", FreeVar("Inherit1"))
        assert steps == ["Inherit0", "Inherit1"]
        assert lookup(child, "X0") is FreeVar("Inherit1")
        assert steps[2:] == ["X0"]
        assert fresh_for_env(child) == "X1"
        assert len(steps) == 3

    def test_extension_leaves_the_table_where_it_was(self):
        parent = Env.from_decls([("Stay0", Top()), ("Stay1", FreeVar("Stay0"))])
        assert lookup(parent, "Stay1") is FreeVar("Stay0") and judgments._SCOPE.at is parent
        parent.extend("Stay2", FreeVar("Stay1"))
        assert judgments._SCOPE.at is parent

    def test_a_quantifier_steps_into_its_context_once(self, monkeypatch):
        # Each quantifier's bound subgoal is asked about in the outer context
        # and its body in the extended one, so the table moves down the nest
        # once per quantifier, never back out and in again.
        moves = []
        move = judgments._Scope.move

        def counting(table, g):
            moves.append(g)
            move(table, g)

        monkeypatch.setattr(judgments._Scope, "move", counting)
        n = 200
        g = parse_env("X <: Top, Z <: X")
        lhs = parse_type("".join(f"All Y{i} <: X . " for i in range(n)) + "Top")
        rhs = parse_type("".join(f"All Y{i} <: Z . " for i in range(n)) + "Top")
        assert decide_sub(g, lhs, rhs, fuel=10 * n).derivation is not None
        assert len(moves) <= n + 1

    def test_extension_of_an_unasked_environment_scans_when_asked(self, steps):
        g = Env.from_decls([("Unasked0", Top())]).extend("Unasked1", Top())
        assert steps == []
        assert ok(g) and steps == ["Unasked0", "Unasked1"]

    def test_nested_quantifiers_take_linear_steps(self, steps):
        # Every context of the nest extends the one outside it, so deciding,
        # checking and weakening take a bounded number of steps per quantifier
        # (scanning each context anew took about n * n / 2).
        n = 2_000
        t = parse_type("".join(f"All Y{i} <: Top . " for i in range(n)) + "Top")
        d = decide_sub(EMPTY_ENV, t, t, fuel=2 * n + 1).derivation
        assert check_derivation(d)
        assert check_derivation(derive_weaken(d, parse_env("W <: Top")))
        assert n <= len(steps) <= 4 * n


# Binding lists with duplicate names, names that are not variable names and
# bounds that mention undeclared names, so that many are not ok.
CHAINS = st.lists(st.tuples(BINDING_NAMES, st.one_of(st.just(Top()), SCOPE_TYPES)), max_size=8)


def cells(g):
    """`g` and every environment it extends, newest first, ending at the root."""
    out = [g]
    while g is not EMPTY_ENV:
        g = g.parent
        out.append(g)
    return out


class TestCells:
    """An environment is a chain of interned cells (parent, name, bound): every
    way of building the same bindings gives the same object, and every cell
    answers scope questions as the linear scans do, in any order of asking."""

    @given(CHAINS, st.integers(0, 8))
    def test_every_construction_gives_the_one_cell(self, decls, cut):
        g = Env.from_decls(decls)
        newest_first = tuple(reversed(decls))
        assert g.bindings == newest_first and g.decls() == tuple(decls) and len(g) == len(decls)
        assert Env(newest_first) is g
        chained = EMPTY_ENV
        for name, bound in decls:
            chained = chained.extend(name, bound)
        assert chained is g
        cut = min(cut, len(decls))
        assert env_concat(Env.from_decls(decls[:cut]), Env.from_decls(decls[cut:])) is g
        for name, _ in decls:
            split = split_env(g, name)
            assert split.assemble() is g
            # The split is at the newest binding of the name.
            i = max(j for j, (other, _) in enumerate(decls) if other == name)
            assert split.prefix is Env.from_decls(decls[:i]) and split.suffix is Env.from_decls(decls[i + 1 :])
        assert [(cell.name, cell.bound) for cell in cells(g)[:-1]] == list(newest_first)
        assert copy.copy(g) is g and copy.deepcopy(g) is g and pickle.loads(pickle.dumps(g)) is g
        assert repr(g) == f"Env(bindings={newest_first!r})"

    @given(CHAINS, CHAINS, st.integers(0, 8), st.data())
    def test_every_cell_answers_as_the_linear_scans(self, first, second, shared, data):
        # Two chains that share their `shared` oldest bindings, asked about in
        # an order hypothesis draws, so that the table moves up, down and
        # across between them.
        a = Env.from_decls(first)
        b = Env.from_decls(first[: min(shared, len(first))] + second)
        everywhere = cells(a) + cells(b)
        for i in data.draw(st.lists(st.sampled_from(range(len(everywhere))), max_size=24)):
            x, s, t = data.draw(SCOPE_NAMES), data.draw(SCOPE_TYPES), data.draw(SCOPE_TYPES)
            assert_answers_match_linear_scans(everywhere[i], x, s, t)

    def test_a_binding_is_a_name_and_a_type(self):
        with pytest.raises(TypeError):
            EMPTY_ENV.extend("X", "Top")
        with pytest.raises(TypeError):
            Env.from_decls([(0, Top())])

    def test_an_interrupted_move_leaves_the_answers_right(self, monkeypatch):
        # The move from the cell of Halt0 to g is interrupted after it has
        # applied Halt1, so the table holds a binding its cell does not have.
        g = Env.from_decls([("Halt0", Top()), ("Halt1", FreeVar("Halt0")), ("Halt2", Top())])
        start = g.parent.parent
        assert ok(start)
        declare = judgments._Scope.declare

        def interrupted(table, cell):
            if cell.name == "Halt2":
                raise KeyboardInterrupt
            declare(table, cell)

        monkeypatch.setattr(judgments._Scope, "declare", interrupted)
        with pytest.raises(KeyboardInterrupt):
            lookup(g, "Halt0")
        monkeypatch.undo()
        for env in [start] + cells(g) + cells(X_TOP_Y_X):
            assert_answers_match_linear_scans(env, "Halt1", FreeVar("Halt0"), FreeVar("Y"))

    def test_nested_quantifiers_take_linear_memory(self):
        # Deciding, checking and weakening the n-quantifier nest: one cell per
        # context, and no context keeps a table of its own (its traced peak
        # grew from 37 MB at n = 1,000 to 144 MB at n = 2,000 when each did).
        def peak(n):
            t = parse_type("".join(f"All Y{i} <: Top . " for i in range(n)) + "Top")
            gc.collect()
            tracemalloc.start()
            try:
                d = decide_sub(EMPTY_ENV, t, t, fuel=2 * n + 1).derivation
                assert check_derivation(d)
                assert check_derivation(derive_weaken(d, parse_env("W <: Top")))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2_000) - peak(1_000) < 10 * 2**20
