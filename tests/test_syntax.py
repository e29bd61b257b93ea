"""Representation, binding operations, and the size measure.

The named-term model in naive.py is the oracle: every structural operation
here is cross-checked against its naive counterpart on random terms.
"""

import copy
import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, strategies as st

from fsub.errors import MalformedTypeError
from fsub.parser import parse_type, print_type
from fsub.syntax import (
    Arrow,
    BoundIdx,
    Forall,
    FreeVar,
    Top,
    alpha_eq,
    close_ty,
    fresh,
    fv,
    is_locally_closed,
    nodes,
    open_ty,
    size,
    subst_var,
)
from naive import (
    NAll,
    NArr,
    NTop,
    NVar,
    named_alpha_eq,
    named_fv,
    named_size,
    named_subst,
    to_ln,
)
from strategies import named_types, var_names


class TestFreeVariables:
    def test_top_has_none(self):
        assert fv(Top()) == frozenset()

    def test_bound_occurrence_excluded(self):
        # All X <: Y . X -> Z
        t = Forall(FreeVar("Y"), Arrow(BoundIdx(0), FreeVar("Z")))
        assert fv(t) == {"Y", "Z"}

    def test_same_name_in_bound_and_body(self):
        # All X <: X' . X': the prime name is free in both positions.
        t = Forall(FreeVar("X'"), FreeVar("X'"))
        assert fv(t) == {"X'"}
        assert named_fv(NAll("X", NVar("X'"), NVar("X'"))) == {"X'"}

    @given(named_types())
    def test_agrees_with_named_model(self, t):
        assert fv(to_ln(t)) == named_fv(t)


class TestOpen:
    def test_identity_abstraction(self):
        assert open_ty(BoundIdx(0), "Y") == FreeVar("Y")

    def test_constant_abstraction(self):
        assert open_ty(Top(), "Y") == Top()

    def test_under_a_nested_binder(self):
        # body of All X <: Top . All Z <: X . Z
        body = Forall(BoundIdx(0), BoundIdx(0))
        opened = open_ty(body, "Y")
        assert opened == Forall(FreeVar("Y"), BoundIdx(0))
        named = named_subst(NAll("Z", NVar("X"), NVar("Z")), "X", "Y")
        assert to_ln(named) == opened

    def test_rejects_escaped_index(self):
        with pytest.raises(MalformedTypeError):
            open_ty(BoundIdx(1), "Y")


class TestClose:
    def test_constant(self):
        assert close_ty(Top(), "X") == Top()

    def test_single_variable(self):
        assert close_ty(FreeVar("X"), "X") == BoundIdx(0)

    def test_close_then_open_renames(self):
        t = Arrow(FreeVar("X"), FreeVar("Y"))
        assert open_ty(close_ty(t, "X"), "Z") == Arrow(FreeVar("Z"), FreeVar("Y"))

    @given(named_types(), var_names)
    def test_open_inverts_close(self, t, x):
        ln = to_ln(t)
        assert open_ty(close_ty(ln, x), x) == ln

    @given(named_types(), var_names)
    def test_close_inverts_open(self, t, x):
        ln = to_ln(NAll(x, NTop(), t))
        body = ln.body
        if x not in fv(body):
            assert close_ty(open_ty(body, x), x) == body


class TestSubst:
    def test_top(self):
        assert subst_var(Top(), "X", "Y") == Top()

    def test_both_occurrences(self):
        t = Arrow(FreeVar("X"), FreeVar("X"))
        assert subst_var(t, "X", "Y") == Arrow(FreeVar("Y"), FreeVar("Y"))

    def test_under_binder(self):
        # All Z <: X . Z -> X
        t = Forall(FreeVar("X"), Arrow(BoundIdx(0), FreeVar("X")))
        expected = Forall(FreeVar("Y"), Arrow(BoundIdx(0), FreeVar("Y")))
        assert subst_var(t, "X", "Y") == expected
        # oracle route: close at X, reopen at Y
        assert open_ty(close_ty(t, "X"), "Y") == expected

    @given(named_types(), var_names, var_names)
    def test_agrees_with_capture_avoiding_rename(self, t, old, new):
        got = subst_var(to_ln(t), old, new)
        assert got == to_ln(named_subst(t, old, new))

    def test_shared_subterms_are_renamed_once(self):
        # 64 doublings: a tree of 2**64 leaves built from 65 distinct nodes.
        t = FreeVar("X")
        for _ in range(64):
            t = Arrow(t, t)
        renamed = subst_var(t, "X", "Y")
        for _ in range(64):
            assert renamed.dom is renamed.cod
            renamed = renamed.dom
        assert renamed is FreeVar("Y")


class TestAlphaEq:
    def test_binder_names_do_not_matter(self):
        s = to_ln(NAll("X", NTop(), NVar("X")))
        t = to_ln(NAll("Y", NTop(), NVar("Y")))
        assert alpha_eq(s, t)

    def test_distinct_free_variables_differ(self):
        assert not alpha_eq(FreeVar("X"), FreeVar("Y"))

    def test_nested_binders(self):
        s = to_ln(NAll("X", NTop(), NAll("Y", NVar("X"), NVar("Y"))))
        t = to_ln(NAll("A", NTop(), NAll("B", NVar("A"), NVar("B"))))
        assert alpha_eq(s, t)

    @given(named_types(), named_types())
    def test_agrees_with_named_model(self, s, t):
        assert alpha_eq(to_ln(s), to_ln(t)) == named_alpha_eq(s, t)


class TestSize:
    def test_leaves(self):
        assert size(Top()) == 1
        assert size(Arrow(FreeVar("X"), Top())) == 3

    def test_quantifier(self):
        # All X <: Top . X -> X
        t = Forall(Top(), Arrow(BoundIdx(0), BoundIdx(0)))
        assert size(t) == 5

    @given(named_types())
    def test_agrees_with_named_model(self, t):
        assert size(to_ln(t)) == named_size(t)

    @given(named_types(), var_names, var_names)
    def test_invariant_under_opening(self, t, x, y):
        body = close_ty(to_ln(t), x)
        assert size(open_ty(body, x)) == size(open_ty(body, y))


class TestFresh:
    def test_first_name(self):
        assert fresh(()) == "X0"

    def test_skips_taken(self):
        assert fresh({"X0"}) == "X1"
        assert fresh({"X0", "X1", "X3"}) == "X2"

    @given(st.lists(named_types(), max_size=4))
    def test_avoids_free_variables(self, ts):
        avoid = frozenset().union(*(fv(to_ln(t)) for t in ts)) if ts else frozenset()
        assert fresh(avoid) not in avoid


class TestMalformed:
    def test_bad_variable_name(self):
        with pytest.raises(MalformedTypeError):
            FreeVar("3x")
        with pytest.raises(MalformedTypeError):
            FreeVar("")
        for keyword in ("Top", "All"):
            with pytest.raises(MalformedTypeError):
                FreeVar(keyword)

    def test_negative_index(self):
        with pytest.raises(MalformedTypeError):
            BoundIdx(-1)

    def test_dangling_index_is_not_locally_closed(self):
        assert not is_locally_closed(BoundIdx(0))
        assert is_locally_closed(Forall(Top(), BoundIdx(0)))
        assert not is_locally_closed(Forall(BoundIdx(0), Top()))


class TestNodes:
    def test_preorder_with_binder_depth(self):
        t = parse_type("All X <: Y . X -> Top")
        assert list(nodes(t)) == [
            (t, 0),
            (FreeVar("Y"), 0),
            (t.body, 1),
            (BoundIdx(0), 1),
            (Top(), 1),
        ]

    def test_starting_depth(self):
        assert list(nodes(BoundIdx(0), 1)) == [(BoundIdx(0), 1)]

    def test_untouched_subtrees_are_shared(self):
        t = parse_type("(A -> B) -> All X <: A . X -> C")
        assert subst_var(t, "Q", "R") is t
        renamed = subst_var(t, "C", "D")
        assert renamed.dom is t.dom
        assert renamed.cod.bound is t.cod.bound


DEPTH = 10_000


class TestDeepTypes:
    """Every walker runs on an explicit stack, so nesting depth is bounded by
    memory, not by the interpreter stack.  Types are hash-consed, so equality
    is identity at any depth; these tests also compare the printed text, which
    checks the walkers' output independently of the intern tables."""

    @pytest.fixture(scope="class")
    def arrows(self):
        text = " -> ".join(["X"] * (DEPTH + 1))
        return text, parse_type(text)

    def test_folds(self, arrows):
        text, t = arrows
        assert print_type(t) == text
        assert fv(t) == {"X"}
        assert size(t) == 2 * DEPTH + 1
        assert is_locally_closed(t)

    def test_maps(self, arrows):
        text, t = arrows
        renamed = subst_var(t, "X", "Y")
        assert print_type(renamed) == text.replace("X", "Y")
        assert subst_var(renamed, "Y", "X") is t
        body = close_ty(t, "X")
        assert not is_locally_closed(body)
        assert print_type(open_ty(body, "Z")) == text.replace("X", "Z")
        assert open_ty(body, "X") is t


class TestInterning:
    """Types are hash-consed: a constructor returns the live node with the
    same fields, so equal types are one object, whatever their depth."""

    def test_equal_construction_is_identical(self):
        assert Top() is Top()
        assert FreeVar("X") is FreeVar("X")
        assert BoundIdx(3) is BoundIdx(3)
        assert Arrow(FreeVar("X"), Top()) is Arrow(FreeVar("X"), Top())
        assert Forall(Top(), BoundIdx(0)) is Forall(Top(), BoundIdx(0))
        assert Arrow(FreeVar("X"), Top()) is not Arrow(Top(), FreeVar("X"))

    def test_parsing_the_same_text_twice(self):
        text = "All X <: Top -> Y . X -> (All Z <: X . Z) -> Y"
        assert parse_type(text) is parse_type(text)
        assert parse_type(text) is parse_type("All W <: Top -> Y . W -> (All V <: W . V) -> Y")

    @given(named_types())
    def test_alpha_equivalent_terms_are_one_object(self, n):
        t = to_ln(n)
        assert to_ln(n) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t

    def test_separately_parsed_deep_arrows(self):
        text = " -> ".join(["X"] * (DEPTH + 1))
        s, t = parse_type(text), parse_type(text)
        assert s is t
        assert s == t and not (s != t)
        assert hash(s) == hash(t)
        assert t in {s} and t in {s: None}
        assert Arrow(FreeVar("Y"), s) is Arrow(FreeVar("Y"), t)

    def test_a_dropped_type_is_released(self):
        t = Arrow(FreeVar("Dropped"), Forall(Top(), BoundIdx(0)))
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None
        again = Arrow(FreeVar("Dropped"), Forall(Top(), BoundIdx(0)))
        assert print_type(again) == "Dropped -> All X0 <: Top . X0"

    def test_fields_cannot_be_assigned(self):
        t = Arrow(FreeVar("X"), Top())
        with pytest.raises(FrozenInstanceError):
            t.dom = Top()
        with pytest.raises(FrozenInstanceError):
            del t.cod
        with pytest.raises(FrozenInstanceError):
            FreeVar("X").name = "Y"
        assert t.dom is FreeVar("X")

    def test_match_destructures(self):
        match parse_type("All X <: Y . X -> Top"):
            case Forall(FreeVar(bound), Arrow(BoundIdx(i), Top())):
                assert (bound, i) == ("Y", 0)
            case _:
                pytest.fail("no case matched")

    def test_repr_is_the_dataclass_one(self):
        t = parse_type("All X <: Y . X -> Top")
        assert repr(t) == (
            "Forall(bound=FreeVar(name='Y'), body=Arrow(dom=BoundIdx(index=0), cod=Top()))"
        )

    def test_repr_of_a_deep_type(self):
        t = parse_type(" -> ".join(["X"] * (DEPTH + 1)))
        assert repr(t) == "Arrow(dom=FreeVar(name='X'), cod=" * DEPTH + "FreeVar(name='X')" + ")" * DEPTH


def ln_types(max_index: int = 3) -> st.SearchStrategy:
    """Locally nameless types built directly, so indices may escape their
    binders at several depths: open bodies as well as closed types."""
    leaves = st.one_of(
        st.just(Top()),
        st.builds(FreeVar, var_names),
        st.builds(BoundIdx, st.integers(min_value=0, max_value=max_index)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.builds(Arrow, inner, inner), st.builds(Forall, inner, inner)),
        max_leaves=16,
    )


def walked_escape(t) -> int:
    # Binders a type needs around it: 0 if no index escapes.
    return max([0] + [node.index + 1 - d for node, d in nodes(t) if isinstance(node, BoundIdx)])


def plain_map(t, leaf, d: int = 0):
    # The map with no pruning and no memo: every leaf through `leaf(node, d)`.
    if isinstance(t, Arrow):
        return Arrow(plain_map(t.dom, leaf, d), plain_map(t.cod, leaf, d))
    if isinstance(t, Forall):
        return Forall(plain_map(t.bound, leaf, d), plain_map(t.body, leaf, d + 1))
    return leaf(t, d)


class TestCachedFacts:
    """Every node keeps its size, escape level and free names; the cached
    values agree with a walk over the tree, and the maps that prune on them
    return exactly what an unpruned map builds."""

    @given(ln_types())
    def test_facts_agree_with_a_walk(self, t):
        walked = list(nodes(t))
        assert fv(t) == frozenset(node.name for node, _ in walked if isinstance(node, FreeVar))
        assert size(t) == len(walked)
        assert t._esc == walked_escape(t)
        assert is_locally_closed(t) == all(node.index < d for node, d in walked if isinstance(node, BoundIdx))

    @given(ln_types(), var_names)
    def test_pruned_open_is_the_unpruned_map(self, body, x):
        assume(body._esc <= 1)
        expected = plain_map(body, lambda node, d: FreeVar(x) if node == BoundIdx(d) else node)
        assert open_ty(body, x) is expected

    @given(ln_types(), var_names)
    def test_open_rejects_an_index_escaping_two_binders(self, body, x):
        assume(body._esc > 1)
        with pytest.raises(MalformedTypeError):
            open_ty(body, x)

    @given(ln_types(), var_names)
    def test_pruned_close_is_the_unpruned_map(self, t, x):
        expected = plain_map(t, lambda node, d: BoundIdx(d) if node == FreeVar(x) else node)
        assert close_ty(t, x) is expected

    @given(ln_types(), var_names, var_names)
    def test_pruned_rename_is_the_unpruned_map(self, t, old, new):
        expected = plain_map(t, lambda node, d: FreeVar(new) if node == FreeVar(old) else node)
        assert subst_var(t, old, new) is expected

    def test_a_rebuilt_node_gets_its_facts_again(self):
        def build():
            return Forall(FreeVar("Rebuilt"), Arrow(BoundIdx(2), FreeVar("Again")))

        t = build()
        assert (fv(t), size(t), t._esc) == ({"Rebuilt", "Again"}, 5, 2)
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None
        again = build()
        assert again._fv == {"Rebuilt", "Again"}
        assert (fv(again), size(again), again._esc) == ({"Rebuilt", "Again"}, 5, 2)
        assert not is_locally_closed(again)

    def test_a_shared_dag_is_measured_without_unfolding(self):
        # 64 doublings: 2**64 leaves, 65 distinct nodes.
        t, body = FreeVar("X"), BoundIdx(0)
        for _ in range(64):
            t, body = Arrow(t, t), Arrow(body, body)
        assert size(t) == 2**65 - 1
        assert fv(t) == {"X"}
        assert is_locally_closed(t) and body._esc == 1
        assert close_ty(t, "X") is body
        assert open_ty(body, "X") is t

    def test_one_name_shares_one_set_at_every_depth(self):
        t = parse_type(" -> ".join(["Shared"] * (DEPTH + 1)))
        sets = {id(fv(t))}
        while isinstance(t, Arrow):
            sets.add(id(fv(t.dom)))
            t = t.cod
            sets.add(id(fv(t)))
        assert sets == {id(fv(FreeVar("Shared")))}

    def test_a_field_that_is_no_type_is_rejected(self):
        with pytest.raises(TypeError, match="not a type: 'X'"):
            Arrow(Top(), "X")
        with pytest.raises(TypeError, match="not a type: 0"):
            Forall(0, Top())
