"""The five derivation transformers and the facts extractor.

Every transformer's output goes back through check_derivation, and for
trans/narrow the decision procedure independently confirms the conclusion.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fsub import metatheory, subtyper, syntax
from fsub.errors import PreconditionError
from fsub.gen import (
    GenConfig,
    SplitMix64,
    child_seeds,
    gen_derivation,
    gen_derivation_pair,
    gen_env_extension,
    gen_narrow_instance,
)
from fsub.judgments import EMPTY_ENV, Env, dom, env_concat, lookup, ok
from fsub.metatheory import (
    EnvSplit,
    derivation_env_facts,
    derive_narrow,
    derive_permute,
    derive_refl,
    derive_trans,
    derive_weaken,
    ok_narrow,
    split_env,
)
from fsub.parser import parse_env, parse_judgment, parse_type
from fsub.subtyper import (
    Derivation,
    Rule,
    Yes,
    check_derivation,
    decide_sub,
    derivation_from_json,
    derivation_height,
    derivation_to_json,
    diagnose_derivation,
    iter_nodes,
)
from fsub.syntax import Forall, FreeVar, Top, size
from strategies import same_outcome, seeds, unseen_name, variable_chain
import reference_walks as reference


def decide_yes(text: str) -> Derivation:
    g, lhs, rhs = parse_judgment(text)
    result = decide_sub(g, lhs, rhs)
    assert isinstance(result, Yes), result
    return result.derivation


def confirms(d: Derivation) -> bool:
    g, lhs, rhs = d.concl
    return check_derivation(d) and isinstance(decide_sub(g, lhs, rhs), Yes)


class TestRefl:
    def test_top(self):
        d = derive_refl(EMPTY_ENV, Top())
        assert d == Derivation(Rule.TOP, EMPTY_ENV, Top(), Top())

    def test_variable(self):
        g = parse_env("X <: Top")
        d = derive_refl(g, FreeVar("X"))
        assert d.rule == Rule.VAR
        assert check_derivation(d)

    def test_quantifier(self):
        t = parse_type("All X <: Top . X -> X")
        d = derive_refl(EMPTY_ENV, t)
        assert check_derivation(d)
        assert d.rule == Rule.ALL
        assert derivation_height(d) == 3

    def test_rejects_bad_env(self):
        with pytest.raises(PreconditionError):
            derive_refl(parse_env("X <: Y"), Top())

    def test_rejects_unclosed_type(self):
        with pytest.raises(PreconditionError):
            derive_refl(EMPTY_ENV, FreeVar("X"))

    @given(seeds)
    def test_generated(self, seed):
        cfg = GenConfig(seed=seed, max_ty_size=12, max_env_len=6)
        from fsub.gen import gen_refl_case

        g, t = gen_refl_case(cfg)
        d = derive_refl(g, t)
        assert check_derivation(d)
        assert d.concl == (g, t, t)
        assert derivation_height(d) <= size(t)
        assert sum(1 for _ in iter_nodes(d)) == size(t)
        assert isinstance(decide_sub(g, t, t), Yes)


class TestPermute:
    def test_identity(self):
        d = decide_yes("X <: Top, Y <: X |- Y <: X")
        assert derive_permute(d, (0, 1)) == d

    def test_swap_independent(self):
        d = decide_yes("X <: Top, Z <: Top |- X <: Top")
        out = derive_permute(d, (1, 0))
        assert check_derivation(out)
        assert dom(out.env) == ["Z", "X"]

    def test_swap_dependent_rejected(self):
        d = decide_yes("X <: Top, Y <: X |- Y <: X")
        with pytest.raises(PreconditionError):
            derive_permute(d, (1, 0))

    def test_rejects_non_permutation(self):
        d = decide_yes("X <: Top |- X <: Top")
        with pytest.raises(PreconditionError):
            derive_permute(d, (0, 0))
        with pytest.raises(PreconditionError):
            derive_permute(d, (0, 1))

    @pytest.mark.parametrize("pi", [(1, 0.0), (True, 0), (1.0, 0)], ids=["float", "bool", "float-first"])
    def test_rejects_positions_that_are_not_integers(self, pi):
        d = decide_yes("X <: Top, Z <: Top |- X <: Top")
        with pytest.raises(PreconditionError, match="not a permutation"):
            derive_permute(d, pi)

    @pytest.mark.parametrize(
        "make", [lambda: (i for i in (1, 0)), lambda: range(1, -1, -1), lambda: [1, 0]], ids=["generator", "range", "list"]
    )
    def test_reads_any_iterable_once(self, make):
        # A generator is consumed by its first pass, so reading `pi` twice
        # would see no positions the second time.
        d = decide_yes("X <: Top, Y <: Top |- X <: Top")
        assert derive_permute(d, make()) is derive_permute(d, (1, 0))

    @pytest.mark.parametrize("pi", [5, None], ids=["int", "none"])
    def test_rejects_what_is_not_iterable(self, pi):
        d = decide_yes("X <: Top, Y <: Top |- X <: Top")
        with pytest.raises(PreconditionError, match="not a permutation"):
            derive_permute(d, pi)

    def test_rejects_invalid_input(self):
        bad = Derivation(Rule.TOP, parse_env("X <: Y"), Top(), Top())
        with pytest.raises(PreconditionError):
            derive_permute(bad, (0,))

    def test_permutes_under_quantifier(self):
        d = decide_yes("X <: Top, Z <: Top |- All W <: X . W <: All W <: X . X")
        out = derive_permute(d, (1, 0))
        assert check_derivation(out)
        assert dom(out.env) == ["Z", "X"]


class TestWeaken:
    def test_empty_delta(self):
        d = decide_yes("X <: Top |- X <: Top")
        out = derive_weaken(d, EMPTY_ENV)
        assert out == d

    def test_single_binding(self):
        d = derive_refl(EMPTY_ENV, Top())
        out = derive_weaken(d, parse_env("X <: Top"))
        assert out == Derivation(Rule.TOP, parse_env("X <: Top"), Top(), Top())

    def test_delta_may_depend_on_g(self):
        d = decide_yes("X <: Top |- X <: Top")
        out = derive_weaken(d, Env.from_decls([("Y", FreeVar("X"))]))
        assert check_derivation(out)
        assert dom(out.env) == ["X", "Y"]

    def test_quantifier_node(self):
        d = decide_yes("|- All X <: Top . X <: All X <: Top . Top")
        delta = parse_env("Z <: Top")
        out = derive_weaken(d, delta)
        assert check_derivation(out)
        assert out.witness not in dom(delta)
        assert out.concl == (delta, d.lhs, d.rhs)

    def test_witness_collision_renames(self):
        d = decide_yes("|- All X <: Top . X <: All X <: Top . Top")
        delta = Env.from_decls([(d.witness, Top())])
        out = derive_weaken(d, delta)
        assert check_derivation(out)
        assert out.witness != d.witness

    def test_rejects_clashing_delta(self):
        d = decide_yes("X <: Top |- X <: Top")
        with pytest.raises(PreconditionError):
            derive_weaken(d, parse_env("X <: Top"))

    @pytest.mark.parametrize("delta", ["Y <: Top", None, Top(), [("Y", Top())]], ids=["str", "none", "type", "list"])
    def test_rejects_what_is_not_an_environment(self, delta):
        d = decide_yes("X <: Top |- X <: Top")
        with pytest.raises(PreconditionError, match="not an environment"):
            derive_weaken(d, delta)

    @given(seeds)
    @settings(max_examples=60)
    def test_generated(self, seed):
        d = gen_derivation(GenConfig(seed=seed))
        delta = gen_env_extension(d.env, GenConfig(seed=seed ^ 0x1234, max_env_len=2))
        out = derive_weaken(d, delta)
        assert check_derivation(out)
        assert out.env.bindings == delta.bindings + d.env.bindings


class TestSplitAndOkNarrow:
    def test_split_round_trip(self):
        g = parse_env("A <: Top, X <: A, Z <: X")
        split = split_env(g, "X")
        assert split.pivot_var == "X"
        assert split.pivot_bound == FreeVar("A")
        assert dom(split.prefix) == ["A"]
        assert dom(split.suffix) == ["Z"]
        assert split.assemble() == g

    def test_split_absent_name(self):
        with pytest.raises(PreconditionError):
            split_env(parse_env("A <: Top"), "B")

    def test_identity_toplevel(self):
        g = parse_env("X <: Top")
        split = split_env(g, "X")
        d_pq = derive_refl(EMPTY_ENV, Top())
        assert ok_narrow(split, Top(), d_pq)

    def test_identity_narrowing(self):
        g = parse_env("A <: Top, X <: A")
        split = split_env(g, "X")
        d_pq = derive_refl(parse_env("A <: Top"), FreeVar("A"))
        assert ok_narrow(split, FreeVar("A"), d_pq)

    def test_with_suffix(self):
        g = parse_env("A <: Top, X <: Top, Z <: X")
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top |- A <: Top")
        assert ok_narrow(split, FreeVar("A"), d_pq)
        assert ok(split.assemble(FreeVar("A")))

    def test_rejects_a_split_that_is_not_ok(self):
        g = Env.from_decls([("X", Top()), ("Y", FreeVar("Z"))])
        with pytest.raises(PreconditionError, match=r"^split environment is not ok$"):
            ok_narrow(split_env(g, "X"), Top(), derive_refl(EMPTY_ENV, Top()))

    def test_rejects_evidence_over_wrong_env(self):
        g = parse_env("A <: Top, X <: Top")
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top, X <: Top |- A <: Top")
        with pytest.raises(PreconditionError):
            ok_narrow(split, FreeVar("A"), d_pq)

    def test_each_environment_is_assembled_once(self, monkeypatch):
        # `ok_narrow` assembles the split environment and the narrowed one,
        # and narrowing assembles each of them once too, not again after
        # its checks.
        g = parse_env("A <: Top, X <: Top, Z <: X")
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top |- A <: Top")
        d = decide_yes("A <: Top, X <: Top, Z <: X |- Z <: Top")
        assembled = []
        monkeypatch.setattr(metatheory, "env_concat", lambda *envs: assembled.append(envs) or env_concat(*envs))
        assert ok_narrow(split, FreeVar("A"), d_pq) is True
        assert len(assembled) == 2
        out = derive_narrow(split, FreeVar("A"), d, d_pq)
        assert len(assembled) == 4
        assert out.env is split.assemble(FreeVar("A"))


class TestTrans:
    def test_top_top(self):
        d = derive_refl(EMPTY_ENV, Top())
        assert derive_trans(d, d) == d

    def test_right_top_absorbs(self):
        d1 = decide_yes("X <: Top |- X <: Top")
        d2 = decide_yes("X <: Top |- Top <: Top")
        out = derive_trans(d1, d2)
        assert confirms(out)
        assert out.concl == d1.concl

    def test_arrow_middle(self):
        d1 = decide_yes("A <: Top |- Top -> A <: A -> Top")
        d2 = derive_refl(parse_env("A <: Top"), parse_type("A -> Top"))
        out = derive_trans(d1, d2)
        assert confirms(out)
        g, lhs, rhs = out.concl
        assert lhs == parse_type("Top -> A") and rhs == parse_type("A -> Top")

    def test_quantifier_middle(self):
        s = parse_type("All Y <: Top . Y")
        q = parse_type("All Y <: Top . Top")
        d1 = decide_sub(EMPTY_ENV, s, q).derivation
        d2 = derive_refl(EMPTY_ENV, q)
        out = derive_trans(d1, d2)
        assert confirms(out)
        assert out.rule == Rule.ALL
        assert out.concl == (EMPTY_ENV, s, q)

    def test_variable_left(self):
        d1 = decide_yes("X <: Top, Y <: X |- Y <: X")
        d2 = decide_yes("X <: Top, Y <: X |- X <: Top")
        out = derive_trans(d1, d2)
        assert confirms(out)
        assert out.concl == (d1.env, FreeVar("Y"), Top())

    def test_narrow_then_trans_path(self):
        # The right bound is strictly tighter than the middle one and the
        # left body chains through the witness, so composing the bodies
        # forces a genuine narrowing of the left premise first.
        s = parse_type("All Y <: (Top -> Top) . Y")
        q = parse_type("All Y <: (Top -> Top) . Top -> Top")
        t = parse_type("All Y <: (Top -> Top -> Top) . Top -> Top")
        d1 = decide_sub(EMPTY_ENV, s, q).derivation
        d2 = decide_sub(EMPTY_ENV, q, t).derivation
        assert d1.premises[1].rule == Rule.TRS
        out = derive_trans(d1, d2)
        assert confirms(out)
        assert out.concl == (EMPTY_ENV, s, t)

    def test_rejects_env_mismatch(self):
        d1 = derive_refl(parse_env("X <: Top"), Top())
        d2 = derive_refl(EMPTY_ENV, Top())
        with pytest.raises(PreconditionError):
            derive_trans(d1, d2)

    def test_rejects_middle_mismatch(self):
        d1 = decide_yes("X <: Top |- X <: Top")
        d2 = decide_yes("X <: Top |- X <: X")
        with pytest.raises(PreconditionError):
            derive_trans(d1, d2)

    @given(seeds)
    @settings(max_examples=100)
    def test_generated_pairs(self, seed):
        d1, d2 = gen_derivation_pair(GenConfig(seed=seed, max_deriv_depth=5))
        out = derive_trans(d1, d2)
        assert confirms(out)
        assert out.concl == (d1.env, d1.lhs, d2.rhs)


class TestNarrow:
    def test_identity(self):
        g = parse_env("A <: Top, X <: A")
        d = decide_yes("A <: Top, X <: A |- X <: Top")
        split = split_env(g, "X")
        d_pq = derive_refl(parse_env("A <: Top"), FreeVar("A"))
        out = derive_narrow(split, FreeVar("A"), d, d_pq)
        assert confirms(out)
        assert out.env == g

    def test_tightens_bound(self):
        g = parse_env("A <: Top, X <: Top")
        d = decide_yes("A <: Top, X <: Top |- X <: Top")
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top |- A <: Top")
        out = derive_narrow(split, FreeVar("A"), d, d_pq)
        assert confirms(out)
        assert lookup(out.env, "X") == FreeVar("A")
        assert (out.lhs, out.rhs) == (d.lhs, d.rhs)

    def test_pivot_chain_crosses_to_trans(self):
        g = parse_env("A <: Top, X <: Top")
        # trs at the pivot: X <: Top via its (old) bound.
        d = Derivation(
            Rule.TRS,
            g,
            FreeVar("X"),
            Top(),
            (Derivation(Rule.TOP, g, Top(), Top()),),
        )
        assert check_derivation(d)
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top |- A <: Top")
        out = derive_narrow(split, FreeVar("A"), d, d_pq)
        assert confirms(out)
        assert out.rule == Rule.TRS
        assert lookup(out.env, "X") == FreeVar("A")

    def test_quantifier_under_narrowing(self):
        g = parse_env("A <: Top, X <: Top")
        d = decide_yes("A <: Top, X <: Top |- All W <: X . W <: All W <: X . X")
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top |- A <: Top")
        out = derive_narrow(split, FreeVar("A"), d, d_pq)
        assert confirms(out)

    def test_suffix_preserved(self):
        g = parse_env("A <: Top, X <: Top, Z <: X")
        d = decide_yes("A <: Top, X <: Top, Z <: X |- Z <: Top")
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top |- A <: Top")
        out = derive_narrow(split, FreeVar("A"), d, d_pq)
        assert confirms(out)
        assert dom(out.env) == ["A", "X", "Z"]

    def test_rejects_mismatched_env(self):
        g = parse_env("A <: Top, X <: Top")
        d = decide_yes("A <: Top |- A <: Top")
        split = split_env(g, "X")
        d_pq = decide_yes("A <: Top |- A <: Top")
        with pytest.raises(PreconditionError):
            derive_narrow(split, FreeVar("A"), d, d_pq)

    @given(seeds)
    @settings(max_examples=60)
    def test_generated_instances(self, seed):
        split, p, d, d_pq = gen_narrow_instance(GenConfig(seed=seed))
        out = derive_narrow(split, p, d, d_pq)
        assert confirms(out)
        assert lookup(out.env, split.pivot_var) == p or lookup(d.env, split.pivot_var) == p

    @given(seeds)
    @settings(max_examples=60)
    def test_forced_pivot_chains(self, seed):
        split, p, d, d_pq = gen_narrow_instance(GenConfig(seed=seed), force_pivot_chain=True)
        has_pivot_trs = any(
            node.rule == Rule.TRS and node.lhs == FreeVar(split.pivot_var)
            for _, node in iter_nodes(d)
        )
        assert has_pivot_trs
        out = derive_narrow(split, p, d, d_pq)
        assert confirms(out)


def quantifier_witnesses(d: Derivation) -> list[str]:
    return sorted({node.witness for _, node in iter_nodes(d) if node.witness is not None})


class TestArgumentsOfTheWrongType:
    """Each public operation tests its arguments' types at entry, so a wrong
    type is a precondition violation, never an error from inside the kernel."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda d: derive_refl(None, Top()), "not an environment: None"),
            (lambda d: derive_refl(d.env, "X"), "not a type: 'X'"),
            (lambda d: split_env(None, "X"), "not an environment: None"),
            (lambda d: derive_trans(None, d), "left derivation is not a Derivation: None"),
            (lambda d: derive_permute(None, ()), "derivation is not a Derivation: None"),
            (lambda d: derive_weaken(None, EMPTY_ENV), "derivation is not a Derivation: None"),
            (lambda d: derive_narrow(None, Top(), d, d), "not an environment split: None"),
            (lambda d: derivation_env_facts(None), "derivation is not a Derivation: None"),
        ],
        ids=["refl-env", "refl-type", "split_env", "trans", "permute", "weaken", "narrow", "env_facts"],
    )
    def test_is_a_precondition_error(self, call, message):
        d = decide_yes("X <: Top |- X <: Top")
        with pytest.raises(PreconditionError) as raised:
            call(d)
        assert str(raised.value) == message


class TestAgainstReferenceWalks:
    """Transitivity, narrowing and weakening give the very nodes, or the very
    errors, that the separate renaming and rebuilding passes of
    `reference_walks` gave."""

    @given(seeds)
    def test_trans(self, seed):
        d1, d2 = gen_derivation_pair(GenConfig(seed=seed, max_deriv_depth=6))
        same_outcome(derive_trans, reference.trans, d1, d2)

    @given(seeds, st.integers(0, 5))
    def test_narrow_and_its_rejections(self, seed, variant):
        split, p, d, d_pq = gen_narrow_instance(GenConfig(seed=seed), force_pivot_chain=seed % 2 == 0)
        if variant == 1:
            # Evidence for the old bound below itself.
            d_pq = derive_refl(split.prefix, split.pivot_bound)
        elif variant == 2:
            # A derivation over the prefix instead of the split environment.
            d = d_pq
        elif variant == 3:
            d_pq = Derivation(Rule.TOP, split.prefix, p, FreeVar(unseen_name()))
        elif variant == 4:
            d = Derivation(Rule.VAR, d.env, Top(), Top())
        elif variant == 5:
            # A pivot bound that names a variable the prefix lacks.
            split = EnvSplit(split.prefix, split.pivot_var, FreeVar(unseen_name()), split.suffix)
        same_outcome(derive_narrow, reference.narrow, split, p, d, d_pq)

    @given(seeds, st.booleans())
    def test_weaken_by_every_witness(self, seed, colliding):
        # Declaring each witness name of the tree in the weakening makes
        # every quantifier node's witness collide and be re-freshened.
        d = gen_derivation(GenConfig(seed=seed))
        names = quantifier_witnesses(d) if colliding else [unseen_name()]
        delta = Env.from_decls((name, Top()) for name in names)
        same_outcome(derive_weaken, _reference_weaken, d, delta)

    def test_trans_through_a_bound_that_names_an_outer_binder(self):
        # Composing reaches the right tree's `trs` node on `Y` with a
        # variable on the left, so it rebuilds that subtree over the shared
        # witnesses; the inner quantifier's bound names the outer witness,
        # which the composition renamed, so the `trs` node on `V` must chain
        # through the renamed bound.
        g = parse_env("Z <: Top")
        q = parse_type("All X <: Z . All Y <: (All V <: X . V) . Y")
        t = parse_type("All X <: Z . All Y <: (All V <: X . V) . (All V <: X . Z)")
        d1, d2 = derive_refl(g, q), decide_sub(g, q, t).derivation
        out = derive_trans(d1, d2)
        assert out is reference.trans(d1, d2)
        assert check_derivation(out)

    @given(seeds)
    def test_trans_of_nests_whose_bounds_name_outer_binders(self, seed):
        # s <: m <: t, each a supertype of the one before that replaces
        # covariant places by Top or by a variable's bound, chased through
        # the bounds of quantifiers that name the binders outside them.
        rng = random.Random(seed)
        levels = []
        for i in range(rng.randint(2, 5)):
            outer = ("var", levels[-1][0] if levels else "Z")
            bound = rng.choice([("top",), outer, ("all", "V", outer, ("var", "V")), ("all", "V", outer, outer), ("arr", outer, outer)])
            levels.append((f"B{i}", bound))
        s = ("var", rng.choice(levels)[0])
        for name, bound in reversed(levels):
            s = ("all", name, bound, s)
        g = parse_env("Z <: Top")
        trees = [s]
        for _ in range(2):
            trees.append(supertype(rng, trees[-1], {"Z": ("top",)}))
        s, m, t = (parse_type(type_text(tree)) for tree in trees)
        d1, d2 = decide_sub(g, s, m).derivation, decide_sub(g, m, t).derivation
        for a, b in ((d1, d2), (derive_refl(g, m), d2), (d1, derive_refl(g, m))):
            out = derive_trans(a, b)
            assert out is reference.trans(a, b)
            assert check_derivation(out)

    def test_weaken_a_nest_by_its_witnesses(self):
        d = derive_refl(parse_env("X <: Top"), nested_quantifiers(12, "Top"))
        delta = Env.from_decls((name, Top()) for name in quantifier_witnesses(d))
        assert len(delta) == 12
        out = derive_weaken(d, delta)
        assert out is _reference_weaken(d, delta)
        assert check_derivation(out) and quantifier_witnesses(out) == sorted(f"X{i}" for i in range(12, 24))


class TestEnvFacts:
    def test_top_leaf(self):
        d = derive_refl(EMPTY_ENV, Top())
        ok_map, closed_map = derivation_env_facts(d)
        assert ok_map == {(): True}
        assert closed_map == {(): True}

    def test_every_node_covered(self):
        d = decide_yes("X <: Top |- All Y <: X . Y -> Y <: All Y <: X . Y -> Top")
        ok_map, closed_map = derivation_env_facts(d)
        paths = {path for path, _ in iter_nodes(d)}
        assert set(ok_map) == paths
        assert set(closed_map) == paths
        assert all(ok_map.values()) and all(closed_map.values())

    def test_refuses_invalid_derivation(self):
        bad = Derivation(Rule.TOP, EMPTY_ENV, FreeVar("X"), Top())
        with pytest.raises(PreconditionError):
            derivation_env_facts(bad)


class TestDeepDerivations:
    """Reflexivity and the environment-rebuilding walk run on explicit stacks:
    a derivation deeper than the interpreter stack goes through them."""

    def test_refl_of_a_deep_arrow(self):
        n = 10_000
        g = parse_env("X <: Top")
        t = parse_type(" -> ".join(["X"] * (n + 1)))
        d = derive_refl(g, t)
        assert sum(1 for _ in iter_nodes(d)) == 2 * n + 1
        assert d.concl == (g, t, t)

    @pytest.fixture(scope="class")
    def chain(self) -> Derivation:
        g, lhs, rhs = variable_chain(2_000)
        return decide_sub(g, lhs, rhs, fuel=2_001).derivation

    def assert_rebuilt_chain(self, out: Derivation, env: Env, chain: Derivation) -> None:
        assert out.concl == (env, chain.lhs, chain.rhs)
        assert sum(1 for _ in iter_nodes(out)) == 2_001
        assert check_derivation(out)

    def test_weaken(self, chain):
        delta = parse_env("W <: Top")
        out = derive_weaken(chain, delta)
        self.assert_rebuilt_chain(out, Env(delta.bindings + chain.env.bindings), chain)

    def test_identity_permutation(self, chain):
        out = derive_permute(chain, tuple(range(len(chain.env))))
        self.assert_rebuilt_chain(out, chain.env, chain)

    def test_narrow_the_root_of_the_chain(self, chain):
        split = split_env(chain.env, "X0")
        p = parse_type("All Z <: Top . Z")
        d_pq = decide_sub(EMPTY_ENV, p, Top()).derivation
        out = derive_narrow(split, p, chain, d_pq)
        self.assert_rebuilt_chain(out, split.assemble(p), chain)


class TestDeepComposition:
    """Transitivity and narrowing's hand-off into it run on one explicit
    stack, so a 10,000-link chain composes at the default recursion limit
    (the recursive composition raised `RecursionError` from 1,200 links)."""

    N = 10_000

    @pytest.fixture(scope="class")
    def chain(self) -> Derivation:
        g, lhs, rhs = variable_chain(self.N)
        return decide_sub(g, lhs, rhs, fuel=self.N + 1).derivation

    def test_trans_of_the_chain_and_its_top_step(self, chain):
        step = decide_sub(chain.env, FreeVar("X0"), Top()).derivation
        out = derive_trans(chain, step)
        assert out.concl == (chain.env, FreeVar(f"X{self.N}"), Top())
        assert derivation_height(out) == self.N + 1
        assert check_derivation(out)

    def test_narrow_by_the_chain(self, chain):
        # The pivot `Y <: X0` gets the bottom of the chain as its bound; its
        # `trs` node hands the chain over to transitivity.
        g = chain.env.extend("Y", FreeVar("X0"))
        d = decide_sub(g, FreeVar("Y"), FreeVar("X0")).derivation
        split = split_env(g, "Y")
        p = FreeVar(f"X{self.N}")
        out = derive_narrow(split, p, d, chain)
        assert out.concl == (split.assemble(p), FreeVar("Y"), FreeVar("X0"))
        assert derivation_height(out) == self.N + 2
        assert check_derivation(out)


class TestBoundChainsAgainstReference:
    """Composing a left tree that chains through n bounds takes one `trs`
    frame per link.  Over `Z <: Top, X0 <: Z -> Z, X1 <: X0, …, Xn <:
    X(n-1)`, the chain `Xn <: X0` (n links) and `Xn <: Z -> Z` (n + 1 links)
    meet right trees of every rule, and narrow a pivot `Y <: X0` as the
    evidence; each output is the very node `reference_walks` gives."""

    @staticmethod
    def env(n: int) -> Env:
        return parse_env(", ".join(["Z <: Top", "X0 <: Z -> Z"] + [f"X{i} <: X{i - 1}" for i in range(1, n + 1)]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trans_meets_every_right_rule(self, n):
        g = self.env(n)
        rights = {"X0": ["Top", "X0", "Z -> Z", "Z -> Top"], "Z -> Z": ["Top", "Z -> Z", "Z -> Top"]}
        met = set()
        for q, ts in rights.items():
            d1 = decide_sub(g, FreeVar(f"X{n}"), parse_type(q)).derivation
            assert sum(node.rule is Rule.TRS for _, node in iter_nodes(d1)) == n + (q != "X0")
            for t in ts:
                d2 = decide_sub(g, parse_type(q), parse_type(t)).derivation
                met.add(d2.rule)
                out = derive_trans(d1, d2)
                assert out is reference.trans(d1, d2)
                assert check_derivation(out)
        assert met == {Rule.TOP, Rule.VAR, Rule.TRS, Rule.ARR}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_narrow_with_the_chain_as_evidence(self, n):
        g = self.env(n)
        chain = decide_sub(g, FreeVar(f"X{n}"), FreeVar("X0")).derivation
        pivoted = g.extend("Y", FreeVar("X0"))
        split = split_env(pivoted, "Y")
        for s, t in (("Y", "X0"), ("Y", "Z -> Top"), ("Y -> Y", "Y -> X0"), ("All V <: Y . V", "All V <: Y . Z -> Z")):
            d = decide_sub(pivoted, parse_type(s), parse_type(t)).derivation
            out = derive_narrow(split, FreeVar(f"X{n}"), d, chain)
            assert out is reference.narrow(split, FreeVar(f"X{n}"), d, chain)
            assert check_derivation(out)


def nested_quantifiers(n: int, tail: str = ""):
    """n nested quantifiers, each bounded by the one outside it; the
    innermost body is `Y<n-1>`, or `Y<n-1> -> tail` when `tail` is given."""
    binders = ["All Y0 <: Top ."] + [f"All Y{i} <: Y{i - 1} ." for i in range(1, n)]
    return parse_type(" ".join(binders) + f" Y{n - 1}" + (f" -> {tail}" if tail else ""))


def type_text(tree) -> str:
    """Surface text of a type given as nested tuples: ("top",), ("var", name),
    ("arr", dom, cod) or ("all", name, bound, body)."""
    kind = tree[0]
    if kind == "top":
        return "Top"
    if kind == "var":
        return tree[1]
    if kind == "arr":
        return f"({type_text(tree[1])}) -> ({type_text(tree[2])})"
    return f"All {tree[1]} <: {type_text(tree[2])} . ({type_text(tree[3])})"


def supertype(rng, tree, bounds):
    """A supertype of `tree` under the variables' `bounds`: some covariant
    places become Top, and some variables their bounds, chased further."""
    kind = tree[0]
    if rng.random() < 0.1:
        return ("top",)
    if kind == "var" and tree[1] in bounds and rng.random() < 0.4:
        return supertype(rng, bounds[tree[1]], bounds)
    if kind == "arr":
        return ("arr", tree[1], supertype(rng, tree[2], bounds))
    if kind == "all":
        return ("all", tree[1], tree[2], supertype(rng, tree[3], {**bounds, tree[1]: tree[2]}))
    return tree


def closed_nest(n: int):
    """`All Y0 <: Top . … All Y<n-1> <: Top . Top`."""
    return parse_type(" ".join(f"All Y{i} <: Top ." for i in range(n)) + " Top")


class TestCompositionWorkIsLinear:
    """Composing a quantifier nest's reflexivity derivation with itself
    builds each output node about once: the count below does not grow with
    the nest.  The recursive composition rebuilt both body premises at every
    level (80,401 constructor calls for the 401 output nodes at n = 200)."""

    NESTS = [(closed_nest, EMPTY_ENV), (nested_quantifiers, parse_env("X <: Top"))]

    @pytest.fixture()
    def work(self, monkeypatch):
        counts = {"built": 0}
        new = Derivation.__new__

        def building(cls, *args, **kwargs):
            counts["built"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Derivation, "__new__", building)
        return counts

    @pytest.mark.parametrize("nest, g", NESTS, ids=["closed", "deep"])
    def test_constructor_calls_per_output_node(self, work, nest, g):
        per_node = []
        for n in (50, 200):
            d = derive_refl(g, nest(n))
            work.update(built=0)
            out = derive_trans(d, d)
            per_node.append(work["built"] / len(tree_nodes(out)))
            assert out.concl == d.concl and check_derivation(out)
        assert max(per_node) <= 2


def tree_nodes(*ds: Derivation) -> set[Derivation]:
    return {node for d in ds for _, node in iter_nodes(d)}


def not_yet_valid(*ds: Derivation) -> list[Derivation]:
    """The nodes an explicit check of each of `ds` has to examine: every
    occurrence, in preorder, of a node outside the subtrees that an earlier
    check found valid."""
    out = []
    for d in ds:
        stack = [d]
        while stack:
            node = stack.pop()
            if not node._valid:
                out.append(node)
                stack += reversed(node.premises)
    return out


class TestValidateOnce:
    """Each public transformer runs the checker once per input derivation,
    and that check examines only the input nodes no earlier check found
    valid; the internal walk trusts what the entry point validated.

    Validity is kept on interned nodes, so an equal derivation that another
    test keeps alive would be valid already.  The weakening test builds its
    input over a root binding of `unseen_name()`, so no other test can hold
    any of its nodes; the narrowing test, over generated instances that other
    tests also build, counts only the nodes not yet valid (`not_yet_valid`)."""

    @pytest.fixture()
    def checker_calls(self, monkeypatch):
        calls = []

        def counting(d):
            calls.append(d)
            return diagnose_derivation(d)

        monkeypatch.setattr(metatheory, "diagnose_derivation", counting)
        return calls

    def test_weaken_nested_quantifiers(self, checker_calls, diagnosed):
        g = parse_env("X <: Top").extend(unseen_name(), Top())
        d = derive_refl(g, nested_quantifiers(10))
        out = derive_weaken(d, parse_env("X0 <: Top, W <: Top"))
        assert len(checker_calls) == 1
        assert len(diagnosed) == len(tree_nodes(d)) == 21
        assert set(diagnosed) == tree_nodes(d)
        diagnosed.clear()
        assert derive_weaken(d, parse_env("X0 <: Top, W <: Top")) is out
        assert diagnosed == []
        assert check_derivation(out)

    def test_refl_scopes_its_input_once(self, monkeypatch):
        # derive_refl checks ok/closed itself; the decider must not repeat it.
        calls = []

        def counting(*goal):
            calls.append(goal)
            return None

        monkeypatch.setattr(subtyper, "scoping_problem", counting)
        g = parse_env("X <: Top, Y <: X")
        d = derive_refl(g, parse_type("All Z <: Y . Z -> X"))
        assert calls == []
        assert check_derivation(d) and d.concl[0] is g

    def test_narrow_pivot_chains(self, checker_calls, diagnosed):
        for seed in child_seeds(3003, 20):
            split, p, d, d_pq = gen_narrow_instance(GenConfig(seed=seed), force_pivot_chain=True)
            unchecked = not_yet_valid(d, d_pq)
            checker_calls.clear()
            diagnosed.clear()
            out = derive_narrow(split, p, d, d_pq)
            assert len(checker_calls) <= 2
            assert diagnosed == unchecked
            diagnosed.clear()
            derive_narrow(split, p, d, d_pq)
            assert diagnosed == []
            assert check_derivation(out)

    def test_narrow_of_a_trans_output_checks_only_what_trans_built(self, diagnosed):
        # The transitivity inputs are checked in full by `derive_trans`; the
        # narrowing of its output then examines only nodes it built, and of
        # those only the ones not yet valid (another test may hold an equal
        # output).  The evidence is checked before, so it adds nothing.
        composed = 0
        for seed in child_seeds(2002, 40):
            d1, d2 = gen_derivation_pair(GenConfig(seed=seed, max_deriv_depth=6))
            if not len(d1.env):
                continue
            out = derive_trans(d1, d2)
            x, bound = out.env.bindings[-1]
            split = split_env(out.env, x)
            d_pq = derive_refl(split.prefix, bound)
            assert check_derivation(d_pq)
            built = tree_nodes(out) - tree_nodes(d1, d2)
            unchecked = not_yet_valid(out)
            diagnosed.clear()
            narrowed = derive_narrow(split, bound, out, d_pq)
            assert diagnosed == unchecked
            assert set(unchecked) <= built
            composed += bool(diagnosed)
            assert confirms(narrowed)
        assert composed >= 10


class TestOpenedBodies:
    """Deciding an n-quantifier nest against itself, checking the result,
    writing and reading its JSON, reflexivity and weakening open each
    quantifier body once with its witness: a body keeps its last opening.
    The nest ends in `unseen_name()`, so every body is a new type that no
    other test has opened."""

    @pytest.mark.parametrize("n", [10, 64])
    def test_deep_pipeline_opens_each_body_once(self, monkeypatch, n):
        # open_ty maps the leaves of a body whose only escaping index is 0,
        # the only kind it opens; nothing else in this pipeline maps one.
        opened = []
        map_leaves = syntax._map_leaves

        def counting(t, *args):
            result = map_leaves(t, *args)
            if t._escapes == 1:
                opened.append((t, result))
            return result

        monkeypatch.setattr(syntax, "_map_leaves", counting)
        name = unseen_name()
        g = parse_env("X <: Top").extend(name, Top())
        t = nested_quantifiers(n, tail=name)
        d = decide_sub(g, t, t).derivation
        assert check_derivation(d)
        assert derivation_from_json(derivation_to_json(d)) is d
        refl = derive_refl(g, t)
        weakened = derive_weaken(refl, parse_env("W <: X"))
        bodies = []
        while isinstance(t, Forall):
            bodies.append(t.body)
            t = t.body
        assert len(opened) == len(set(opened)) == n
        assert [body for body, _ in opened] == bodies
        assert confirms(weakened)


# SHA-256 over the JSON of every output below, one line each; any change to a
# transformer's output tree changes it.
GOLDEN_OUTPUT_DIGEST = "7c90c50d4cf66193194706f8b6681ec55b88886041ae88cacbd161d12f2885f8"


def _reference_permute(d: Derivation, pi: tuple[int, ...]) -> Derivation:
    decls = d.env.decls()
    return reference.rebase(d, Env.from_decls(decls[i] for i in pi))


def _reference_weaken(d: Derivation, delta: Env) -> Derivation:
    return reference.rebase(d, env_concat(d.env, delta))


def transformer_cases():
    """The transformer calls of acceptance criteria 2, 3 and 5, then
    weakenings of nested quantifiers whose witnesses do and do not collide,
    then each quantifier nest of `TestCompositionWorkIsLinear` at n = 5 and
    25 composed with itself, each as (transformer, its reference in
    `reference_walks`, arguments)."""
    for seed in child_seeds(2002, 1000):
        yield derive_trans, reference.trans, gen_derivation_pair(GenConfig(seed=seed, max_deriv_depth=6))
    for i, seed in enumerate(child_seeds(3003, 500)):
        instance = gen_narrow_instance(GenConfig(seed=seed), force_pivot_chain=i < 50)
        yield derive_narrow, reference.narrow, instance
    for seed in child_seeds(4004, 500):
        d = gen_derivation(GenConfig(seed=seed))
        delta = gen_env_extension(d.env, GenConfig(seed=seed ^ 0xD1, max_env_len=3))
        yield derive_weaken, _reference_weaken, (d, delta)
    for seed in child_seeds(5005, 500):
        d = gen_derivation(GenConfig(seed=seed))
        decls = d.env.decls()
        rng = SplitMix64(seed ^ 0xBEEF)
        pi = list(range(len(decls)))
        for i in range(len(pi) - 1, 0, -1):
            j = rng.below(i + 1)
            pi[i], pi[j] = pi[j], pi[i]
        if ok(Env.from_decls([decls[i] for i in pi])):
            yield derive_permute, _reference_permute, (d, tuple(pi))
    d = derive_refl(parse_env("X <: Top"), nested_quantifiers(25))
    for delta in (parse_env("W <: X"), parse_env("X0 <: Top, X1 <: Top")):
        yield derive_weaken, _reference_weaken, (d, delta)
    for nest, g in TestCompositionWorkIsLinear.NESTS:
        for n in (5, 25):
            d = derive_refl(g, nest(n))
            yield derive_trans, reference.trans, (d, d)


def transformer_outputs():
    for transformer, _, args in transformer_cases():
        yield transformer(*args)


def test_transformer_outputs_match_the_reference_walks():
    # Renaming inside the one rebuilding walk gives the very nodes that
    # renaming and rebuilding in separate passes gave.
    for transformer, ref, args in transformer_cases():
        assert transformer(*args) is ref(*args)


def test_transformer_outputs_golden():
    digest = hashlib.sha256()
    for out in transformer_outputs():
        digest.update(derivation_to_json(out).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_OUTPUT_DIGEST
