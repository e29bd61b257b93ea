"""Seeded generation, shrinking, and the exhaustive enumerators."""

import hashlib
import inspect
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsub.cli import run
from fsub.errors import PreconditionError
from fsub.gen import (
    GenConfig,
    _gen_ty,
    SplitMix64,
    child_seeds,
    enumerate_judgments,
    enumerate_ok_envs,
    enumerate_types,
    gen_closed_ty,
    gen_derivation,
    gen_derivation_pair,
    gen_env,
    gen_env_extension,
    gen_narrow_instance,
    gen_refl_case,
    shrink,
    shrink_derivation,
    shrink_env,
    shrink_ty,
)
from fsub.judgments import EMPTY_ENV, Env, closed, env_concat, ok
from fsub.metatheory import derive_narrow, derive_trans
from fsub.parser import parse_env, parse_judgment, parse_type, print_judgment
from fsub.subtyper import Rule, check_derivation, decide_sub, derivation_height, derivation_to_json
from fsub.syntax import Forall, FreeVar, Top, fresh, fv, open_ty, size
from strategies import seeds, variable_chain

import reference_gen as reference


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        rng = SplitMix64(0)
        first = [SplitMix64(0).next_u64() for _ in range(3)]
        again = [rng.next_u64() for _ in range(3)]
        assert first[0] == again[0]
        # distinct outputs, full 64-bit range
        assert len(set(again)) == 3
        assert all(0 <= v < (1 << 64) for v in again)

    def test_split_streams_diverge(self):
        rng = SplitMix64(99)
        child = rng.split()
        a = [child.next_u64() for _ in range(4)]
        b = [rng.next_u64() for _ in range(4)]
        assert a != b

    def test_below_and_choose(self):
        rng = SplitMix64(7)
        assert all(rng.below(10) < 10 for _ in range(100))
        items = ["a", "b", "c"]
        assert all(rng.choose(items) in items for _ in range(20))

    def test_below_needs_a_positive_bound(self):
        with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound, got 0$"):
            SplitMix64(1).below(0)


class TestGenConfig:
    def test_rejects_bad_seed(self):
        with pytest.raises(PreconditionError):
            GenConfig(seed=-1)
        with pytest.raises(PreconditionError):
            GenConfig(seed=1 << 64)

    def test_rejects_zero_ty_size(self):
        with pytest.raises(PreconditionError):
            GenConfig(seed=0, max_ty_size=0)

    # One case per field: a bool would generate as 0 or 1, a float would
    # fail later in SplitMix64 or not at all, and a string in the range test.
    @pytest.mark.parametrize("field", ["seed", "max_env_len", "max_ty_size", "max_deriv_depth"])
    def test_rejects_a_field_that_is_not_an_int(self, field):
        for bad in (1.5, True, False, "3", None):
            with pytest.raises(PreconditionError, match=f"^{field} must be an integer, got "):
                GenConfig(**{"seed": 1, field: bad})

    def test_empty_env_allowed(self):
        assert gen_env(GenConfig(seed=0, max_env_len=0)) == EMPTY_ENV


class TestGenEnv:
    def test_deterministic(self):
        cfg = GenConfig(seed=123)
        assert gen_env(cfg) == gen_env(cfg)

    def test_always_ok(self):
        for seed in child_seeds(0, 10000):
            assert ok(gen_env(GenConfig(seed=seed)))

    def test_length_bounded(self):
        for seed in child_seeds(1, 200):
            assert len(gen_env(GenConfig(seed=seed, max_env_len=3))) <= 3

    def test_extension_is_ok_over_base(self):
        g = parse_env("X <: Top, Y <: X")
        for seed in child_seeds(2, 200):
            delta = gen_env_extension(g, GenConfig(seed=seed, max_env_len=2))
            assert ok(env_concat(g, delta))


class TestGenClosedTy:
    def test_deterministic(self):
        cfg = GenConfig(seed=5)
        g = gen_env(cfg)
        assert gen_closed_ty(g, cfg) == gen_closed_ty(g, cfg)

    def test_size_one_over_empty_env(self):
        assert gen_closed_ty(EMPTY_ENV, GenConfig(seed=9, max_ty_size=1)) == Top()

    def test_closed_and_bounded(self):
        for seed in child_seeds(3, 10000):
            cfg = GenConfig(seed=seed)
            g = gen_env(cfg)
            t = gen_closed_ty(g, cfg)
            assert closed(t, g)
            assert size(t) <= cfg.max_ty_size

    def test_quantifier_bodies_stay_closed_when_opened(self):
        hits = 0
        for seed in child_seeds(4, 2000):
            cfg = GenConfig(seed=seed)
            g = gen_env(cfg)
            t = gen_closed_ty(g, cfg)
            if isinstance(t, Forall):
                hits += 1
                w = fresh(fv(t.body) | {n for n, _ in g.bindings})
                assert closed(open_ty(t.body, w), g.extend(w, t.bound))
        assert hits > 100

    def test_every_constructor_appears(self):
        g = parse_env("X <: Top")
        kinds = set()
        for seed in child_seeds(5, 500):
            t = gen_closed_ty(g, GenConfig(seed=seed))
            kinds.add(type(t).__name__)
        assert kinds == {"Top", "FreeVar", "Arrow", "Forall"}


class TestGenDerivation:
    def test_deterministic(self):
        cfg = GenConfig(seed=11)
        assert derivation_to_json(gen_derivation(cfg)) == derivation_to_json(gen_derivation(cfg))

    def test_depth_one_is_a_leaf(self):
        for seed in child_seeds(6, 100):
            d = gen_derivation(GenConfig(seed=seed, max_deriv_depth=1))
            if not d.premises:
                assert d.rule in (Rule.TOP, Rule.VAR)

    def test_all_valid(self):
        for seed in child_seeds(7, 10000):
            assert check_derivation(gen_derivation(GenConfig(seed=seed)))

    def test_pairs_share_middle_and_env(self):
        for seed in child_seeds(8, 300):
            d1, d2 = gen_derivation_pair(GenConfig(seed=seed))
            assert d1.env == d2.env
            assert d1.rhs == d2.lhs
            out = derive_trans(d1, d2)
            assert check_derivation(out)

    def test_refl_case_scoped(self):
        for seed in child_seeds(9, 500):
            g, t = gen_refl_case(GenConfig(seed=seed))
            assert ok(g) and closed(t, g)

    def test_narrow_instances_run(self):
        chains = 0
        for seed in child_seeds(10, 200):
            split, p, d, d_pq = gen_narrow_instance(GenConfig(seed=seed))
            out = derive_narrow(split, p, d, d_pq)
            assert check_derivation(out)
        for seed in child_seeds(11, 50):
            split, p, d, d_pq = gen_narrow_instance(
                GenConfig(seed=seed), force_pivot_chain=True
            )
            out = derive_narrow(split, p, d, d_pq)
            assert check_derivation(out)
            chains += 1
        assert chains == 50


class TestShrink:
    def test_empty_env_has_no_shrinks(self):
        assert list(shrink_env(EMPTY_ENV)) == []

    def test_env_candidates_stay_ok_and_smaller(self):
        g = parse_env("X <: Top, Y <: X, Z <: Top")
        candidates = list(shrink_env(g))
        assert candidates
        for smaller in candidates:
            assert ok(smaller)
            measure = (len(smaller), sum(size(b) for _, b in smaller.bindings))
            assert measure < (len(g), sum(size(b) for _, b in g.bindings))

    def test_env_bound_is_blunted_to_top(self):
        g = parse_env("X <: Top, Y <: X -> X")
        assert list(shrink_env(g)) == [parse_env("X <: Top"), parse_env("X <: Top, Y <: Top")]

    def test_derivation_shrinks_to_its_premises(self):
        g, lhs, rhs = parse_judgment("X <: Top |- All Y <: X . Y <: All Y <: X . Y")
        d = decide_sub(g, lhs, rhs).derivation
        assert list(shrink(d)) == list(d.premises)

    def test_dependent_binding_not_dropped(self):
        g = parse_env("X <: Top, Y <: X")
        for smaller in shrink_env(g):
            assert ok(smaller)

    def test_ty_candidates_closed_and_smaller(self):
        g = parse_env("X <: Top")
        t = parse_type("(X -> Top) -> All Y <: X . Y")
        seen = 0
        for smaller in shrink_ty(t, g):
            assert size(smaller) < size(t)
            assert closed(smaller, g)
            seen += 1
        assert seen > 0

    def test_top_has_no_ty_shrinks(self):
        assert list(shrink_ty(Top())) == []

    def test_ty_candidates_match_the_recursive_shrinker(self):
        for seed in child_seeds(5, 300):
            g, t = gen_refl_case(GenConfig(seed=seed))
            assert list(shrink_ty(t, g)) == list(reference.shrink_ty(t, g))

    @pytest.mark.parametrize(
        "text, count",
        [(" -> ".join(["X"] * 201), 600), ("".join(f"All Y{i} <: Top . " for i in range(200)) + "X", 400)],
        ids=["arrows", "quantifiers"],
    )
    def test_deep_types_shrink_without_recursing(self, text, count):
        # Every arrow offers Top and its two sides, every quantifier Top and
        # its bound.  The interpreter's stack is capped 100 frames above this
        # test's own, which a shrinker recursing once per level overruns.
        g, t = parse_env("X <: Top"), parse_type(text)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            candidates = list(shrink(t, g))
        finally:
            sys.setrecursionlimit(limit)
        assert len(candidates) == count

    def test_derivation_candidates_valid_and_lower(self):
        cfg = GenConfig(seed=21, max_deriv_depth=4)
        d = gen_derivation(cfg)
        for smaller in shrink_derivation(d):
            assert derivation_height(smaller) < derivation_height(d)
            assert check_derivation(smaller)

    def test_derivation_candidates_of_a_long_chain(self):
        g, lhs, rhs = variable_chain(2_000)
        d = decide_sub(g, lhs, rhs, fuel=2_001).derivation
        candidates = list(shrink_derivation(d))
        assert len(candidates) == 2_000
        assert [c.lhs for c in candidates[:2]] == [FreeVar("X1999"), FreeVar("X1998")]
        assert candidates[-1].rule == Rule.VAR

    def test_dispatcher(self):
        assert list(shrink(EMPTY_ENV)) == []
        assert list(shrink(Top())) == []
        with pytest.raises(PreconditionError):
            list(shrink("not a shrinkable value"))


class TestEnumerators:
    def test_types_size_three_two_names(self):
        tys = enumerate_types(["X0", "X1"], 3)
        assert len(tys) == 24
        assert len(set(tys)) == 24
        assert all(size(t) <= 3 for t in tys)

    def test_types_include_nested_binders_at_size_five(self):
        tys = enumerate_types(["X0"], 5)
        target = parse_type("All A <: Top . All B <: Top . A")
        assert target in tys

    def test_ok_envs_count(self):
        envs = enumerate_ok_envs(["X0", "X1"], 2, 3)
        assert len(envs) == 105
        assert all(ok(g) for g in envs)

    def test_judgment_universe_size(self):
        total = sum(1 for _ in enumerate_judgments(["X0", "X1"], 3, 2))
        assert total == 56464

    def test_judgments_are_scoped(self):
        for g, s, t in enumerate_judgments(["X0"], 2, 1):
            assert ok(g) and closed(s, g) and closed(t, g)


class TestPinnedOutput:
    """SHA-256 digests of generated output, so that the corpus for a seed
    stays the same from one version to the next."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--seed", "1001", "--count", "500", "--max-env", "6", "--max-size", "16"],
                "13ec690a1bf1b25efe8346a79156fbc4854573b752063a721eb0dd63c193eca2",
            ),
            (
                ["--seed", "1001", "--count", "50", "--derivations"],
                "6eb7bb7586bb5ab0a64b37fda9e7f3b30fabd764088aab52f519a59b5d766ef4",
            ),
        ],
    )
    def test_gen_command(self, argv, digest, capsys):
        assert run(["gen", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_enumerated_judgments(self):
        h = hashlib.sha256()
        for g, s, t in enumerate_judgments(["X0", "X1"], 3, 2):
            h.update(print_judgment(g, s, t).encode())
            h.update(b"\n")
        assert h.hexdigest() == "ebab67b6fb7084962e322d46ebbc117a10b40be1718d0869b80ae6954376c1c1"


# Environments whose names are not all `X<n>`, one with a duplicate name and
# one whose bound mentions an undeclared name, beside the generated ones.
HAND_WRITTEN_ENVS = (
    EMPTY_ENV,
    parse_env("A <: Top, B <: A -> A"),
    parse_env("X1 <: Top, Y <: All Z <: X1 . Z -> Y0"),
    Env.from_decls([("X0", Top()), ("X0", FreeVar("X0"))]),
    Env.from_decls([("Y", FreeVar("X0"))]),
)

GEN_ENVS = st.one_of(
    st.builds(lambda seed, n: gen_env(GenConfig(seed=seed, max_env_len=n)), seeds, st.integers(0, 6)),
    st.builds(
        lambda seed, base: gen_env_extension(base, GenConfig(seed=seed, max_env_len=3)),
        seeds,
        st.sampled_from(HAND_WRITTEN_ENVS),
    ),
    st.sampled_from(HAND_WRITTEN_ENVS),
)


class TestAgainstReference:
    """The index-building generator and enumerator agree with the named ones
    in `reference_gen`."""

    @given(GEN_ENVS, st.integers(1, 40), seeds)
    def test_gen_ty_same_type_and_stream(self, g, budget, seed):
        rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
        assert _gen_ty(g, budget, rng) is reference._gen_ty(g, budget, ref_rng)
        assert rng._state == ref_rng._state

    @pytest.mark.parametrize("names", [[], ["X0"], ["X0", "X1"], ["X1", "Y"]])
    def test_enumerate_types_same_list(self, names):
        assert enumerate_types(names, 6) == reference.enumerate_types(names, 6)
