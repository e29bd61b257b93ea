"""Derivation trees, the two checkers, the decision procedure, the
declarative comparison system, and both serialization formats."""

import json
import time

import pytest
from hypothesis import given, strategies as st

from fsub.gen import GenConfig, gen_derivation
from fsub import subtyper
from fsub.judgments import EMPTY_ENV, Env, names_in_env
from fsub.parser import ParseError, parse_env, parse_judgment, parse_type, print_judgment, print_type
from fsub.subtyper import (
    DEFAULT_FUEL,
    DeclarativeSearch,
    Derivation,
    No,
    Rule,
    Unknown,
    Yes,
    check_derivation,
    check_derivation_implicit,
    decide_sub,
    decide_sub_declarative,
    derivation_from_json,
    derivation_height,
    derivation_to_json,
    derivation_to_text,
    diagnose_derivation,
    diagnose_derivation_implicit,
    iter_nodes,
    names_in_derivation,
    rename_var_in_derivation,
    replace_witness,
    to_explicit,
    to_implicit,
)
from fsub.syntax import Arrow, BoundIdx, Forall, FreeVar, Top, fresh, subst_var
from strategies import seeds, variable_chain

X_TOP = parse_env("X <: Top")
X_TOP_Y_X = parse_env("X <: Top, Y <: X")


def decide_yes(text: str, fuel: int = 1000) -> Derivation:
    g, lhs, rhs = parse_judgment(text)
    result = decide_sub(g, lhs, rhs, fuel=fuel)
    assert isinstance(result, Yes), result
    return result.derivation


class TestChecker:
    def test_top_leaf(self):
        d = Derivation(Rule.TOP, EMPTY_ENV, Top(), Top())
        assert check_derivation(d)

    def test_var_leaf(self):
        d = Derivation(Rule.VAR, X_TOP, FreeVar("X"), FreeVar("X"))
        assert check_derivation(d)

    def test_trs_premise_must_start_at_the_bound(self):
        # Y's bound is X, so the premise has to conclude X <: Top; a premise
        # restating Y <: Top is a well-formed tree but an invalid chain.
        good = Derivation(
            Rule.TRS,
            X_TOP_Y_X,
            FreeVar("Y"),
            Top(),
            (Derivation(Rule.TOP, X_TOP_Y_X, FreeVar("X"), Top()),),
        )
        bad = Derivation(
            Rule.TRS,
            X_TOP_Y_X,
            FreeVar("Y"),
            Top(),
            (Derivation(Rule.TOP, X_TOP_Y_X, FreeVar("Y"), Top()),),
        )
        assert check_derivation(good)
        assert not check_derivation(bad)
        assert "premise" in (diagnose_derivation(bad) or "")

    @pytest.mark.parametrize("where, path", [((), "root"), ((1,), "root.1"), ((1, 0), "root.1.0"), ((1, 1), "root.1.1")])
    def test_reports_the_first_offending_path(self, where, path):
        # Swap one node of a valid tree for a `var` node relating Top to
        # itself: its parent's conditions still hold, its own do not.
        def swap(node, rest):
            if not rest:
                return Derivation(Rule.VAR, node.env, node.lhs, node.rhs)
            premises = list(node.premises)
            premises[rest[0]] = swap(premises[rest[0]], rest[1:])
            return Derivation(node.rule, node.env, node.lhs, node.rhs, tuple(premises), node.witness)

        d = decide_yes("|- Top -> Top -> Top <: Top -> Top -> Top")
        problem = "a reflexivity node relates a variable to itself"
        assert diagnose_derivation(swap(d, where)) == f"{path}: {problem}"

    def test_rejects_not_ok_env(self):
        g = parse_env("X <: Y")
        d = Derivation(Rule.TOP, g, Top(), Top())
        assert not check_derivation(d)

    def test_rejects_unclosed_side(self):
        d = Derivation(Rule.TOP, X_TOP, FreeVar("Z"), Top())
        assert not check_derivation(d)

    def test_rejects_wrong_arity(self):
        d = Derivation(
            Rule.TOP,
            EMPTY_ENV,
            Top(),
            Top(),
            (Derivation(Rule.TOP, EMPTY_ENV, Top(), Top()),),
        )
        assert not check_derivation(d)

    def test_rejects_witness_on_non_quantifier(self):
        d = Derivation(Rule.TOP, EMPTY_ENV, Top(), Top(), witness="X0")
        assert not check_derivation(d)

    def test_rejects_stale_witness(self):
        d = decide_yes("|- All X <: Top . X <: All X <: Top . Top")
        clashing = replace_witness(d, "X9")
        clashing = Derivation(
            clashing.rule,
            clashing.env,
            clashing.lhs,
            clashing.rhs,
            clashing.premises,
            witness="X0",
        )
        # body premises still use X9, conclusion says X0
        assert not check_derivation(clashing)

    @pytest.mark.parametrize("implicit", [False, True])
    def test_reports_a_witness_that_is_not_a_name(self, implicit):
        d = decide_yes("|- All X <: Top . X <: All X <: Top . Top")
        if implicit:
            d = to_implicit(d)
        diagnose = diagnose_derivation_implicit if implicit else diagnose_derivation
        for witness in ("1x", "Top", "All"):
            bad = Derivation(d.rule, d.env, d.lhs, d.rhs, d.premises, witness=witness)
            assert diagnose(bad) == f"root: witness {witness!r} is not a variable name"

    def test_arr_premises_flip(self):
        d = decide_yes("X <: Top |- Top -> X <: X -> Top")
        assert d.rule == Rule.ARR
        assert d.premises[0].concl == (X_TOP, FreeVar("X"), Top())


class TestDecideSub:
    def test_top_reflexive(self):
        result = decide_sub(EMPTY_ENV, Top(), Top(), fuel=10)
        assert isinstance(result, Yes)
        assert result.derivation.rule == Rule.TOP

    def test_top_right_short_circuits(self):
        g, lhs, rhs = parse_judgment("X <: Top, Y <: X |- Y <: Top")
        result = decide_sub(g, lhs, rhs, fuel=10)
        assert isinstance(result, Yes)
        assert result.derivation.rule == Rule.TOP

    def test_quantifier(self):
        g, lhs, rhs = parse_judgment("|- All X <: Top . X <: All X <: Top . Top")
        result = decide_sub(g, lhs, rhs, fuel=10)
        assert isinstance(result, Yes)
        d = result.derivation
        assert d.rule == Rule.ALL
        assert d.premises[0].rule == Rule.TOP
        assert d.premises[1].rule == Rule.TOP
        assert check_derivation(d)

    def test_top_not_below_arrow(self):
        result = decide_sub(EMPTY_ENV, Top(), Arrow(Top(), Top()), fuel=10)
        assert isinstance(result, No)
        assert result.reason == "no rule applies"

    def test_no_trace_records_goal_path(self):
        g, lhs, rhs = parse_judgment("|- Top -> Top <: Top -> Top -> Top")
        result = decide_sub(g, lhs, rhs, fuel=10)
        assert isinstance(result, No)
        assert result.trace[0] == (g, lhs, rhs)
        assert result.trace[-1] == (g, Top(), Arrow(Top(), Top()))

    def test_scoping_rejected_up_front(self):
        g = parse_env("X <: Top")
        result = decide_sub(g, FreeVar("Z"), Top(), fuel=10)
        assert isinstance(result, No)
        assert result.reason == "left type is not closed in the environment"
        bad_env = parse_env("X <: Y")
        result = decide_sub(bad_env, Top(), Top(), fuel=10)
        assert isinstance(result, No)
        assert result.reason == "environment is not ok"

    def test_fuel_exhaustion(self):
        g, lhs, rhs = parse_judgment("|- Top -> Top <: Top -> Top")
        result = decide_sub(g, lhs, rhs, fuel=1)
        assert result == Unknown(1)
        assert isinstance(decide_sub(g, lhs, rhs, fuel=3), Yes)

    def test_trs_chain_needs_fuel_per_link(self):
        g = parse_env("X <: Top, Y <: X, Z <: Y")
        lhs, rhs = FreeVar("Z"), FreeVar("X")
        assert isinstance(decide_sub(g, lhs, rhs, fuel=3), Yes)
        assert decide_sub(g, lhs, rhs, fuel=2) == Unknown(2)

    def test_yes_output_always_checks(self):
        d = decide_yes("X <: Top, Y <: X |- Top -> Y <: Y -> X")
        assert check_derivation(d)
        assert d.rule == Rule.ARR
        assert d.premises[1].rule == Rule.TRS


class TestImplicitExplicit:
    def test_round_trip_top_leaf(self):
        d = Derivation(Rule.TOP, EMPTY_ENV, Top(), Top())
        i = to_implicit(d)
        assert i.rule == Rule.I_TOP
        assert check_derivation_implicit(i)
        back = to_explicit(i)
        assert back == d

    def test_refl_node_becomes_var(self):
        i = Derivation(Rule.I_REFL, X_TOP, FreeVar("X"), FreeVar("X"))
        assert check_derivation_implicit(i)
        e = to_explicit(i)
        assert e.rule == Rule.VAR
        assert check_derivation(e)

    def test_implicit_checker_skips_ok(self):
        # An env that is not ok: the explicit checker refuses, the implicit
        # one has no such obligation.
        g = parse_env("X <: Y, Y <: Top")
        e = Derivation(Rule.TOP, g, Top(), Top())
        assert not check_derivation(e)
        i = Derivation(Rule.I_TOP, g, Top(), Top())
        assert check_derivation_implicit(i)

    def test_to_explicit_requires_scoped_root(self):
        g = parse_env("X <: Y, Y <: Top")
        i = Derivation(Rule.I_TOP, g, Top(), Top())
        with pytest.raises(Exception):
            to_explicit(i)

    @given(seeds)
    def test_generated_round_trips(self, seed):
        from fsub.gen import GenConfig, gen_derivation

        d = gen_derivation(GenConfig(seed=seed))
        i = to_implicit(d)
        assert check_derivation_implicit(i)
        back = to_explicit(i)
        assert check_derivation(back)
        assert back.concl == d.concl


class TestWitnessInvariance:
    def test_renaming_preserves_validity(self):
        d = decide_yes("|- All X <: Top . X -> X <: All X <: Top . X -> Top")
        assert d.witness is not None
        renamed = replace_witness(d, "W9" if d.witness != "W9" else "W8")
        assert renamed.witness != d.witness
        assert check_derivation(renamed)
        assert renamed.concl == d.concl

    def test_clashing_name_rejected(self):
        g = parse_env("X <: Top")
        d = decide_yes("X <: Top |- All Y <: X . Y <: All Y <: X . X")
        clashed = replace_witness(d, "X")
        assert not check_derivation(clashed)

    @given(seeds)
    def test_shared_renaming_agrees_with_renaming_each_node(self, seed):
        # One memo serves the whole tree; renaming each node on its own is
        # the reference.
        d = gen_derivation(GenConfig(seed=seed))
        names = names_in_derivation(d)
        new = fresh(names)
        for old in sorted(names):
            expected = [
                (
                    node.rule,
                    Env(tuple((new if x == old else x, subst_var(b, old, new)) for x, b in node.env.bindings)),
                    subst_var(node.lhs, old, new),
                    subst_var(node.rhs, old, new),
                    new if node.witness == old else node.witness,
                )
                for _, node in iter_nodes(d)
            ]
            renamed = rename_var_in_derivation(d, old, new)
            assert [(node.rule, *node.concl, node.witness) for _, node in iter_nodes(renamed)] == expected


class TestDeclarative:
    def test_reflexivity_at_depth_one(self):
        assert decide_sub_declarative(EMPTY_ENV, Top(), Top(), 1)
        t = parse_type("All X <: Top . X -> X")
        assert decide_sub_declarative(EMPTY_ENV, t, t, 1)

    def test_hypothesis_and_transitivity(self):
        g, lhs, rhs = parse_judgment("X <: Top, Y <: X |- Y <: Top")
        assert decide_sub_declarative(g, lhs, rhs, 8)
        g, lhs, rhs = parse_judgment("X <: Top, Y <: X |- Y <: X")
        assert decide_sub_declarative(g, lhs, rhs, 8)

    def test_refutation(self):
        assert not decide_sub_declarative(EMPTY_ENV, Top(), Arrow(Top(), Top()), 8)

    def test_search_object_is_reusable(self):
        search = DeclarativeSearch()
        assert decide_sub_declarative(EMPTY_ENV, Top(), Top(), 4, search=search)
        g, lhs, rhs = parse_judgment("X <: Top |- X <: Top")
        assert decide_sub_declarative(g, lhs, rhs, 4, search=search)


GOLDEN_TEXT = """\
(trs) X <: Top, Y <: X |- Y <: X
  (var) X <: Top, Y <: X |- X <: X"""

GOLDEN_JSON = (
    '{"rule": "trs", "env": "X <: Top, Y <: X", "lhs": "Y", "rhs": "X",'
    ' "witness": null, "premises": [{"rule": "var", "env": "X <: Top, Y <: X",'
    ' "lhs": "X", "rhs": "X", "witness": null, "premises": []}]}'
)


class TestSerialization:
    def test_text_golden(self):
        d = decide_yes("X <: Top, Y <: X |- Y <: X")
        assert derivation_to_text(d) == GOLDEN_TEXT

    def test_text_shows_witness(self):
        d = decide_yes("|- All X <: Top . X <: All X <: Top . Top")
        first_line = derivation_to_text(d).splitlines()[0]
        assert first_line.startswith(f"(all {d.witness})")

    def test_json_golden(self):
        d = decide_yes("X <: Top, Y <: X |- Y <: X")
        assert derivation_to_json(d) == GOLDEN_JSON

    def test_json_round_trip(self):
        d = decide_yes("X <: Top |- All Y <: X . Y -> Y <: All Y <: X . Y -> Top")
        back = derivation_from_json(derivation_to_json(d))
        assert back == d
        assert check_derivation(back)

    def test_json_key_order(self):
        d = decide_yes("|- Top <: Top")
        keys = list(json.loads(derivation_to_json(d)).keys())
        assert keys == ["rule", "env", "lhs", "rhs", "witness", "premises"]

    @given(seeds)
    def test_generated_round_trips(self, seed):
        from fsub.gen import GenConfig, gen_derivation

        d = gen_derivation(GenConfig(seed=seed))
        back = derivation_from_json(derivation_to_json(d))
        assert back == d
        # Node by node, each conclusion the very same interned objects.
        rows = [(path, node.rule, node.witness) for path, node in iter_nodes(d)]
        assert [(path, node.rule, node.witness) for path, node in iter_nodes(back)] == rows
        assert all(a is b for (_, x), (_, y) in zip(iter_nodes(d), iter_nodes(back)) for a, b in zip(x.concl, y.concl))

    # GOLDEN_JSON repeats its environment at both nodes.  Only strings that
    # parse are memoized, so a bad one fails wherever it occurs first.
    @pytest.mark.parametrize("where", ["both", "root", "premise"])
    @pytest.mark.parametrize(
        "key, good, bad, parse",
        [("env", "X <: Top, Y <: X", "X <: Top, Y <: X,", parse_env), ("rhs", "X", "X ->", parse_type)],
    )
    def test_malformed_repeated_string_raises_as_parsed_alone(self, where, key, good, bad, parse):
        with pytest.raises(ParseError) as alone:
            parse(bad)
        obj = json.loads(GOLDEN_JSON)
        for node in {"both": (obj, obj["premises"][0]), "root": (obj,), "premise": (obj["premises"][0],)}[where]:
            assert node[key] == good
            node[key] = bad
        with pytest.raises(ParseError) as info:
            derivation_from_json(json.dumps(obj))
        assert str(info.value) == str(alone.value)
        assert (info.value.pos, info.value.expected) == (alone.value.pos, alone.value.expected)

    def test_writers_print_each_distinct_type_once(self, monkeypatch):
        # Below a quantifier node the environment grows by one binding, so
        # the bounds of a long environment recur at every node beneath it.
        d = decide_yes("|- All A <: Top . All B <: A . All C <: B . C <: All A <: Top . All B <: A . All C <: B . C")
        types = {t for _, node in iter_nodes(d) for t in (node.lhs, node.rhs, *(b for _, b in node.env.bindings))}
        writers = {write: write(d) for write in (derivation_to_text, derivation_to_json)}
        printed = []
        monkeypatch.setattr(subtyper, "print_type", lambda t: printed.append(t) or print_type(t))
        for write, text in writers.items():
            printed.clear()
            assert write(d) == text
            assert sorted(map(id, printed)) == sorted(map(id, types))

    def test_rejects_unknown_rule(self):
        for tag in ("mystery", "D-Hyp", "D-Refl", "D-Trans"):
            with pytest.raises(ValueError, match="unknown rule tag"):
                derivation_from_json(GOLDEN_JSON.replace('"trs"', f'"{tag}"'))

    def test_rejects_missing_key(self):
        obj = json.loads(GOLDEN_JSON)
        del obj["witness"]
        with pytest.raises(ValueError):
            derivation_from_json(json.dumps(obj))

    @pytest.mark.parametrize("witness", ["1x", "", "X Y", 7, "Top", "All"])
    def test_rejects_a_witness_that_is_not_a_name(self, witness):
        obj = json.loads(derivation_to_json(decide_yes("|- All X <: Top . X <: All X <: Top . Top")))
        obj["witness"] = witness
        with pytest.raises(ValueError, match="witness must be a variable name or null"):
            derivation_from_json(json.dumps(obj))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            derivation_from_json("[1, 2]")


class TestHeight:
    def test_leaf(self):
        assert derivation_height(Derivation(Rule.TOP, EMPTY_ENV, Top(), Top())) == 1

    def test_chain(self):
        d = decide_yes("X <: Top, Y <: X |- Y <: X")
        assert derivation_height(d) == 2


def node_count(d: Derivation) -> int:
    return sum(1 for _ in iter_nodes(d))


PIERCE = (
    "X0 <: All X1 <: Top . All Y <: (All X2 <: X1 . All Z <: X2 . Z) . Y"
    " |- X0 <: All X1 <: X0 . All Y <: X1 . Y"
)


class TestFuelIsTheOnlyLimit:
    """The decider and the checker run on explicit stacks: neither the depth
    of a goal nor the length of a derivation path meets the interpreter stack."""

    def test_divergent_judgment_is_unknown_at_default_fuel(self):
        g, lhs, rhs = parse_judgment(PIERCE)
        assert decide_sub(g, lhs, rhs) == Unknown(DEFAULT_FUEL)

    def test_deep_arrow_reflexivity(self):
        n = 10_000
        t = parse_type(" -> ".join(["X"] * (n + 1)))
        result = decide_sub(X_TOP, t, t, fuel=2 * n + 1)
        assert isinstance(result, Yes)
        assert node_count(result.derivation) == 2 * n + 1
        # Compared as text: structural equality of deep types still recurses.
        assert print_judgment(*result.derivation.concl) == print_judgment(X_TOP, t, t)

    def test_long_variable_chain_decides_and_checks(self):
        g, lhs, rhs = variable_chain(2_000)
        result = decide_sub(g, lhs, rhs, fuel=2_001)
        assert isinstance(result, Yes)
        assert node_count(result.derivation) == 2_001
        assert check_derivation(result.derivation)
        assert decide_sub(g, lhs, rhs, fuel=2_000) == Unknown(2_000)

    @pytest.mark.parametrize("fuel", [0, -1])
    def test_no_fuel_is_unknown(self, fuel):
        assert decide_sub(EMPTY_ENV, Top(), Top(), fuel=fuel) == Unknown(fuel)

    @pytest.mark.parametrize(
        "text",
        [
            "|- Top <: Top",
            "X <: Top, Y <: X |- Top -> Y <: Y -> X",
            "|- All X <: Top . X -> X <: All Y <: Top . Y -> Top",
        ],
    )
    def test_fuel_of_exactly_the_node_count_suffices(self, text):
        g, lhs, rhs = parse_judgment(text)
        nodes = node_count(decide_yes(text))
        assert isinstance(decide_sub(g, lhs, rhs, fuel=nodes), Yes)
        assert decide_sub(g, lhs, rhs, fuel=nodes - 1) == Unknown(nodes - 1)

    def test_no_trace_runs_from_the_query_to_the_stuck_goal(self):
        g, lhs, rhs = parse_judgment("X <: Top |- X -> (X -> X) <: X -> (X -> Top -> Top)")
        result = decide_sub(g, lhs, rhs)
        assert isinstance(result, No)
        assert result.trace == (
            (g, lhs, rhs),
            (g, lhs.cod, rhs.cod),
            (g, FreeVar("X"), Arrow(Top(), Top())),
            (g, Top(), Arrow(Top(), Top())),
        )


def node_rows(d: Derivation) -> list:
    """Each node's rule, conclusion and witness in preorder: equality of deep
    derivations without the recursive dataclass `__eq__` of `Derivation`.
    Conclusions compare by identity: types and environments are hash-consed."""
    return [(node.rule, node.concl, node.witness) for _, node in iter_nodes(d)]


class TestDeepDerivations:
    """The derivation walks run on explicit stacks: a derivation deeper than
    the interpreter stack goes through each of them."""

    @pytest.fixture(scope="class")
    def chain(self) -> Derivation:
        g, lhs, rhs = variable_chain(2_000)
        return decide_sub(g, lhs, rhs, fuel=2_001).derivation

    def test_height_of_a_long_chain(self, chain):
        assert derivation_height(chain) == 2_001

    def test_retagging_round_trip(self, chain):
        implicit = to_implicit(chain)
        assert implicit.rule == Rule.I_TRANS
        assert node_rows(to_explicit(implicit)) == node_rows(chain)

    def test_replace_witness_through_a_deep_body(self):
        n = 1_000
        t = parse_type("All Y <: Top . " + " -> ".join(["Y"] + ["Top"] * n))
        d = decide_sub(EMPTY_ENV, t, t, fuel=2 * n + 3).derivation
        renamed = replace_witness(d, "W")
        assert renamed.witness == "W"
        assert node_count(renamed) == node_count(d) == 2 * n + 3
        assert check_derivation(renamed)


def best_of_three(fn) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestLinearWalks:
    """Checking and collecting names cost time linear in the derivation: each
    node reads its types' cached facts, and each distinct environment is
    scanned once."""

    def test_checking_costs_no_more_than_deciding(self):
        n = 2_000
        t = parse_type(" -> ".join(["X"] * (n + 1)))
        d = decide_sub(X_TOP, t, t, fuel=2 * n + 1).derivation
        decide = best_of_three(lambda: decide_sub(X_TOP, t, t, fuel=2 * n + 1))
        check = best_of_three(lambda: check_derivation(d))
        assert check <= 3 * decide, (check, decide)

    def test_checking_scans_each_environment_once(self):
        # Every leaf of the reflexivity derivation is a `var` node in an
        # environment of 2,001 bindings whose oldest one declares X: its ok
        # check and its lookup of X are answered once for the whole tree.
        n = 1_000
        g = Env.from_decls([("X", Top())] + [(f"P{i}", Top()) for i in range(2_000)])
        t = parse_type(" -> ".join(["X"] * (n + 1)))
        d = decide_sub(g, t, t, fuel=2 * n + 1).derivation
        decide = best_of_three(lambda: decide_sub(g, t, t, fuel=2 * n + 1))
        check = best_of_three(lambda: check_derivation(d))
        assert check <= 3 * decide, (check, decide)

    def test_deciding_and_checking_a_chain_scan_its_environment_once(self, monkeypatch):
        # Each of the 4,000 `trs` goals and nodes looks its variable up; one
        # scan of the bindings, on the first scope question, answers them all.
        g, lhs, rhs = variable_chain(4_000)
        field = Env.bindings
        reads = []

        class Counted:
            def __get__(self, env, owner=None):
                if env is g:
                    reads.append(env)
                return field.__get__(env, owner)

            def __set__(self, env, value):
                field.__set__(env, value)

        monkeypatch.setattr(Env, "bindings", Counted())
        result = decide_sub(g, lhs, rhs, fuel=4_001)
        assert isinstance(result, Yes)
        assert check_derivation(result.derivation)
        assert len(reads) == 1

    def test_names_scan_each_environment_once(self, monkeypatch):
        g, lhs, rhs = variable_chain(2_000)
        d = decide_sub(g, lhs, rhs, fuel=2_001).derivation
        scanned = []

        def counting(env: Env) -> frozenset:
            scanned.append(env)
            return names_in_env(env)

        monkeypatch.setattr(subtyper, "names_in_env", counting)
        assert node_count(d) == 2_001
        assert names_in_derivation(d) == {f"X{i}" for i in range(2_001)}
        assert scanned == [g]
