"""Derivation trees, the two checkers, the decision procedure, the
declarative comparison system, and both serialization formats."""

import copy
import gc
import json
import pickle
import random
import time
import typing
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from fsub.errors import MalformedTypeError, PreconditionError
from fsub.gen import GenConfig, child_seeds, enumerate_judgments, enumerate_types, gen_derivation
from fsub import judgments, parser, subtyper
from fsub.judgments import EMPTY_ENV, Env, env_concat
from fsub.parser import (
    ParseError,
    Printer,
    parse_env,
    parse_judgment,
    parse_type,
    print_env,
    print_judgment,
    print_type,
)
from fsub.subtyper import (
    ARITY,
    DEFAULT_FUEL,
    DeclarativeSearch,
    Derivation,
    No,
    Rule,
    SubResult,
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
    preorder,
    scoping_problem,
    to_explicit,
    to_implicit,
)
from fsub.subtyper import _diagnose_node as diagnose_node
from fsub.syntax import Arrow, BoundIdx, Forall, FreeVar, Top, nodes, open_ty, size
from naive import to_ln
from strategies import envs_with_closed_ty, named_types, seeds, unseen_name, variable_chain
import reference_json
import reference_parser
import reference_walks as reference
import scaling  # puts perfbench/ on the path, for `workloads`
from workloads import DEEP_SIZES

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
        bad = swap(d, where)
        assert diagnose_derivation(bad) == f"{path}: {problem}"
        assert diagnose_derivation(bad) == f"{path}: {problem}"
        # Every subtree of `bad` but the swapped node's ancestors is valid
        # and now marked so.
        assert check_derivation(d)
        assert diagnose_derivation(bad) == f"{path}: {problem}"

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
        clashing = reference.replace_witness(d, "X9")
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

    @pytest.mark.parametrize(
        "rule, env, lhs, rhs, witness, problem",
        [
            (Rule.TOP, X_TOP, BoundIdx(0), Top(), None, "conclusion contains an escaped bound index"),
            (Rule.TOP, EMPTY_ENV, Top(), Arrow(Top(), Top()), None, "right side of a top node must be Top"),
            (Rule.VAR, parse_env("X <: Y"), FreeVar("X"), FreeVar("X"), None, "environment is not ok"),
            (Rule.VAR, EMPTY_ENV, FreeVar("X"), FreeVar("X"), None, "variable 'X' is not declared"),
            (Rule.TRS, X_TOP, Top(), Top(), None, "left side of a bound-chaining node must be a variable"),
            (Rule.TRS, X_TOP, FreeVar("Z"), Top(), None, "variable 'Z' is not declared"),
            (Rule.ARR, X_TOP, Top(), Arrow(Top(), Top()), None, "both sides of an arrow node must be arrows"),
            (Rule.ALL, X_TOP, Top(), Top(), "X0", "both sides of a quantifier node must be universals"),
            (
                Rule.ALL,
                EMPTY_ENV,
                parse_type("All Y <: Top . X"),
                parse_type("All Y <: Top . Top"),
                "X",
                "witness 'X' occurs free under a quantifier body",
            ),
        ],
    )
    def test_reports_each_condition_of_a_node(self, rule, env, lhs, rhs, witness, problem):
        # A node of `rule` over premises that are themselves valid leaves, so
        # the root's own condition is the problem reported.
        premises = tuple(Derivation(Rule.TOP, EMPTY_ENV, Top(), Top()) for _ in range(ARITY[rule]))
        d = Derivation(rule, env, lhs, rhs, premises, witness)
        assert diagnose_derivation(d) == f"root: {problem}"

    def test_rejections_outside_the_checker(self):
        result = decide_sub(X_TOP, Top(), FreeVar("Z"))
        assert isinstance(result, No) and result.reason == "right type is not closed in the environment"


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


class TestSubResult:
    """The public alias of `decide_sub`'s result type."""

    def test_its_members_are_the_three_verdicts(self):
        assert typing.get_args(SubResult) == (Yes, No, Unknown)
        assert SubResult == typing.Union[Yes, No, Unknown]

    def test_every_result_is_an_instance(self):
        # Small fuel leaves some searches unfinished, so all three verdicts
        # occur.
        kinds = set()
        for g, s, t in enumerate_judgments(["X0", "X1"], 2, 2):
            for fuel in (1, DEFAULT_FUEL):
                result = decide_sub(g, s, t, fuel)
                assert isinstance(result, SubResult)
                kinds.add(type(result))
        assert kinds == {Yes, No, Unknown}


class TestArgumentsOfTheWrongType:
    """The deciders test their arguments' types at entry, in `scoping_problem`,
    so a wrong type is a `TypeError` naming the argument, never an error from
    inside the kernel."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: scoping_problem(None, Top(), Top()), "not an environment: None"),
            (lambda: scoping_problem(EMPTY_ENV, "X", Top()), "not a type: 'X'"),
            (lambda: decide_sub("X <: Top", Top(), Top()), "not an environment: 'X <: Top'"),
            (lambda: decide_sub(EMPTY_ENV, Top(), None), "not a type: None"),
            (lambda: decide_sub_declarative(None, Top(), Top(), 2), "not an environment: None"),
            (lambda: decide_sub_declarative(EMPTY_ENV, "Top", Top(), 2), "not a type: 'Top'"),
            (lambda: derivation_height(None), "not a derivation: None"),
        ],
        ids=["scope-env", "scope-type", "decide-env", "decide-type", "declarative-env", "declarative-type", "height"],
    )
    def test_is_a_type_error(self, call, message):
        with pytest.raises(TypeError) as raised:
            call()
        assert str(raised.value) == message


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

    def test_invalid_trees_are_refused(self):
        g = parse_env("X <: Y, Y <: Top")
        with pytest.raises(PreconditionError, match=r"^root: environment is not ok$"):
            to_implicit(Derivation(Rule.TOP, g, Top(), Top()))
        with pytest.raises(PreconditionError, match=r"^root: right side of a top node must be Top$"):
            to_explicit(Derivation(Rule.I_TOP, EMPTY_ENV, Top(), Arrow(Top(), Top())))

    def test_witness_must_not_be_declared(self):
        # Every other obligation holds: the premises conclude the bounds and
        # the bodies, the body's over the environment extended by the witness.
        g = parse_env("X0 <: Top")
        t = parse_type("All X <: Top . Top")
        premises = (Derivation(Rule.I_TOP, g, Top(), Top()), Derivation(Rule.I_TOP, g.extend("X0", Top()), Top(), Top()))
        i = Derivation(Rule.I_ALL, g, t, t, premises, "X0")
        assert diagnose_derivation_implicit(i) == "root: witness 'X0' is already declared"
        with pytest.raises(PreconditionError, match=r"^root: witness 'X0' is already declared$"):
            to_explicit(i)

    def test_to_explicit_requires_a_closed_root(self):
        i = Derivation(Rule.I_REFL, EMPTY_ENV, FreeVar("Y"), FreeVar("Y"))
        assert check_derivation_implicit(i)
        with pytest.raises(PreconditionError, match=r"^root conclusion is not closed in its environment$"):
            to_explicit(i)

    def test_to_explicit_requires_scoped_root(self):
        g = parse_env("X <: Y, Y <: Top")
        i = Derivation(Rule.I_TOP, g, Top(), Top())
        with pytest.raises(PreconditionError, match=r"^root environment is not ok$"):
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
        renamed = reference.replace_witness(d, "W9" if d.witness != "W9" else "W8")
        assert renamed.witness != d.witness
        assert check_derivation(renamed)
        assert renamed.concl == d.concl

    def test_renaming_to_the_same_witness_is_the_identity(self):
        d = decide_yes("|- All X <: Top . X -> X <: All X <: Top . X -> Top")
        assert reference.replace_witness(d, d.witness) is d

    def test_clashing_name_rejected(self):
        g = parse_env("X <: Top")
        d = decide_yes("X <: Top |- All Y <: X . Y <: All Y <: X . X")
        clashed = reference.replace_witness(d, "X")
        assert not check_derivation(clashed)

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

    @pytest.mark.parametrize("max_depth", [-1, 1.5, True, False, "3", None])
    def test_max_depth_must_be_a_natural_number(self, max_depth):
        with pytest.raises(PreconditionError, match=r"^max_depth must be an integer >= 0, got "):
            decide_sub_declarative(EMPTY_ENV, Top(), Top(), max_depth)

    @pytest.mark.parametrize(
        "line", ["|- Z <: Z", "X <: Top, X <: Top |- X <: X", "X <: Top |- Q -> Top <: Top"],
        ids=["undeclared", "not-ok", "not-closed"],
    )
    def test_a_query_that_is_not_well_scoped_is_not_provable(self, line):
        # As `decide_sub` answers No, though an axiom would prove the goal.
        g, lhs, rhs = parse_judgment(line)
        assert isinstance(decide_sub(g, lhs, rhs), No)
        assert decide_sub_declarative(g, lhs, rhs, 8) is False

    def test_depth_zero_proves_nothing(self):
        assert decide_sub_declarative(EMPTY_ENV, Top(), Top(), 0) is False

    def test_nothing_is_provable_at_height_zero(self):
        assert DeclarativeSearch().provable(EMPTY_ENV, Top(), Top(), 0) is False

    def test_search_object_is_reusable(self):
        search = DeclarativeSearch()
        assert decide_sub_declarative(EMPTY_ENV, Top(), Top(), 4, search=search)
        g, lhs, rhs = parse_judgment("X <: Top |- X <: Top")
        assert decide_sub_declarative(g, lhs, rhs, 4, search=search)

    def test_one_search_at_the_cap_answers_as_deepening_does(self):
        # Provability within height d is monotone in d, so iterative
        # deepening to d and one `provable` call at d agree.  Checked on a
        # seeded sample of the oracle's default judgments at every depth of
        # the oracle's range, with a third search asked only at depth 8, so
        # that its memo holds no answer from a lower depth.
        every = list(enumerate_judgments(["X0", "X1"], 3, 2))
        sample = random.Random(20).sample(every, 3_000)
        deepening, direct, capped = DeclarativeSearch(), DeclarativeSearch(), DeclarativeSearch()
        positives = deeper = 0
        for g, s, t in sample:
            answers = []
            for depth in range(1, 9):
                answer = decide_sub_declarative(g, s, t, depth, search=deepening)
                assert direct.provable(g, s, t, depth) == answer, (g, s, t, depth)
                answers.append(answer)
            assert answers == sorted(answers), (g, s, t, answers)
            assert capped.provable(g, s, t, 8) == answers[-1], (g, s, t)
            positives += answers[-1]
            deeper += answers[-1] and not answers[0]
        # Not vacuous: both verdicts occur, and some positive needs depth > 1.
        assert 0 < positives < len(sample) and deeper > 0


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
        assert back is d
        assert check_derivation(back)

    def test_a_type_text_is_its_own_json_string(self):
        # The writer puts a side's text between quotes as the printer keeps
        # it: a canonical type text holds no character that JSON escapes.
        texts = [print_type(t) for t in enumerate_types(["X0", "X1", "a'", "_b"], 4)]
        for seed in child_seeds(4004, 2_000):
            for _, _, node in preorder(gen_derivation(GenConfig(seed=seed))):
                texts += (print_type(node.lhs), print_type(node.rhs))
        assert len(texts) > 10_000 and any("'" in text for text in texts) and any("All" in text for text in texts)
        for text in texts:
            assert json.dumps(text) == '"' + text + '"'

    def test_an_environment_text_is_escaped(self):
        # A name bound in an `Env` may be any string.
        g = Env.from_decls([('a"b\\é', Top())])
        written = derivation_to_json(Derivation(Rule.TOP, g, Top(), Top()))
        assert json.loads(written)["env"] == 'a"b\\é <: Top'

    def test_json_key_order(self):
        d = decide_yes("|- Top <: Top")
        keys = list(json.loads(derivation_to_json(d)).keys())
        assert keys == ["rule", "env", "lhs", "rhs", "witness", "premises"]

    @given(seeds)
    def test_generated_round_trips(self, seed):
        from fsub.gen import GenConfig, gen_derivation

        d = gen_derivation(GenConfig(seed=seed))
        assert derivation_from_json(derivation_to_json(d)) is d

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

    def test_rejects_unknown_rule(self):
        for tag in ("mystery", "D-Hyp", "D-Refl", "D-Trans"):
            with pytest.raises(ValueError, match="unknown rule tag"):
                derivation_from_json(GOLDEN_JSON.replace('"trs"', f'"{tag}"'))

    # A tag is looked up among the rule values only when it is a string, so
    # an unhashable one is an unknown tag too, not a TypeError.
    @pytest.mark.parametrize("tag", ["TOP", "", 1, None, True, ["top"], {"tag": "top"}])
    def test_rejects_a_tag_that_is_not_a_rule_value(self, tag):
        obj = json.loads(GOLDEN_JSON)
        obj["premises"][0]["rule"] = tag
        with pytest.raises(ValueError) as info:
            derivation_from_json(json.dumps(obj))
        assert str(info.value) == f"unknown rule tag: {tag!r}"

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

    @pytest.mark.parametrize(
        "key, value, problem",
        [("premises", {}, "premises must be a list"), ("env", 1, "env must be a string of surface syntax")],
    )
    def test_rejects_a_field_of_the_wrong_type(self, key, value, problem):
        obj = json.loads(GOLDEN_JSON)
        obj[key] = value
        with pytest.raises(ValueError) as info:
            derivation_from_json(json.dumps(obj))
        assert str(info.value) == problem


def quantifier_nest(n: int, name: str) -> str:
    """n nested quantifiers, each bounded by the one outside it, with the
    innermost body `Y<n-1> -> name`, compared with themselves."""
    t = " ".join(["All Y0 <: Top ."] + [f"All Y{i} <: Y{i - 1} ." for i in range(1, n)]) + f" Y{n - 1} -> {name}"
    return f"X <: Top, {name} <: Top |- {t} <: {t}"


def arrow_tower(n: int, name: str) -> str:
    """A_n <: A_n with A_0 = name and A_k = A_(k-1) -> X, nested to the left."""
    t = name
    for _ in range(n):
        t = f"({t}) -> X"
    return f"X <: Top, {name} <: Top |- {t} <: {t}"


@pytest.fixture()
def composed(monkeypatch):
    """Every text a printer composes, wherever it keeps it: the node, for a
    locally closed node, whose text is kept on the node itself, or the node
    with the names of the binders its escaping indices reach, for a text the
    printer keeps."""
    keys = []

    class Texts(dict):
        def __setitem__(self, key, text):
            keys.append(key)
            super().__setitem__(key, text)

    init = Printer.__init__

    def counting_init(self):
        init(self)
        self.texts = Texts()

    set_text = parser._set_text

    def counting_set_text(node, text):
        keys.append(node)
        set_text(node, text)

    monkeypatch.setattr(Printer, "__init__", counting_init)
    monkeypatch.setattr(parser, "_set_text", counting_set_text)
    return keys


@pytest.fixture()
def parsed(monkeypatch):
    """Every string the reader hands to a parser."""
    strings = []

    def parse_type(text):
        strings.append(text)
        return parser.parse_type(text)

    def parse_env(text):
        strings.append(text)
        return parser.parse_env(text)

    monkeypatch.setattr(subtyper, "parse_type", parse_type)
    monkeypatch.setattr(subtyper, "parse_env", parse_env)
    return strings


def compound_nodes(d: Derivation) -> set:
    """Every arrow and quantifier node of the conclusions and environment
    bounds of `d`."""
    types = {node.lhs for _, node in iter_nodes(d)} | {node.rhs for _, node in iter_nodes(d)}
    types |= {bound for _, node in iter_nodes(d) for _, bound in node.env.bindings}
    return {node for t in types for node, _ in nodes(t) if isinstance(node, (Arrow, Forall))}


class TestTextWorkIsLinear:
    """On a 200-quantifier nest and a 200-arrow tower, whose n + 1 distinct
    conclusions repeat the subterms of the root, the writers compose each
    text once and the reader parses only the root's strings.  A locally
    closed node keeps its text, so each test builds its derivation over a
    name from `unseen_name()`: every closed node of it is new, and no other
    test can have printed it."""

    N = 200
    SHAPES = [quantifier_nest, arrow_tower]

    def unseen(self, shape) -> Derivation:
        d = decide_yes(shape(self.N, unseen_name()), fuel=10 * self.N)
        assert all(node._text is None for node in compound_nodes(d))
        return d

    @pytest.mark.parametrize("shape", SHAPES, ids=["forall", "arrow"])
    def test_writers_compose_each_node_under_its_binder_names_once(self, composed, shape):
        for write in (derivation_to_text, derivation_to_json):
            d = self.unseen(shape)
            composed.clear()
            write(d)
            # A key is a node, or a node with the names of the binders its
            # escaping indices reach.
            assert len(set(composed)) == len(composed)
            assert {key[0] if isinstance(key, tuple) else key for key in composed} == compound_nodes(d)
            assert len(composed) <= 4 * self.N

    @pytest.mark.parametrize("shape", SHAPES, ids=["forall", "arrow"])
    def test_a_second_writer_call_composes_nothing(self, composed, shape):
        # Every type a writer prints at the top level is locally closed, so
        # once its text is on the node no writer composes it or its subterms.
        d = self.unseen(shape)
        text = derivation_to_json(d)
        composed.clear()
        assert derivation_to_json(d) == text
        derivation_to_text(d)
        assert composed == []

    @pytest.mark.parametrize("shape", SHAPES, ids=["forall", "arrow"])
    def test_printing_subterms_first_composes_each_closed_node_once(self, composed, shape):
        # Printed leaves first, each conclusion's closed subterms already
        # have their texts, which the printer reads instead of composing.
        d = self.unseen(shape)
        composed.clear()
        for _, node in reversed(list(iter_nodes(d))):
            print_type(node.lhs)
        closed = [key for key in composed if not isinstance(key, tuple)]
        assert len(closed) == len(set(closed))

    @pytest.mark.parametrize("shape", SHAPES, ids=["forall", "arrow"])
    def test_reading_back_composes_nothing(self, composed, shape):
        d = self.unseen(shape)
        text = derivation_to_json(d)
        composed.clear()
        assert derivation_from_json(text) is d
        assert composed == []

    @pytest.mark.parametrize("shape", SHAPES, ids=["forall", "arrow"])
    def test_reader_parses_only_the_root_strings(self, parsed, shape):
        d = decide_yes(shape(self.N, "U"), fuel=10 * self.N)
        text = derivation_to_json(d)
        root = json.loads(text)
        assert derivation_from_json(text) is d
        assert sorted(parsed) == sorted({root["env"], root["lhs"], root["rhs"]})

    def test_an_environment_composes_each_binding_once(self, monkeypatch):
        # A binding's text is composed where its bound is printed.  Over an
        # unseen binding every cell of the chain is new.
        g, s, t = variable_chain(self.N)
        g = env_concat(EMPTY_ENV.extend(unseen_name(), Top()), g)
        printed = []
        type_text = Printer.type_text
        monkeypatch.setattr(Printer, "type_text", lambda printer, u: printed.append(u) or type_text(printer, u))
        print_judgment(g, s, t)
        assert len(printed) == len(g) + 2
        printed.clear()
        print_judgment(g, s, t)
        assert printed == [s, t]
        printed.clear()
        bound = Arrow(s, t)
        assert print_env(g.extend("W", bound)) == f"{g._text}, W <: X{self.N} -> X0"
        assert printed == [bound]


def slot_free_env(g: Env) -> str:
    """`print_env` by the reference printer, which keeps no text."""
    return ", ".join(f"{name} <: {reference_parser.print_type(bound)}" for name, bound in g.decls())


def slot_free_judgment(g: Env, lhs, rhs) -> str:
    """`print_judgment` by the reference printer."""
    env = slot_free_env(g)
    judgment = f"|- {reference_parser.print_type(lhs)} <: {reference_parser.print_type(rhs)}"
    return f"{env} {judgment}" if env else judgment


def slot_free_text(d: Derivation, depth: int = 0) -> str:
    """`derivation_to_text` by the reference printer, recursively."""
    tag = d.rule.value if d.witness is None else f"{d.rule.value} {d.witness}"
    line = "  " * depth + f"({tag}) " + slot_free_judgment(d.env, d.lhs, d.rhs)
    return "\n".join([line] + [slot_free_text(p, depth + 1) for p in d.premises])


def slot_free_json(d: Derivation) -> str:
    """`derivation_to_json` by the reference printer, recursively."""

    def obj(node: Derivation) -> dict:
        show = reference_parser.print_type
        return {"rule": node.rule.value, "env": slot_free_env(node.env), "lhs": show(node.lhs),
                "rhs": show(node.rhs), "witness": node.witness, "premises": [obj(p) for p in node.premises]}

    return json.dumps(obj(d))


class TestTextsKeptOnNodes:
    """A locally closed arrow or quantifier keeps its text on the node, and
    no other type keeps one; a printed environment keeps its text on its
    cell.  The printers and writers still give the texts of the reference
    printer, which keeps nothing, on the first and on the second printing,
    and whether subterms are printed before their parents or after them."""

    @given(envs_with_closed_ty(), named_types(max_depth=4), seeds, st.booleans())
    def test_texts_are_the_reference_texts(self, pair, named, seed, subterms_first):
        g, s = pair
        t = to_ln(named)
        d = gen_derivation(GenConfig(seed=seed, max_deriv_depth=4))
        types = [s, t] + [bound for _, bound in g.bindings]
        subterms = [node for u in types for node, _ in nodes(u) if isinstance(node, (Arrow, Forall))]
        subterms += sorted(compound_nodes(d), key=size, reverse=True)
        subterms = [node for node in subterms if node._escapes == 0]
        for _ in range(2):
            if subterms_first:
                for node in reversed(subterms):
                    assert print_type(node) == reference_parser.print_type(node)
            assert print_judgment(g, s, t) == slot_free_judgment(g, s, t)
            assert derivation_to_json(d) == slot_free_json(d)
            if not subterms_first:
                for node in subterms:
                    assert print_type(node) == reference_parser.print_type(node)
            for u in types + list(compound_nodes(d)):
                for node, _ in nodes(u):
                    text = getattr(node, "_text", None)
                    if node._escapes or not isinstance(node, (Arrow, Forall)):
                        assert text is None, node
                    else:
                        assert text == reference_parser.print_type(node)

    @given(envs_with_closed_ty(), seeds, st.permutations(range(4)))
    def test_environment_texts_are_the_reference_texts(self, pair, seed, order):
        g, s = pair
        # Over an unseen binding every cell of `g` is new, so no print but
        # this test's has reached it.
        g = env_concat(EMPTY_ENV.extend(unseen_name(), Top()), g)
        h = g.extend(unseen_name(), s)
        d = gen_derivation(GenConfig(seed=seed, max_deriv_depth=4))
        prints = [
            lambda: print_judgment(g, s, s) == slot_free_judgment(g, s, s),
            lambda: derivation_to_json(d) == slot_free_json(d),
            lambda: derivation_to_text(d) == slot_free_text(d),
            lambda: print_env(h) == slot_free_env(h),
        ]
        for _ in range(2):
            for i in order:
                assert prints[i]()
        printed = {g, h} | {node.env for _, node in iter_nodes(d)}
        for cell in printed:
            assert cell._text == slot_free_env(cell)
        cell = g.parent
        while cell is not EMPTY_ENV:
            assert cell._text is None
            cell = cell.parent
        assert EMPTY_ENV._text == ""

    @pytest.mark.parametrize("printed_parent", [False, True], ids=["unprinted", "printed"])
    def test_a_print_that_raises_keeps_no_text(self, printed_parent):
        g = EMPTY_ENV.extend(unseen_name(), Top())
        if printed_parent:
            print_env(g)
        bad = g.extend("Y", Forall(Top(), BoundIdx(1)))
        for call in (print_env, lambda bad: print_judgment(bad, Top(), Top())):
            with pytest.raises(MalformedTypeError):
                call(bad)
            assert bad._text is None
            assert g._text == (slot_free_env(g) if printed_parent else None)


DEEP_SERIES = [(series, n, line(n)) for series, line in scaling.SERIES for n in DEEP_SIZES]


class TestWritersOnDeepSeries:
    """On the `deep` benchmark's series lines, in both rule systems, the
    writers give the texts of the reference printer, which keeps nothing;
    together these trees hold every rule tag."""

    @staticmethod
    def derivations(line) -> list[Derivation]:
        d = decide_yes(line, fuel=DEFAULT_FUEL)
        return [d, to_implicit(d)]

    @pytest.mark.parametrize("series, n, line", DEEP_SERIES, ids=[f"{s}-{n}" for s, n, _ in DEEP_SERIES])
    def test_writers_match_reference(self, series, n, line):
        for d in self.derivations(line):
            assert derivation_to_json(d) == slot_free_json(d)
            assert derivation_to_text(d) == slot_free_text(d)

    def test_every_rule_tag_is_written(self):
        tags = {node.rule for _, _, line in DEEP_SERIES for d in self.derivations(line) for _, node in iter_nodes(d)}
        assert tags == set(Rule)


class TestHeight:
    def test_leaf(self):
        assert derivation_height(Derivation(Rule.TOP, EMPTY_ENV, Top(), Top())) == 1

    def test_chain(self):
        d = decide_yes("X <: Top, Y <: X |- Y <: X")
        assert derivation_height(d) == 2

    def test_height_is_kept_not_walked(self, monkeypatch):
        d = decide_yes("X <: Top, Y <: X |- All Z <: Y . Z -> Y <: All Z <: Y . Z -> X")

        def preorder(_):
            raise AssertionError("derivation_height walked the tree")

        monkeypatch.setattr(subtyper, "preorder", preorder)
        assert derivation_height(d) == 4


def first_problem(d: Derivation):
    """The explicit checker's answer by its definition: the first node in
    preorder whose own conditions fail, with its path, or None."""
    for path, node in iter_nodes(d):
        problem = diagnose_node(node, False)
        if problem is not None:
            return f"{'.'.join(('root',) + tuple(map(str, path)))}: {problem}"
    return None


def corrupt(d: Derivation, path: tuple[int, ...], kind: str) -> Derivation:
    """`d` with the node at `path` replaced: by a `var` node with its
    conclusion, by itself with its premises reversed, with the newest name
    of its environment (or X0) as its witness, or retagged into the implicit
    system."""
    if path:
        premises = list(d.premises)
        premises[path[0]] = corrupt(premises[path[0]], path[1:], kind)
        return Derivation(d.rule, d.env, d.lhs, d.rhs, tuple(premises), d.witness)
    if kind == "var":
        return Derivation(Rule.VAR, d.env, d.lhs, d.rhs)
    if kind == "premises":
        return Derivation(d.rule, d.env, d.lhs, d.rhs, d.premises[::-1], d.witness)
    if kind == "witness":
        return Derivation(d.rule, d.env, d.lhs, d.rhs, d.premises, d.env.bindings[0][0] if len(d.env) else "X0")
    return Derivation(subtyper._TO_IMPLICIT[d.rule], d.env, d.lhs, d.rhs, d.premises, d.witness)


class TestValidity:
    """Explicit validity is a fact of the interned node: the first check of a
    tree examines each node not yet found valid, marks them all once the tree
    passes, and a later check of any tree skips the marked subtrees.  Trees
    that a count must see unchecked are built over a binding of
    `unseen_name()`, which no other test can hold."""

    def unseen(self, text: str) -> Derivation:
        g, lhs, rhs = parse_judgment(text)
        result = decide_sub(g.extend(unseen_name(), Top()), lhs, rhs)
        assert isinstance(result, Yes)
        return result.derivation

    def test_a_second_check_examines_no_node(self, diagnosed):
        d = self.unseen("X <: Top, Y <: X |- All Z <: Y . Z -> Y <: All Z <: Y . Z -> X")
        assert check_derivation(d)
        assert len(diagnosed) == node_count(d)
        diagnosed.clear()
        assert check_derivation(d) and diagnose_derivation(d) is None
        assert diagnosed == []

    def test_a_tree_over_checked_parts_examines_only_the_new_nodes(self, diagnosed):
        d = self.unseen("X <: Top |- Top -> X <: X -> Top")
        assert check_derivation(d)
        diagnosed.clear()
        bigger = Derivation(Rule.ARR, d.env, Arrow(d.rhs, d.lhs), Arrow(d.lhs, d.rhs), (d, d))
        assert check_derivation(bigger)
        assert diagnosed == [bigger]

    @given(seeds, st.integers(1, 6), st.integers(0, 1 << 16), st.sampled_from(("var", "premises", "witness", "implicit")),
           st.booleans())
    def test_a_corrupted_tree_reports_the_same_problem_every_time(self, seed, depth, where, kind, marked_first):
        d = gen_derivation(GenConfig(seed=seed, max_deriv_depth=depth))
        paths = [path for path, _ in iter_nodes(d)]
        bad = corrupt(d, paths[where % len(paths)], kind)
        expected = first_problem(bad)
        if marked_first:
            assert check_derivation(d)
        assert diagnose_derivation(bad) == expected
        assert diagnose_derivation(bad) == expected
        # Every subtree of `bad` that is one of `d` is valid and now marked.
        assert check_derivation(d)
        assert diagnose_derivation(bad) == expected
        assert check_derivation(bad) == (expected is None)

    def test_implicit_checks_are_not_cached(self, diagnosed):
        d = self.unseen("X <: Top |- All Y <: X . Y -> Y <: All Y <: X . Y -> Top")
        assert check_derivation(d)
        diagnosed.clear()
        assert diagnose_derivation_implicit(d) == "root: rule 'all' does not belong to the implicit system"
        assert not check_derivation_implicit(d)
        assert len(diagnosed) == 2
        implicit = to_implicit(d)
        diagnosed.clear()
        assert check_derivation_implicit(implicit) and check_derivation_implicit(implicit)
        assert len(diagnosed) == 2 * node_count(implicit)
        assert diagnose_derivation(implicit) == "root: rule 'All' does not belong to the explicit system"
        assert to_explicit(implicit) is d

    def test_copies_and_pickles_of_checked_nodes_are_the_node(self, diagnosed):
        d = self.unseen("X <: Top |- All Y <: X . Y -> Y <: All Y <: X . Y -> Top")
        assert check_derivation(d)
        diagnosed.clear()
        for other in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert other is d
            assert check_derivation(other)
        assert diagnosed == []
        # A body that keeps its opening copies and pickles as itself too.
        body = d.lhs.body
        assert open_ty(body, d.witness) is d.premises[1].lhs
        for other in (copy.copy(body), copy.deepcopy(body), pickle.loads(pickle.dumps(body))):
            assert other is body


SMALL_REPR = (
    "Derivation(rule=<Rule.TRS: 'trs'>, env=Env(bindings=(('Y', FreeVar(name='X')), ('X', Top()))),"
    " lhs=FreeVar(name='Y'), rhs=FreeVar(name='X'), premises=(Derivation(rule=<Rule.VAR: 'var'>,"
    " env=Env(bindings=(('Y', FreeVar(name='X')), ('X', Top()))), lhs=FreeVar(name='X'),"
    " rhs=FreeVar(name='X'), premises=(), witness=None),), witness=None)"
)


class TestHashConsed:
    """Derivations are hash-consed like types and environments: equal fields
    give the same node, which stays immutable, prints as the dataclass it
    used to be, and comes back from copies and pickles as itself."""

    def test_equal_fields_give_one_node(self):
        leaf = Derivation(Rule.VAR, X_TOP_Y_X, FreeVar("X"), FreeVar("X"))
        d = Derivation(Rule.TRS, X_TOP_Y_X, FreeVar("Y"), FreeVar("X"), (leaf,))
        assert d is decide_yes("X <: Top, Y <: X |- Y <: X")
        assert d is Derivation(Rule.TRS, X_TOP_Y_X, FreeVar("Y"), FreeVar("X"), premises=(leaf,), witness=None)
        assert d is not Derivation(Rule.I_TRANS, X_TOP_Y_X, FreeVar("Y"), FreeVar("X"), (leaf,))

    def test_a_tag_string_gives_the_node_of_its_rule(self):
        # "top" == Rule.TOP, so both spellings share one node, which holds
        # the rule whichever is built first.
        first = Derivation("top", EMPTY_ENV, FreeVar("Tagged"), Top())
        assert first.rule is Rule.TOP
        assert Derivation(Rule.TOP, EMPTY_ENV, FreeVar("Tagged"), Top()) is first

    def test_a_tag_outside_the_rules_is_refused(self):
        for tag in ("bogus", "TOP", None, 1):
            with pytest.raises(TypeError, match="not a rule"):
                Derivation(tag, EMPTY_ENV, Top(), Top())

    def test_an_environment_that_is_not_an_env_is_refused(self):
        for env in ((), "X <: Top", None):
            with pytest.raises(TypeError, match="not an environment"):
                Derivation(Rule.TOP, env, Top(), Top())

    def test_a_side_that_is_not_a_type_is_refused(self):
        for lhs, rhs in (("X", Top()), (Top(), "Top"), (Top(), None)):
            with pytest.raises(TypeError, match="not a type"):
                Derivation(Rule.TOP, EMPTY_ENV, lhs, rhs)

    def test_a_premise_that_is_not_a_derivation_is_refused(self):
        leaf = Derivation(Rule.VAR, X_TOP_Y_X, FreeVar("X"), FreeVar("X"))
        for premises in (("x",), (leaf, FreeVar("X"))):
            with pytest.raises(TypeError, match="not a derivation"):
                Derivation(Rule.TRS, X_TOP_Y_X, FreeVar("Y"), FreeVar("X"), premises)

    @pytest.mark.parametrize(
        "walk",
        [check_derivation, to_implicit, lambda d: list(iter_nodes(d)), derivation_to_text, derivation_to_json],
        ids=["check_derivation", "to_implicit", "iter_nodes", "derivation_to_text", "derivation_to_json"],
    )
    def test_a_walk_over_what_is_not_a_derivation_is_a_type_error(self, walk):
        with pytest.raises(TypeError, match=r"^not a derivation: None$"):
            walk(None)

    def test_a_witness_that_is_not_a_name_is_the_checkers_to_report(self):
        d = Derivation(Rule.TOP, EMPTY_ENV, Top(), Top(), witness=3)
        assert d.witness == 3
        assert not check_derivation(d)

    def test_repr_is_the_dataclass_text(self):
        assert repr(decide_yes("X <: Top, Y <: X |- Y <: X")) == SMALL_REPR

    def test_a_dropped_derivation_is_released(self):
        d = Derivation(Rule.TOP, EMPTY_ENV, FreeVar("Dropped"), Top())
        ref = weakref.ref(d)
        del d
        gc.collect()
        assert ref() is None

    def test_copies_and_pickles_are_the_node(self):
        d = decide_yes("X <: Top |- All Y <: X . Y -> Y <: All Y <: X . Y -> Top")
        assert copy.copy(d) is d
        assert copy.deepcopy(d) is d
        assert pickle.loads(pickle.dumps(d)) is d

    def test_fields_cannot_be_assigned(self):
        d = decide_yes("X <: Top, Y <: X |- Y <: X")
        with pytest.raises(FrozenInstanceError):
            d.rule = Rule.VAR
        with pytest.raises(FrozenInstanceError):
            del d.premises

    def test_match_binds_the_fields(self):
        match decide_yes("X <: Top, Y <: X |- Y <: X"):
            case Derivation(rule, env, lhs, rhs, (premise,), witness):
                assert (rule, env, lhs, rhs, witness) == (Rule.TRS, X_TOP_Y_X, FreeVar("Y"), FreeVar("X"), None)
                assert premise.rule == Rule.VAR
            case _:
                pytest.fail("no match")


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
        assert result.derivation.concl == (X_TOP, t, t)

    def test_long_variable_chain_decides_and_checks(self):
        g, lhs, rhs = variable_chain(2_000)
        result = decide_sub(g, lhs, rhs, fuel=2_001)
        assert isinstance(result, Yes)
        assert node_count(result.derivation) == 2_001
        assert check_derivation(result.derivation)
        assert decide_sub(g, lhs, rhs, fuel=2_000) == Unknown(2_000)

    @pytest.mark.parametrize("fuel", [0])
    def test_no_fuel_is_unknown(self, fuel):
        assert decide_sub(EMPTY_ENV, Top(), Top(), fuel=fuel) == Unknown(fuel)

    # A bool is not an int here: it would run as 0 or 1.
    @pytest.mark.parametrize("fuel", [-1, 1.5, True, False, "3", None])
    def test_fuel_must_be_a_natural_number(self, fuel):
        with pytest.raises(PreconditionError, match=r"^fuel must be an integer >= 0, got "):
            decide_sub(EMPTY_ENV, Top(), Top(), fuel=fuel)

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
        assert to_explicit(implicit) is chain

    def test_a_long_chain_is_one_value(self, chain):
        # Decided again, the chain is the very same node; equality and
        # hashing read no deeper than the root.
        g, lhs, rhs = variable_chain(2_000)
        again = decide_sub(g, lhs, rhs, fuel=2_001).derivation
        assert again is chain and again == chain
        assert hash(again) == hash(chain)
        assert {chain: 1}[again] == 1

    def test_repr_of_a_deep_derivation(self):
        # The chain's text repeats its 2,001 bindings at each of its 2,001
        # nodes; a tower of as many nodes over the empty environment, which
        # unchecked construction allows, prints in text linear in its height.
        d = Derivation(Rule.VAR, EMPTY_ENV, Top(), Top())
        for _ in range(2_000):
            d = Derivation(Rule.TRS, EMPTY_ENV, Top(), Top(), (d,))
        text = repr(d)
        assert text.count("Derivation(") == 2_001
        assert text.endswith("premises=(), witness=None)" + ",), witness=None)" * 2_000)

def best_of_three(fn) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cold_check_seconds(g: Env, t) -> float:
    """Best of three checks of the reflexivity derivation of `t`.  Each round
    decides it over `g` plus a binding of an unseen name, so that every check
    meets only nodes that no check has found valid before."""
    best = float("inf")
    for _ in range(3):
        d = decide_sub(g.extend(unseen_name(), Top()), t, t, fuel=size(t)).derivation
        start = time.perf_counter()
        assert check_derivation(d)
        best = min(best, time.perf_counter() - start)
    return best


class TestLinearWalks:
    """Checking costs time linear in the derivation: each node reads its
    types' cached facts, and each distinct environment is scanned once.  The checker is timed on derivations it has not seen
    (`cold_check_seconds`): on a tree it found valid it returns at once."""

    def test_checking_costs_no_more_than_deciding(self):
        n = 2_000
        t = parse_type(" -> ".join(["X"] * (n + 1)))
        decide = best_of_three(lambda: decide_sub(X_TOP, t, t, fuel=2 * n + 1))
        check = cold_check_seconds(X_TOP, t)
        assert check <= 3 * decide, (check, decide)

    def test_checking_scans_each_environment_once(self):
        # Every leaf of the reflexivity derivation is a `var` node in an
        # environment of 2,001 bindings whose oldest one declares X: its ok
        # check and its lookup of X are answered once for the whole tree.
        n = 1_000
        g = Env.from_decls([("X", Top())] + [(f"P{i}", Top()) for i in range(2_000)])
        t = parse_type(" -> ".join(["X"] * (n + 1)))
        decide = best_of_three(lambda: decide_sub(g, t, t, fuel=2 * n + 1))
        check = cold_check_seconds(g, t)
        assert check <= 3 * decide, (check, decide)

    def test_deciding_and_checking_a_chain_scan_its_environment_once(self, monkeypatch):
        # Each of the 4,000 `trs` goals and nodes looks its variable up; the
        # first scope question takes one scope step per binding, which
        # answers them all, and no call builds the bindings tuple.  The names
        # are unseen, so no cell of the chain has taken its step before.
        n, root = 4_000, unseen_name()
        names = [f"{root}_{i}" for i in range(n + 1)]
        g = Env.from_decls([(names[0], Top())] + [(names[i], FreeVar(names[i - 1])) for i in range(1, n + 1)])
        lhs, rhs = FreeVar(names[n]), FreeVar(names[0])
        field = Env.bindings
        reads = []
        steps = []
        declare = judgments._Scope.declare

        def counting(table, cell):
            steps.append(cell.name)
            declare(table, cell)

        class Counted:
            def __get__(self, env, owner=None):
                if env is g:
                    reads.append(env)
                return field.__get__(env, owner)

            def __set__(self, env, value):
                field.__set__(env, value)

        monkeypatch.setattr(Env, "bindings", Counted())
        monkeypatch.setattr(judgments._Scope, "declare", counting)
        result = decide_sub(g, lhs, rhs, fuel=4_001)
        assert isinstance(result, Yes)
        assert check_derivation(result.derivation)
        assert reads == [] and steps == names

    def test_diagnosing_a_deep_failure_walks_the_tree_once(self, monkeypatch):
        # The failing node's path comes from the checker's own walk, not from
        # a second walk that builds every node's path.  The nest stays small:
        # a failure report prints the derivation, whose text is quadratic.
        n = 200
        t = parse_type("".join(f"All Y{i} <: Top . " for i in range(n)) + "Top")
        spine = [decide_sub(EMPTY_ENV, t, t, fuel=2 * n + 1).derivation]
        while spine[-1].premises:
            spine.append(spine[-1].premises[1])
        leaf = spine.pop()
        bad = Derivation(Rule.VAR, leaf.env, leaf.lhs, leaf.rhs)
        for node in reversed(spine):
            bad = Derivation(node.rule, node.env, node.lhs, node.rhs, (node.premises[0], bad), node.witness)

        def second_walk(d):
            raise AssertionError("the failing node's path was searched for again")

        monkeypatch.setattr(subtyper, "iter_nodes", second_walk)
        problem = "a reflexivity node relates a variable to itself"
        assert diagnose_derivation(bad) == "root" + ".1" * n + f": {problem}"


class TestLiveNodesAreLookedUp:
    """A derivation node that is alive costs one lookup in the intern table:
    deciding its goal again, reading its JSON back and retagging it there
    and back call no constructor, and deciding a fresh goal calls it once
    per new node.  Each goal declares a name from `unseen_name()`, so none
    of its nodes is alive before the test decides it."""

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        calls = []
        new = Derivation.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Derivation, "__new__", staticmethod(counting))
        return calls

    @staticmethod
    def fresh_goal(line) -> tuple:
        g, s, t = parse_judgment(line(8))
        return g.extend(unseen_name(), Top()), s, t

    @pytest.mark.parametrize("series, line", scaling.SERIES)
    def test_deciding_a_fresh_goal_builds_each_node_once(self, built, series, line):
        d = decide_sub(*self.fresh_goal(line)).derivation
        assert len(built) == len({node for _, node in iter_nodes(d)})

    @pytest.mark.parametrize("series, line", scaling.SERIES)
    def test_a_live_derivation_is_looked_up(self, built, series, line):
        goal = self.fresh_goal(line)
        d = decide_sub(*goal).derivation
        implicit = to_implicit(d)
        text = derivation_to_json(d)
        built.clear()
        assert decide_sub(*goal).derivation is d
        assert derivation_from_json(text) is d
        assert to_implicit(d) is implicit and to_explicit(implicit) is d
        assert built == []


class TestWalksAgainstReference:
    """The node walk, the height and both writers agree with the recursive
    definitions in `reference_walks`, the writers byte for byte."""

    @given(seeds, st.integers(1, 6), st.booleans())
    def test_walks_match_recursion(self, seed, depth, implicit):
        d = gen_derivation(GenConfig(seed=seed, max_deriv_depth=depth))
        if implicit:
            d = to_implicit(d)
        expected = reference.iter_nodes(d)
        walked = list(iter_nodes(d))
        assert [path for path, _ in walked] == [path for path, _ in expected]
        assert all(a is b for (_, a), (_, b) in zip(walked, expected))
        assert derivation_height(d) == reference.derivation_height(d)
        assert derivation_to_text(d) == reference.derivation_to_text(d)
        assert derivation_to_json(d) == reference.derivation_to_json(d)

def respell_type(t, names=()):
    """Surface text of `t` that is not the printer's: binders named b0, b1,
    ... by depth, every operand in parentheses, blanks doubled."""
    if isinstance(t, Top):
        return "Top"
    if isinstance(t, FreeVar):
        return t.name
    if isinstance(t, BoundIdx):
        return names[-1 - t.index]
    if isinstance(t, Arrow):
        return f"( {respell_type(t.dom, names)} )  ->  ( {respell_type(t.cod, names)} )"
    name = f"b{len(names)}"
    return f"All  {name}  <:  ( {respell_type(t.bound, names)} )  .  ( {respell_type(t.body, names + (name,))} )"


def respell_env(g):
    return ",  ".join(f"{name}  <:  {respell_type(bound)}" for name, bound in g.decls()) or "empty"


CORRUPTIONS = ("type", "env", "witness", "missing key", "premise", "rule")
# "Top" is an implicit tag and reads; the others are unknown tags, two of
# them unhashable.
RULE_TAGS = ("TOP", "Top", 1, None, True, ["top"], {"tag": "top"})


@st.composite
def json_documents(draw):
    """`gen_derivation` JSON, with some strings respelled or keys reordered
    at drawn nodes, and at most one corruption."""
    d = gen_derivation(GenConfig(seed=draw(seeds), max_deriv_depth=draw(st.integers(1, 6))))
    root = json.loads(derivation_to_json(d))
    objs = [root]
    for obj in objs:
        objs += obj["premises"]
    nodes = [node for _, node in iter_nodes(d)]
    index = st.integers(0, len(objs) - 1)
    for i, edit in draw(st.lists(st.tuples(index, st.sampled_from(("env", "lhs", "rhs", "keys"))), max_size=4)):
        obj, node = objs[i], nodes[i]
        if edit == "env":
            obj["env"] = respell_env(node.env)
        elif edit == "keys":
            items = list(reversed(obj.items()))
            obj.clear()
            obj.update(items)
        else:
            obj[edit] = respell_type(getattr(node, edit))
    corruption = draw(st.none() | st.tuples(index, st.sampled_from(CORRUPTIONS)))
    if corruption is not None:
        i, kind = corruption
        obj = objs[i]
        if kind == "type":
            obj[draw(st.sampled_from(("lhs", "rhs")))] += " ->"
        elif kind == "env":
            obj["env"] += draw(st.sampled_from((",", " <: Top", " X")))
        elif kind == "witness":
            obj["witness"] = draw(st.sampled_from(("1x", "", "Top", 7)))
        elif kind == "missing key":
            del obj[draw(st.sampled_from(("rule", "env", "lhs", "rhs", "witness", "premises")))]
        elif kind == "rule":
            obj["rule"] = draw(st.sampled_from(RULE_TAGS))
        else:
            obj["premises"].append(draw(st.sampled_from((7, "X", [], None))))
    return json.dumps(root)


def read(reader, text):
    try:
        return reader(text), None
    except (ValueError, ParseError) as err:
        return None, err


class TestReaderAgainstReference:
    """`derivation_from_json` agrees with the recursive reader in
    `reference_json`: the same nodes with the very same interned
    conclusions, or the same exception."""

    @given(json_documents())
    def test_reader_matches_reference(self, text):
        expected, expected_err = read(reference_json.derivation_from_json, text)
        got, err = read(derivation_from_json, text)
        if expected_err is not None:
            assert type(err) is type(expected_err) and str(err) == str(expected_err)
            if isinstance(err, ParseError):
                assert (err.message, err.pos, err.expected) == (expected_err.message, expected_err.pos, expected_err.expected)
            return
        assert err is None
        rows = [(path, node.rule, node.witness, len(node.premises)) for path, node in iter_nodes(expected)]
        assert [(path, node.rule, node.witness, len(node.premises)) for path, node in iter_nodes(got)] == rows
        assert all(a is b for (_, x), (_, y) in zip(iter_nodes(expected), iter_nodes(got)) for a, b in zip(x.concl, y.concl))
