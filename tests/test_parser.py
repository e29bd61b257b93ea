"""Surface syntax: lexing, parsing, printing, and the round-trip contract."""

import pytest
from hypothesis import given

from fsub.judgments import Env, dom, ok
from fsub.parser import (
    ParseError,
    Token,
    parse_env,
    parse_judgment,
    parse_type,
    print_env,
    print_judgment,
    print_type,
    scan_judgment,
)
from fsub.syntax import Arrow, BoundIdx, Forall, FreeVar, Top, alpha_eq, fv
from strategies import envs_with_closed_ty


class TestParseType:
    def test_top(self):
        assert parse_type("Top") == Top()

    def test_arrow_right_associative(self):
        t = parse_type("A -> B -> C")
        assert t == Arrow(FreeVar("A"), Arrow(FreeVar("B"), FreeVar("C")))

    def test_forall_body_extends_right(self):
        t = parse_type("All X <: Top . X -> X")
        assert t == Forall(Top(), Arrow(BoundIdx(0), BoundIdx(0)))

    def test_parenthesized_domain(self):
        t = parse_type("(A -> B) -> C")
        assert t == Arrow(Arrow(FreeVar("A"), FreeVar("B")), FreeVar("C"))

    def test_nested_binders_resolve_innermost(self):
        t = parse_type("All X <: Top . All Y <: X . X -> Y")
        inner = Forall(BoundIdx(0), Arrow(BoundIdx(1), BoundIdx(0)))
        assert t == Forall(Top(), inner)

    def test_primes_in_names(self):
        assert parse_type("X'") == FreeVar("X'")

    def test_quantifier_ends_an_arrow_chain(self):
        t = parse_type("A -> B -> All X <: Top . X -> A")
        inner = Forall(Top(), Arrow(BoundIdx(0), FreeVar("A")))
        assert t == Arrow(FreeVar("A"), Arrow(FreeVar("B"), inner))

    def test_deep_arrow_chain_round_trips(self):
        # Compared as text: structural equality of deep types still recurses.
        text = " -> ".join(["X"] * 10_001)
        assert print_type(parse_type(text)) == text

    def test_shadowing_rebind_in_body(self):
        t = parse_type("All X <: Top . All X <: Top . X")
        assert t == Forall(Top(), Forall(Top(), BoundIdx(0)))


class TestForallBoundScoping:
    def test_binder_may_not_appear_in_its_own_bound(self):
        with pytest.raises(ParseError):
            parse_type("All X <: X . Top")

    def test_rejected_even_when_outer_binding_exists(self):
        # The inner X in the bound would resolve outward, but the surface
        # form still spells the binder's own name inside its bound.
        with pytest.raises(ParseError):
            parse_type("All X <: Top . All X <: X -> X . Top")

    def test_nested_rebinding_inside_bound_is_fine(self):
        t = parse_type("All X <: (All Y <: Top . Y) . X")
        assert t == Forall(Forall(Top(), BoundIdx(0)), BoundIdx(0))

    def test_rebinding_the_same_name_inside_bound_is_fine(self):
        t = parse_type("All X <: (All X <: Top . X) . X")
        assert t == Forall(Forall(Top(), BoundIdx(0)), BoundIdx(0))

    def test_distinct_name_in_bound_is_fine(self):
        t = parse_type("All X <: Y . X")
        assert t == Forall(FreeVar("Y"), BoundIdx(0))

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("All X <: X . X", 4),
            ("All Y <: Top . All Y <: Top -> Y . Y", 19),
            # Spelled by an index that escapes a quantifier inside the bound.
            ("All Z <: Top . All X <: (All W <: Z . X) . X", 19),
        ],
    )
    def test_message_points_at_the_binder(self, text, pos):
        with pytest.raises(ParseError) as info:
            parse_type(text)
        binder = text[pos]
        assert info.value.message == (
            f"bound of 'All {binder}' mentions the binder name {binder!r}, which it does not bind"
        )
        assert info.value.pos == pos


class TestParseErrors:
    def test_position_and_expectation(self):
        with pytest.raises(ParseError) as info:
            parse_type("A ->")
        assert info.value.pos == 4
        assert "ident" in info.value.expected

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_type("(A -> B")

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_type("A + B")

    def test_keyword_not_a_variable(self):
        with pytest.raises(ParseError):
            parse_type("All Top <: Top . Top")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_type("Top Top")

    def test_non_ascii_letter_is_not_an_identifier(self):
        with pytest.raises(ParseError) as info:
            parse_type("\u00e9")
        assert info.value.message == "unexpected character '\u00e9'"
        assert info.value.pos == 0

    def test_non_ascii_digit_ends_an_identifier(self):
        with pytest.raises(ParseError) as info:
            parse_type("X\u00b2")
        assert info.value.message == "unexpected character '\u00b2'"
        assert info.value.pos == 1


class TestLexer:
    def test_scan_reports_public_tokens(self):
        text = "X <: Top |-\tX  ->\nTop <: Top "
        tokens = scan_judgment(text).tokens
        assert all(type(tok) is Token for tok in tokens)
        assert [(tok.kind, tok.text, tok.pos, tok.end) for tok in tokens] == [
            ("ident", "X", 0, 1),
            ("<:", "<:", 2, 4),
            ("Top", "Top", 5, 8),
            ("|-", "|-", 9, 11),
            ("ident", "X", 12, 13),
            ("->", "->", 15, 17),
            ("Top", "Top", 18, 21),
            ("<:", "<:", 22, 24),
            ("Top", "Top", 25, 28),
        ]
        assert all(text[tok.pos : tok.end] == tok.text for tok in tokens)

    ATOM = frozenset(("Top", "All", "ident", "("))

    @pytest.mark.parametrize(
        "text, message, pos, expected",
        [
            ("A  +  B", "unexpected character '+'", 3, frozenset()),
            ("A ->  \u00e9", "unexpected character '\u00e9'", 6, frozenset()),
            ("A \x0b B", "unexpected character '\\x0b'", 2, frozenset()),
            ("A ->   ", "unexpected eof ''", 7, ATOM),
            ("  ", "unexpected eof ''", 2, ATOM),
            (" ( A ) )", "unexpected ) ')'", 7, frozenset(("eof",))),
        ],
    )
    def test_errors_keep_positions_and_expectations(self, text, message, pos, expected):
        with pytest.raises(ParseError) as info:
            parse_type(text)
        assert (info.value.message, info.value.pos, info.value.expected) == (message, pos, expected)


class TestParseEnv:
    def test_empty_string(self):
        assert parse_env("") == Env()

    def test_empty_keyword(self):
        assert parse_env("empty") == Env()

    def test_declaration_order(self):
        g = parse_env("X <: Top, Y <: X")
        assert dom(g) == ["X", "Y"]
        assert g.decls()[1] == ("Y", FreeVar("X"))

    def test_duplicates_parse_but_fail_ok(self):
        g = parse_env("X <: Top, X <: Top")
        assert dom(g) == ["X", "X"]
        assert not ok(g)


class TestParseJudgment:
    def test_empty_env_form(self):
        g, lhs, rhs = parse_judgment("|- Top <: Top")
        assert g == Env() and lhs == Top() and rhs == Top()

    def test_single_binding(self):
        g, lhs, rhs = parse_judgment("X <: Top |- X <: Top")
        assert dom(g) == ["X"]
        assert lhs == FreeVar("X") and rhs == Top()

    def test_chained_environment(self):
        g, lhs, rhs = parse_judgment("X <: Top, Y <: X |- Y <: X")
        assert dom(g) == ["X", "Y"]
        assert lhs == FreeVar("Y") and rhs == FreeVar("X")

    def test_empty_keyword_env(self):
        g, lhs, rhs = parse_judgment("empty |- Top <: Top")
        assert g == Env()

    def test_scan_spans_cover_sections(self):
        text = "X <: Top |- X <: Top -> Top"
        src = scan_judgment(text)
        assert src.env_text.strip() == "X <: Top"
        assert src.lhs_text.strip() == "X"
        assert src.rhs_text.strip() == "Top -> Top"


class TestPrint:
    def test_top(self):
        assert print_type(Top()) == "Top"

    def test_arrow_parenthesization(self):
        t = Arrow(Arrow(FreeVar("A"), FreeVar("B")), FreeVar("C"))
        assert print_type(t) == "(A -> B) -> C"
        assert print_type(Arrow(FreeVar("A"), Arrow(FreeVar("B"), FreeVar("C")))) == "A -> B -> C"

    def test_forall_picks_unclashing_binder(self):
        t = Forall(Top(), Arrow(BoundIdx(0), FreeVar("X0")))
        text = print_type(t)
        reparsed = parse_type(text)
        assert reparsed == t
        assert "X0" in fv(t)

    def test_judgment_with_empty_env(self):
        assert print_judgment(Env(), Top(), Top()) == "|- Top <: Top"

    def test_env_order(self):
        g = Env.from_decls([("X", Top()), ("Y", FreeVar("X"))])
        assert print_env(g) == "X <: Top, Y <: X"


class TestRoundTrip:
    CASES = [
        "Top",
        "A -> B -> C",
        "All X <: Top . X -> X",
        "All X <: Top . All Y <: X . X -> Y",
        "All X <: (All Y <: Top . Y) . X",
        "(Top -> Top) -> Top",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_fixed_forms(self, text):
        t = parse_type(text)
        assert parse_type(print_type(t)) == t

    @given(envs_with_closed_ty())
    def test_generated_types(self, pair):
        g, t = pair
        assert parse_type(print_type(t)) == t
        assert parse_env(print_env(g)) == g
        shown = print_judgment(g, t, t)
        g2, lhs2, rhs2 = parse_judgment(shown)
        assert g2 == g and alpha_eq(lhs2, t) and rhs2 == t
