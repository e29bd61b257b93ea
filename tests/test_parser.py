"""Surface syntax: lexing, parsing, printing, and the round-trip contract."""

import contextlib
import io
import json
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import reference_parser as ref
from fsub import parser
from fsub.cli import run
from fsub.errors import MalformedTypeError
from fsub.judgments import EMPTY_ENV, Env, dom, ok
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
from fsub.syntax import _FREE_VARS, Arrow, BoundIdx, Forall, FreeVar, Top, alpha_eq, fv
from fsub.subtyper import Yes, check_derivation, decide_sub, derivation_to_json
from naive import NAll, NArr, NTop, NTy, NVar, to_ln
from strategies import envs_with_closed_ty, named_types, variable_chain


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

    def test_bound_may_reach_past_a_shadowed_binder_of_its_name(self):
        t = parse_type("All Z <: Top . All X <: Top . All X <: Z . X")
        assert t == Forall(Top(), Forall(Top(), Forall(BoundIdx(1), BoundIdx(0))))

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("All X <: X . X", 4),
            ("All Y <: Top . All Y <: Top -> Y . Y", 19),
            # Spelled by an index that escapes a quantifier inside the bound.
            ("All Z <: Top . All X <: (All W <: Z . X) . X", 19),
            # Spelled by an index to a shadowed binder two levels up.
            ("All X <: Top . All Y <: Top . All X <: X -> Y . X", 34),
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

    def test_bound_without_its_operator(self):
        with pytest.raises(ParseError) as info:
            parse_type("All X Top . X")
        assert str(info.value) == "unexpected Top 'Top' at position 6 (expected <:)"

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

    @pytest.mark.parametrize("ty", ["(X", "X0 -> -> @", "All X <: X . X"])
    @pytest.mark.parametrize(
        "parse, line",
        [(parse_type, "{}"), (parse_env, "Y <: {}"), (parse_judgment, "|- {} <: Top")],
        ids=["type", "env", "judgment"],
    )
    def test_one_error_position_is_computed(self, monkeypatch, parse, line, ty):
        # Printable ASCII is parsed from its split words first and, on an
        # error, again from the regex tokens; only the second error, the one
        # raised, computes its position.
        calls = []
        start = parser._start
        monkeypatch.setattr(parser, "_start", lambda *args: calls.append(args) or start(*args))
        with pytest.raises(ParseError) as info:
            parse(line.format(ty))
        assert len(calls) == 1
        assert info.value.pos >= 0


class TestLexer:
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
            # A stray character is reported even after a syntax error, and a
            # binder that is not a name is reported at its first character.
            ("X0 -> -> @", "unexpected character '@'", 9, frozenset()),
            ("All 1a <: Top . X", "unexpected character '1'", 4, frozenset()),
        ],
    )
    def test_errors_keep_positions_and_expectations(self, text, message, pos, expected):
        with pytest.raises(ParseError) as info:
            parse_type(text)
        assert (info.value.message, info.value.pos, info.value.expected) == (message, pos, expected)

    def test_binding_name_that_is_not_a_name(self):
        with pytest.raises(ParseError) as info:
            parse_env("X0 <: Top, 1a <: X0")
        assert (info.value.message, info.value.pos) == ("unexpected character '1'", 11)

    def test_names_never_interned(self):
        # Primed names, and names no node has been built for yet.
        names = ("Never_seen_before'", "Q9''", "_fresh_0")
        assert not any(name in _FREE_VARS for name in names)
        assert parse_judgment("Q9'' <: Top |- Never_seen_before' -> _fresh_0 <: Top") == (
            EMPTY_ENV.extend("Q9''", Top()),
            Arrow(FreeVar("Never_seen_before'"), FreeVar("_fresh_0")),
            Top(),
        )


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

    def test_dangling_index_is_not_printable(self):
        with pytest.raises(MalformedTypeError, match=r"^cannot print: BoundIdx\(index=0\)$"):
            print_type(BoundIdx(0))

    @pytest.mark.parametrize("bad", [None, "Top"], ids=["none", "str"])
    @pytest.mark.parametrize(
        "call",
        [print_type, lambda t: print_judgment(EMPTY_ENV, t, Top()), lambda t: print_judgment(EMPTY_ENV, Top(), t)],
        ids=["type", "judgment-lhs", "judgment-rhs"],
    )
    def test_what_is_not_a_type_is_a_type_error(self, call, bad):
        with pytest.raises(TypeError) as raised:
            call(bad)
        assert str(raised.value) == f"not a type: {bad!r}"

    def test_judgment_with_empty_env(self):
        assert print_judgment(Env(), Top(), Top()) == "|- Top <: Top"

    def test_env_order(self):
        g = Env.from_decls([("X", Top()), ("Y", FreeVar("X"))])
        assert print_env(g) == "X <: Top, Y <: X"

    @pytest.mark.parametrize(
        "g", [None, Top(), "X <: Top", Arrow(Top(), Top()), Forall(Top(), BoundIdx(0))],
        ids=["none", "top", "str", "arrow", "forall"],
    )
    def test_what_is_not_an_environment_is_a_type_error(self, g):
        # A closed arrow or quantifier keeps a text of its own once printed.
        print_type(Arrow(Top(), Top()))
        print_type(Forall(Top(), BoundIdx(0)))
        for call in (print_env, lambda g: print_judgment(g, Top(), Top()), Printer().env_text):
            with pytest.raises(TypeError, match=r"^not an environment: "):
                call(g)


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


def show_named(t: NTy) -> str:
    """Surface text of a named type, every compound parenthesized, binders as
    spelled: unlike `print_type`, it can spell a binder inside its own bound."""
    match t:
        case NTop():
            return "Top"
        case NVar(name):
            return name
        case NArr(left, right):
            return f"({show_named(left)}) -> ({show_named(right)})"
        case NAll(binder, bound, body):
            return f"All {binder} <: ({show_named(bound)}) . ({show_named(body)})"
    raise AssertionError(t)


@st.composite
def source_texts(draw: st.DrawFn) -> str:
    """A printed type, environment or judgment, or a named type spelled out."""
    g, t = draw(envs_with_closed_ty())
    form = draw(st.sampled_from(("type", "env", "judgment", "named", "named judgment")))
    if form == "type":
        return print_type(t)
    if form == "env":
        return print_env(g)
    if form == "judgment":
        return print_judgment(g, t, t)
    named = show_named(draw(named_types(max_depth=3)))
    return named if form == "named" else f"{print_env(g)} |- {named} <: {print_type(t)}"


STRAYS = ("+", "\u00e9", "1", "'", "-", "<", "|", "\x0b", "\u00b2")


@st.composite
def corrupted_texts(draw: st.DrawFn) -> str:
    """A source text, as it is or with one edit: a token deleted, duplicated or
    swapped with the next, a stray or non-ASCII character, an unbalanced
    parenthesis, or a trailing comma."""
    text = draw(source_texts())
    spans = [(pos, pos + len(word)) for _, word, pos in ref.lex(text)[:-1]]
    edit = draw(st.sampled_from(("none", "delete", "duplicate", "swap", "stray", "paren", "comma")))
    if edit == "comma":
        return text + ","
    if edit in ("stray", "paren"):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(STRAYS if edit == "stray" else ("(", ")")))
        return text[:at] + char + text[at:]
    if edit == "none" or len(spans) < 2:
        return text
    k = draw(st.integers(0, len(spans) - 2))
    (a, b), (c, d) = spans[k], spans[k + 1]
    if edit == "delete":
        return text[:a] + text[b:]
    if edit == "duplicate":
        return text[:b] + " " + text[a:b] + text[b:]
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def outcome(parse, text: str):
    """What `parse` gives for `text`: its result, or the parts of its error.
    Types and environments are interned and compare by identity, so equal
    outcomes hold the identical objects."""
    try:
        return parse(text)
    except ParseError as err:
        return ("error", err.message, err.pos, err.expected)


class TestAgainstReference:
    """The iterative parser and the stack-of-names printer agree with the
    recursive-descent reference and the opening printer in `reference_parser`."""

    @given(corrupted_texts())
    def test_same_result_or_same_error(self, text):
        for new, old in (
            (parse_type, ref.parse_type),
            (parse_env, ref.parse_env),
            (parse_judgment, ref.parse_judgment),
        ):
            assert outcome(new, text) == outcome(old, text), (new, text)

    # Beyond the grammar's words and blanks: characters that `str.split`,
    # `str.isascii` or `str.isprintable` treat otherwise than the lexer's
    # blank set does, and characters a name may hold but not start with.
    @given(st.lists(st.sampled_from(("X", "Top", "All", "<:", "->", ".", "(", ")", ",", "|-", "empty", " ", "\t",
                                     "-", "<", "|", "1", "\u00e9", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0",
                                     "\u3000", "\r", "\n", "'", "0", "_")), max_size=14))
    def test_token_soup(self, parts):
        text = "".join(parts)
        for new, old in (
            (parse_type, ref.parse_type),
            (parse_env, ref.parse_env),
            (parse_judgment, ref.parse_judgment),
        ):
            assert outcome(new, text) == outcome(old, text), (new, text)

    @given(named_types(max_depth=4))
    def test_printer_gives_the_reference_text(self, named):
        # Nested binders whose bodies mention outer binders make indices
        # escape inner quantifiers by several levels.
        t = to_ln(named)
        text = print_type(t)
        assert text == ref.print_type(t)
        assert parse_type(text) is t


@lru_cache(maxsize=None)
def gen_lines(seed: int, count: int) -> tuple[str, ...]:
    """The judgment lines of `fsub gen --seed SEED --count COUNT --max-env 6
    --max-size 16`, the options of the `check` benchmark's corpus."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        run(["gen", "--seed", str(seed), "--count", str(count), "--max-env", "6", "--max-size", "16"])
    return tuple(out.getvalue().splitlines())


def json_strings(line: str) -> list[str]:
    """The environment and type strings of the JSON derivation of `line`'s
    judgment, or none when it does not hold."""
    result = decide_sub(*parse_judgment(line))
    if not isinstance(result, Yes):
        return []
    strings = []
    stack = [json.loads(derivation_to_json(result.derivation))]
    while stack:
        node = stack.pop()
        strings += (node["env"], node["lhs"], node["rhs"])
        stack += node["premises"]
    return strings


def regex_outcome(text: str):
    """What lexing `text` by `_TOKEN_RE` alone gives: its matches and the end
    of input, or the reference lexer's error for a stray character."""
    try:
        ref.lex(text)
    except ParseError as err:
        return ("error", err.message, err.pos, err.expected)
    return parser._TOKEN_RE.findall(text) + [""]


# Parses of a token list from the start, as the public functions run them:
# a type, an environment and a judgment.
WORD_PARSES = (parser._type, lambda text, words: parser._bindings(text, words, 0, ""), parser._parse_judgment)


def split_parses(text: str) -> int:
    """How many of the parses in `WORD_PARSES` succeed on the split words of
    `text`, after checking that the words of each success are the tokens of
    the regex.  Text that is not printable ASCII is never split."""
    if not (text.isascii() and text.isprintable()):
        return 0
    words = parser._split(text)
    parsed = 0
    for parse in WORD_PARSES:
        try:
            parse(text, words)
        except (ParseError, MalformedTypeError):
            continue
        assert words == regex_outcome(text), text
        parsed += 1
    return parsed


class TestLexAgainstTheRegex:
    """A parse of the split words of printable ASCII text that succeeds has
    read exactly the tokens that matching the token regex gives."""

    def test_gen_corpus(self):
        for line in gen_lines(1, 300):
            assert split_parses(line) == 1, line

    def test_derivation_json_strings(self):
        texts = {text for line in gen_lines(1, 300) for text in json_strings(line)}
        assert len(texts) > 100
        for text in texts:
            assert split_parses(text) >= 1, text

    @given(corrupted_texts())
    def test_corrupted_texts(self, text):
        split_parses(text)

    @pytest.fixture()
    def regex_calls(self, monkeypatch):
        """The number of uses of `parser._TOKEN_RE` so far, in a one-item list."""
        calls = [0]

        class Counting:
            def __getattr__(self, name):
                calls[0] += 1
                return getattr(regex, name)

        regex = parser._TOKEN_RE
        monkeypatch.setattr(parser, "_TOKEN_RE", Counting())
        return calls

    def test_printed_judgments_take_no_regex(self, regex_calls):
        printed = [print_judgment(*parse_judgment(line)) for line in gen_lines(2, 500)]
        regex_calls[0] = 0
        for text in printed:
            parse_judgment(text)
        assert regex_calls[0] == 0

    @pytest.mark.parametrize(
        "text", ["X->Y", "All X<:Top.X", "X0 -> -> @", "X0 <: Top, 1a <: X0", "X <: Top |-\tX <: Top"]
    )
    def test_other_text_takes_the_regex(self, regex_calls, text):
        for new, old in ((parse_type, ref.parse_type), (parse_env, ref.parse_env), (parse_judgment, ref.parse_judgment)):
            regex_calls[0] = 0
            assert outcome(new, text) == outcome(old, text), (new, text)
            assert regex_calls[0] >= 1, (new, text)


DEPTH = 10_000


class TestDeepInput:
    """Nothing in the parser or the printer recurses: 10,000 levels of every
    kind of nesting parse and print at the default recursion limit."""

    def test_nested_parentheses(self):
        assert parse_type("(" * DEPTH + "X" + ")" * DEPTH) is FreeVar("X")

    def test_nested_quantifiers(self):
        t = parse_type("".join(f"All Y{i} <: Top . " for i in range(DEPTH)) + "Y0")
        for i in range(DEPTH):
            assert type(t) is Forall and t.bound is Top()
            t = t.body
        assert t is BoundIdx(DEPTH - 1)

    def test_shadowing_quantifiers_bounded_by_an_outer_binder(self):
        t = parse_type("All Z <: Top . " + "All X <: Z . " * DEPTH + "X")
        t = t.body
        for i in range(DEPTH):
            assert type(t) is Forall and t.bound is BoundIdx(i)
            t = t.body
        assert t is BoundIdx(0)

    def test_left_nested_arrows(self):
        t = parse_type("(" * DEPTH + "X" + ") -> X" * DEPTH)
        for _ in range(DEPTH):
            assert t.cod is FreeVar("X")
            t = t.dom
        assert t is FreeVar("X")

    def test_environment_chain(self):
        text = ", ".join(["X0 <: Top"] + [f"X{i} <: X{i - 1}" for i in range(1, DEPTH + 1)])
        g, _, _ = variable_chain(DEPTH)
        assert parse_env(text) is g

    def test_print_nested_quantifiers(self):
        # Each bound names the binder just outside it, so binders alternate
        # between the two least names.
        t = BoundIdx(0)
        for _ in range(DEPTH - 1):
            t = Forall(BoundIdx(0), t)
        t = Forall(Top(), t)
        text = "All X0 <: Top . " + "".join(f"All X{i % 2} <: X{(i - 1) % 2} . " for i in range(1, DEPTH)) + "X1"
        assert print_type(t) == text
        assert parse_type(text) is t

    def test_print_quantifiers_under_an_outer_binder(self):
        # The body names the outermost binder, so its index escapes every
        # inner quantifier, by a different amount at each.
        t = BoundIdx(DEPTH - 1)
        for _ in range(DEPTH):
            t = Forall(Top(), t)
        text = "All X0 <: Top . " + "All X1 <: Top . " * (DEPTH - 1) + "X0"
        assert print_type(t) == text
        assert parse_type(text) is t

    def test_far_reaching_nest_is_decided_and_checked(self):
        # The body names the outermost of 1,000 binders: its mask is the one
        # bit 999, far wider than a machine word, and each quantifier around
        # it shifts that bit down by one.
        n = 1_000
        t = parse_type("".join(f"All Y{i} <: Top . " for i in range(n)) + "Y0")
        assert parse_type(print_type(t)) is t
        body = t
        for _ in range(n):
            body = body.body
        assert body._escapes == 1 << (n - 1)
        d = decide_sub(EMPTY_ENV, t, t).derivation
        assert check_derivation(d)


class TestEscapingTextKeys:
    """The printer keeps the text of a node with escaping indices under the
    node and the names of the binders those indices reach, and no others."""

    def test_far_reaching_nest_keeps_one_name_per_escaping_index(self):
        # Inside `All Y0 <: Top . ... All Y999 <: Top . Y0` every quantifier
        # but the outermost has one escaping index, and it reaches Y0's
        # binder across up to 999 others.
        n = 1_000
        t = parse_type("".join(f"All Y{i} <: Top . " for i in range(n)) + "Y0")
        assert t._text is None
        printer = Printer()
        assert printer.type_text(t) == ref.print_type(t)
        assert printer.texts
        for node, *names in printer.texts:
            assert len(names) == node._escapes.bit_count()
        assert sum(len(key) - 1 for key in printer.texts) <= n
