"""Surface syntax: parsing and printing of types, environments and judgments.

Grammar:

    Ty   ::= "Top" | ident | Ty "->" Ty | "All" ident "<:" Ty "." Ty | "(" Ty ")"
    Env  ::= <empty> | "empty" | ident "<:" Ty ("," ident "<:" Ty)*
    Judg ::= Env "|-" Ty "<:" Ty

`->` associates to the right and the body of an `All` extends as far right as
possible.  An `All` whose bound mentions its own binder name is rejected: the
binder scopes over the body only, so such a bound could only refer to an outer
variable of the same spelling, which this syntax refuses to express.

Nothing here recurses.  The parser reads a flat list of token texts.
Printable ASCII text, whose only blank is the space, is first split on blanks
by string methods once parentheses and commas are spaced out, and its words
are not checked up front: the parser checks a word only where it uses it as
a name.  A key of the `FreeVar` intern table is a name already, since
`FreeVar` checked it, so only other words are checked: an identifier by
`FreeVar`, a binder or binding name against the name pattern.  On the first
word that is not a name, or on any parse error, the text is parsed again
from the tokens of one token regex, which alone defines the tokens and the
lexer's errors; any other text is parsed from those tokens at once.  Only
the second parse computes an error's position.  The
parser is one loop over the list with an explicit stack of pending
productions, and the printer is one postorder loop over an explicit stack
that composes each node's text from its children's, keeping the names of
the binders it is inside on another.  Binder names exist only in this
module: the parser turns them into indices and the printer turns indices
back into names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_letters
from typing import Iterator, Optional

from .errors import MalformedTypeError
from .judgments import EMPTY_ENV, Env, _set_text as _set_env_text
from .syntax import (
    _ARROWS,
    _BOUND_IDXS,
    _FORALLS,
    _FREE_VARS,
    _MISS,
    _NAME_RE,
    NAME_PATTERN,
    Arrow,
    BoundIdx,
    Forall,
    FreeVar,
    Top,
    Ty,
    VarName,
    _Pair,
    _set_text,
    fv,
    is_var_name,
)


class ParseError(Exception):
    """Parse failure with the offending position and the token kinds expected there."""

    def __init__(self, message: str, pos: int, expected: frozenset[str] = frozenset()):
        self.message = message
        self.pos = pos
        self.expected = expected
        detail = f"{message} at position {pos}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    pos: int
    end: int


@dataclass(frozen=True, slots=True)
class SourceJudgment:
    """A judgment line split into its raw sections, with one span per token."""

    env_text: str
    lhs_text: str
    rhs_text: str
    tokens: tuple[Token, ...]


_BLANKS = " \t\r\n"
# One token per match, after any run of blanks: a symbol, an identifier
# (exactly the names `FreeVar` accepts), or any other character, which is an
# error.  Blanks at the end of the input match nothing and are skipped.
_TOKEN_RE = re.compile(rf"[{_BLANKS}]*(->|<:|\|-|[.(),]|{NAME_PATTERN}|[^{_BLANKS}])")

# The kind of every token text that is not an identifier.  The lexer ends the
# token list with "", the end of input.
_KINDS = {word: word for word in ("->", "<:", "|-", ".", "(", ")", ",", "Top", "All")}
_KINDS[""] = "eof"
_NAME_START = frozenset(ascii_letters + "_")

_ATOM = frozenset(("Top", "All", "ident", "("))
_TOP = Top()


def _split(text: str) -> list[str]:
    # The blank-separated words of printable ASCII text once parentheses and
    # commas are spaced out, then "".  The space is its only blank, no token
    # holds a blank, and a parenthesis or a comma is always a token of its
    # own, so when every word is a symbol, a keyword or a name these are
    # exactly the tokens `_lex` gives.
    words = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    words.append("")
    return words


def _lex(text: str) -> list[str]:
    """The token texts of `_TOKEN_RE` in `text`, then "" for the end of
    input.  The first character that starts no token raises, before any
    parsing."""
    words = _TOKEN_RE.findall(text)
    # A token that is neither a symbol, a keyword nor a name is one stray
    # character.  Each distinct text is classified once.
    bad = [word for word in set(words) if word not in _KINDS and word[0] not in _NAME_START]
    if bad:
        i = min(words.index(word) for word in bad)
        raise _error(text, words, i, f"unexpected character {words[i]!r}")
    words.append("")
    return words


def _starts(text: str, words: list[str], count: int) -> list[int]:
    # Offsets of the first `count` tokens in `text`.  Only blanks separate a
    # token from the one before it and no token starts with a blank, so a
    # token starts at the first occurrence of its text after the previous one.
    starts = []
    pos = 0
    for word in words[:count]:
        pos = text.index(word, pos) if word else len(text)
        starts.append(pos)
        pos += len(word)
    return starts


def _error(text: Optional[str], words: list[str], i: int, message: str, expected=frozenset()) -> ParseError:
    # A parse error at token `i`.  Its position is computed only when the
    # text is given; the parse of the split words, whose error is discarded,
    # is given None and leaves -1.
    return ParseError(message, -1 if text is None else _starts(text, words, i + 1)[i], expected)


def _unexpected(text: Optional[str], words: list[str], i: int, expected: frozenset[str]) -> ParseError:
    word = words[i]
    return _error(text, words, i, f"unexpected {_KINDS.get(word, 'ident')} {word!r}", expected)


def _ty(text: Optional[str], words: list[str], i: int) -> tuple[Ty, int]:
    """The type that starts at token `i`, and the index of the token after it.

    Each turn of the outer loop opens quantifiers and parentheses up to the
    next atom; the inner loop then finishes every production that the atom
    completes.  A token is classified by one `not in _KINDS` test, which
    identifiers, the most common token, pass.  An atom, or a closing
    parenthesis, followed by `->` is the left operand of an arrow; after a
    finished arrow or quantifier the next token is never `->`, since the
    type that finished it would have taken it.  The stack holds the
    productions waiting for a type: the left operand of an arrow (the
    operand itself), an open parenthesis (the empty tuple), a quantifier's
    bound `(binder, binder token)` and its body `(bound, binder, outer
    level)`.  `levels` maps each binder name in scope to the level of its
    innermost binder (0 for the outermost).  A finished bound names its own
    binder when the name is free in it or when one of its indices escapes to
    an outer binder of that name: when the bit of that binder is set in the
    bound's `_escapes` mask.  A live node costs one `table.get(key, _MISS)()`
    in its class's intern table, as in the constructors; a node is true, so
    `... or Constructor(...)` calls the constructor, the one place that
    validates and builds a node, only on a miss.
    """
    stack: list[object] = []
    levels: dict[VarName, int] = {}
    depth = 0
    while True:
        word = words[i]
        if word not in _KINDS:
            level = levels.get(word) if levels else None
            if level is None:
                t = _FREE_VARS.get(word, _MISS)() or FreeVar(word)
            else:
                k = depth - 1 - level
                t = _BOUND_IDXS.get(k, _MISS)() or BoundIdx(k)
        elif word == "Top":
            t = _TOP
        elif word == "All":
            binder = words[i + 1]
            if binder in _KINDS or binder not in _FREE_VARS and not _NAME_RE.match(binder):
                raise _unexpected(text, words, i + 1, frozenset(("ident",)))
            if words[i + 2] != "<:":
                raise _unexpected(text, words, i + 2, frozenset(("<:",)))
            stack.append((binder, i + 1))
            i += 3
            continue
        elif word == "(":
            stack.append(())
            i += 1
            continue
        else:
            raise _unexpected(text, words, i, _ATOM)
        i += 1
        if words[i] == "->":
            stack.append(t)
            i += 1
            continue
        while True:
            if not stack:
                return t, i
            frame = stack.pop()
            if type(frame) is not tuple:
                t = _ARROWS.get((frame, t), _MISS)() or Arrow(frame, t)
            elif len(frame) == 3:
                bound, binder, outer_level = frame
                t = _FORALLS.get((bound, t), _MISS)() or Forall(bound, t)
                depth -= 1
                if outer_level is None:
                    del levels[binder]
                else:
                    levels[binder] = outer_level
            elif frame:
                binder, binder_i = frame
                escapes = t._escapes
                if binder in t._fv or escapes and binder in levels and escapes >> depth - 1 - levels[binder] & 1:
                    message = f"bound of 'All {binder}' mentions the binder name {binder!r}, which it does not bind"
                    raise _error(text, words, binder_i, message)
                if words[i] != ".":
                    raise _unexpected(text, words, i, frozenset((".",)))
                stack.append((t, binder, levels.get(binder)))
                levels[binder] = depth
                depth += 1
                i += 1
                break
            else:
                if words[i] != ")":
                    raise _unexpected(text, words, i, frozenset((")",)))
                i += 1
                if words[i] == "->":
                    stack.append(t)
                    i += 1
                    break


def _bindings(text: Optional[str], words: list[str], i: int, stop: str) -> tuple[Env, int]:
    # The environment starting at token `i` and ending at the token `stop`
    # ("" for the end of input), extended as each binding is read, and the
    # index of that token.
    if words[i] == stop:
        return EMPTY_ENV, i
    if words[i] == "empty" and words[i + 1] == stop:
        return EMPTY_ENV, i + 1
    g = EMPTY_ENV
    while True:
        name = words[i]
        if name in _KINDS or name not in _FREE_VARS and not _NAME_RE.match(name):
            raise _unexpected(text, words, i, frozenset(("ident",)))
        if words[i + 1] != "<:":
            raise _unexpected(text, words, i + 1, frozenset(("<:",)))
        bound, i = _ty(text, words, i + 2)
        g = g.extend(name, bound)
        word = words[i]
        if word == ",":
            i += 1
        elif word == stop:
            return g, i
        else:
            raise _unexpected(text, words, i, frozenset((",", _KINDS[stop])))


def _end(text: Optional[str], words: list[str], i: int) -> None:
    if words[i]:
        raise _unexpected(text, words, i, frozenset(("eof",)))


def _parse(text: str, parse, *args):
    # `parse(text, words, *args)` over the split words of printable ASCII
    # text and, on a word that is not a name (`FreeVar` refuses it) or on any
    # parse error, over the tokens of `_lex`.  The first parse is given no
    # text, so an error it raises computes no position.  A parse of the
    # split words that succeeds has checked each of them as a symbol, a
    # keyword or a name, so they were the tokens, and gave what the tokens
    # give.
    if text.isascii() and text.isprintable():
        try:
            return parse(None, _split(text), *args)
        except (ParseError, MalformedTypeError):
            pass
    return parse(text, _lex(text), *args)


def _type(text: Optional[str], words: list[str]) -> Ty:
    t, i = _ty(text, words, 0)
    _end(text, words, i)
    return t


def parse_type(text: str) -> Ty:
    """Parse a complete type.  Every identifier outside a binder scope is free."""
    return _parse(text, _type)


def parse_env(text: str) -> Env:
    """Parse a comma-separated environment; empty input or `empty` is the empty one."""
    return _parse(text, _bindings, 0, "")[0]


def _parse_judgment(text: Optional[str], words: list[str]) -> tuple[Env, Ty, Ty, tuple[int, int, int, int, int]]:
    # The three components, and the token indices where the sections end and
    # start: env end, lhs start and end, rhs start and end.
    g, env_end = _bindings(text, words, 0, "|-")
    lhs, lhs_end = _ty(text, words, env_end + 1)
    if words[lhs_end] != "<:":
        raise _unexpected(text, words, lhs_end, frozenset(("<:",)))
    rhs, rhs_end = _ty(text, words, lhs_end + 1)
    _end(text, words, rhs_end)
    return g, lhs, rhs, (env_end, env_end + 1, lhs_end, lhs_end + 1, rhs_end)


def parse_judgment(text: str) -> tuple[Env, Ty, Ty]:
    """Parse `Env |- Ty <: Ty` into its three components."""
    g, lhs, rhs, _ = _parse(text, _parse_judgment)
    return g, lhs, rhs


def scan_judgment(text: str) -> SourceJudgment:
    """Parse a judgment line and report its raw sections and token spans."""
    words = _lex(text)
    _, _, _, (env_end, lhs_start, lhs_end, rhs_start, rhs_end) = _parse_judgment(text, words)
    words.pop()
    starts = _starts(text, words, len(words))

    def section(start: int, end: int) -> str:
        # Raw input between the first and last token of a section.
        return text[starts[start] : starts[end - 1] + len(words[end - 1])] if start < end else ""

    return SourceJudgment(
        env_text=section(0, env_end),
        lhs_text=section(lhs_start, lhs_end),
        rhs_text=section(rhs_start, rhs_end),
        tokens=tuple(Token(_KINDS.get(word, "ident"), word, pos, pos + len(word)) for word, pos in zip(words, starts)),
    )


def _set_bits(mask: int) -> Iterator[int]:
    # The positions of the set bits of `mask`, lowest first.  Each step
    # clears the lowest set bit, so a wide mask with few bits set takes few
    # steps.
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Printer:
    """The texts of `print_type`, `print_env` and `print_judgment`, each
    composed once.

    A type's text is built from its children's texts, and every composed
    text is kept, so printing many types that share subterms does Python
    work once per distinct node.  A locally closed arrow or quantifier has
    one canonical text, which is kept on the node itself (`Ty._text`) and
    serves every printer for as long as the node lives.  The text of a node
    that has escaping indices depends only on the names of the binders those
    indices reach, so this printer keeps it under the node followed by those
    names, one for each set bit of the node's `_escapes` mask.  An
    environment's text is canonical too and is kept on its cell (`Env._text`)
    in the same way, so a printer keeps no environment texts: a cell whose
    parent has been printed costs one binding.  A `check` pass of the
    benchmark prints about 4,000 distinct environments, about 0.7 MB of
    text; keeping them, it ran 10% faster and peaked 3.8% higher, partly
    through its extra passes (BENCH_39.json).  A printer only grows; make
    one per document.
    """

    __slots__ = ("texts",)

    def __init__(self) -> None:
        self.texts: dict[object, str] = {}

    def type_text(self, t: Ty) -> str:
        """The text of a locally closed type, with minimal parentheses."""
        # A root that needs no composing returns at once.  Most calls from
        # the writers print a leaf or a closed type that keeps its text, and
        # sending those through the loop below cost the `check` benchmark
        # about 8% of its throughput (BENCH_21.json).
        kind = type(t)
        if kind is FreeVar:
            return t.name
        if kind is Top:
            return "Top"
        if not isinstance(t, Ty) or t._escapes:
            raise MalformedTypeError(f"cannot print: {t!r}")
        text = t._text
        if text is not None:
            return text
        texts = self.texts
        # Postorder from a stack of pending items.  A leaf gives its text
        # and a binder name comes into scope.  An inner node gives its kept
        # text, or pushes a frame `(node, key, binder)` under its children:
        # the bound, the binder name and the body, for a quantifier.  The
        # frame composes the node's text from the last two texts made, takes
        # the binder out of scope again and keeps the text.
        names: list[VarName] = []
        out: list[str] = []
        stack: list[object] = [t]
        while stack:
            item = stack.pop()
            kind = type(item)
            if kind is FreeVar:
                out.append(item.name)
            elif kind is Top:
                out.append("Top")
            elif kind is BoundIdx:
                out.append(names[-1 - item.index])
            elif kind is str:
                names.append(item)
            elif kind is tuple:
                node, key, binder = item
                second = out.pop()
                first = out.pop()
                if binder is None:
                    text = f"({first}) -> {second}" if isinstance(node.dom, _Pair) else f"{first} -> {second}"
                else:
                    names.pop()
                    text = f"All {binder} <: {first} . {second}"
                if key is node:
                    _set_text(node, text)
                else:
                    texts[key] = text
                out.append(text)
            else:
                m = item._escapes
                if m:
                    # The text depends on the names of the binders the
                    # escaping indices reach, and on nothing else of the
                    # context: bit k of the mask is set when index k escapes,
                    # and it reaches `names[-1 - k]`.  The names are distinct
                    # (each binder avoids those its quantifier reaches), and
                    # a dict keeps them in order for the key and answers
                    # membership for the binder.
                    reached = {names[-1 - k]: None for k in _set_bits(m)}
                    key = (item, *reached)
                    text = texts.get(key)
                else:
                    reached = ()
                    key = item
                    text = item._text
                if text is not None:
                    out.append(text)
                elif kind is Arrow:
                    stack += ((item, key, None), item.cod, item.dom)
                else:
                    # The binder must avoid capture in the body and must not
                    # appear in the bound, which would make the text
                    # unparseable: it is fresh for the free names of the
                    # quantifier and the names it reaches.
                    free = fv(item)
                    n = 0
                    binder = "X0"
                    while binder in free or binder in reached:
                        n += 1
                        binder = f"X{n}"
                    stack += ((item, key, binder), item.body, binder, item.bound)
        return out[0]

    def env_text(self, g: Env) -> str:
        """Bindings oldest-first; the empty environment is ''."""
        if type(g) is not Env:
            raise TypeError(f"not an environment: {g!r}")
        text = g._text
        if text is None:
            # The bindings of the cells above the nearest printed ancestor,
            # newest first, then that ancestor's text; the walk ends at the
            # latest at `EMPTY_ENV`, whose text is "".  In a derivation every
            # environment but the root's is its parent's or an extension of
            # it by one binding, printed after it.
            parts = []
            cell = g
            while text is None:
                parts.append(f"{cell.name} <: {self.type_text(cell.bound)}")
                cell = cell.parent
                text = cell._text
            if text:
                parts.append(text)
            parts.reverse()
            text = ", ".join(parts)
            # Last: a print that raised sets no text.
            _set_env_text(g, text)
        return text

    def judgment_text(self, g: Env, lhs: Ty, rhs: Ty) -> str:
        """`Env |- Ty <: Ty`; an empty environment leaves the left side blank."""
        env_text = self.env_text(g)
        if env_text:
            return f"{env_text} |- {self.type_text(lhs)} <: {self.type_text(rhs)}"
        return f"|- {self.type_text(lhs)} <: {self.type_text(rhs)}"


def print_type(t: Ty) -> str:
    """Render a locally closed type with minimal parentheses.

    Binder names are chosen deterministically, so the output is canonical up to
    the names of free variables; `parse_type` maps it back to `t` exactly.
    """
    return Printer().type_text(t)


def print_env(g: Env) -> str:
    """Render bindings oldest-first; the empty environment prints as ''."""
    return Printer().env_text(g)


def print_judgment(g: Env, lhs: Ty, rhs: Ty) -> str:
    """Render `Env |- Ty <: Ty`; an empty environment leaves the left side blank."""
    return Printer().judgment_text(g, lhs, rhs)


def check_name(text: str) -> VarName:
    """Validate a bare variable name taken from user input."""
    if not is_var_name(text):
        raise ParseError(f"invalid variable name {text!r}", 0)
    return text
