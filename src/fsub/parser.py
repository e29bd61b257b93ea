"""Surface syntax: parsing and printing of types, environments and judgments.

Grammar:

    Ty   ::= "Top" | ident | Ty "->" Ty | "All" ident "<:" Ty "." Ty | "(" Ty ")"
    Env  ::= <empty> | "empty" | ident "<:" Ty ("," ident "<:" Ty)*
    Judg ::= Env "|-" Ty "<:" Ty

`->` associates to the right and the body of an `All` extends as far right as
possible.  An `All` whose bound mentions its own binder name is rejected: the
binder scopes over the body only, so such a bound could only refer to an outer
variable of the same spelling, which this syntax refuses to express.

Nothing here recurses.  The lexer gives a flat list of token texts, the parser
is one loop over it with an explicit stack of pending productions, and the
printer is one postorder loop over an explicit stack that composes each
node's text from its children's, keeping the names of the binders it is
inside on another.  Binder names exist only in this module: the parser turns
them into indices and the printer turns indices back into names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_letters
from typing import Iterator

from .errors import MalformedTypeError
from .judgments import EMPTY_ENV, Env
from .syntax import (
    NAME_PATTERN,
    Arrow,
    BoundIdx,
    Forall,
    FreeVar,
    Top,
    Ty,
    VarName,
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


def _kind(word: str) -> str:
    return _KINDS.get(word, "ident")


def _lex(text: str) -> list[str]:
    """The token texts of `text`, then "" for the end of input.  The first
    character that starts no token raises, before any parsing."""
    words = _TOKEN_RE.findall(text)
    # A token that is neither a symbol, a keyword nor a name is one stray
    # character.  Each distinct text is classified once.
    bad = [word for word in set(words) if word not in _KINDS and word[0] not in _NAME_START]
    if bad:
        i = min(words.index(word) for word in bad)
        raise ParseError(f"unexpected character {words[i]!r}", _starts(text, words, i + 1)[i])
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


def _unexpected(text: str, words: list[str], i: int, expected: frozenset[str]) -> ParseError:
    word = words[i]
    return ParseError(f"unexpected {_kind(word)} {word!r}", _starts(text, words, i + 1)[i], expected)


def _ty(text: str, words: list[str], i: int) -> tuple[Ty, int]:
    """The type that starts at token `i`, and the index of the token after it.

    Each turn of the outer loop opens quantifiers and parentheses up to the
    next atom; the inner loop then finishes every production that the atom
    completes.  The stack holds the productions waiting for a type: the left
    operand of an arrow (the operand itself), an open parenthesis (None), a
    quantifier's bound `(binder, binder token)` and its body `(bound, binder,
    outer level)`.  `levels` maps each binder name in scope to the level of
    its innermost binder (0 for the outermost).  A finished bound names its
    own binder when the name is free in it or when one of its indices escapes
    to an outer binder of that name: when the bit of that binder is set in
    the bound's `_escapes` mask.
    """
    stack: list[object] = []
    levels: dict[VarName, int] = {}
    depth = 0
    while True:
        word = words[i]
        if word == "All":
            binder = words[i + 1]
            if binder in _KINDS:
                raise _unexpected(text, words, i + 1, frozenset(("ident",)))
            if words[i + 2] != "<:":
                raise _unexpected(text, words, i + 2, frozenset(("<:",)))
            stack.append((binder, i + 1))
            i += 3
            continue
        if word == "(":
            stack.append(None)
            i += 1
            continue
        if word == "Top":
            t = _TOP
        elif word in _KINDS:
            raise _unexpected(text, words, i, _ATOM)
        else:
            level = levels.get(word, -1) if levels else -1
            t = FreeVar(word) if level < 0 else BoundIdx(depth - 1 - level)
        i += 1
        atom = True
        while True:
            if atom and words[i] == "->":
                stack.append(t)
                i += 1
                break
            if not stack:
                return t, i
            frame = stack.pop()
            if frame is None:
                if words[i] != ")":
                    raise _unexpected(text, words, i, frozenset((")",)))
                i += 1
                atom = True
            elif type(frame) is not tuple:
                t = Arrow(frame, t)
                atom = False
            elif len(frame) == 2:
                binder, binder_i = frame
                k = depth - 1 - levels.get(binder, depth)
                if binder in t._fv or k >= 0 and t._escapes >> k & 1:
                    raise ParseError(
                        f"bound of 'All {binder}' mentions the binder name {binder!r}, which it does not bind",
                        _starts(text, words, binder_i + 1)[binder_i],
                    )
                if words[i] != ".":
                    raise _unexpected(text, words, i, frozenset((".",)))
                stack.append((t, binder, levels.get(binder)))
                levels[binder] = depth
                depth += 1
                i += 1
                break
            else:
                bound, binder, outer_level = frame
                t = Forall(bound, t)
                depth -= 1
                if outer_level is None:
                    del levels[binder]
                else:
                    levels[binder] = outer_level
                atom = False


def _bindings(text: str, words: list[str], i: int, stop: str) -> tuple[list[tuple[VarName, Ty]], int]:
    # The bindings of an environment starting at token `i` and ending at a
    # token of kind `stop`, and the index of that token.
    decls: list[tuple[VarName, Ty]] = []
    if _kind(words[i]) == stop:
        return decls, i
    if words[i] == "empty" and _kind(words[i + 1]) == stop:
        return decls, i + 1
    while True:
        name = words[i]
        if _kind(name) != "ident":
            raise _unexpected(text, words, i, frozenset(("ident",)))
        if words[i + 1] != "<:":
            raise _unexpected(text, words, i + 1, frozenset(("<:",)))
        bound, i = _ty(text, words, i + 2)
        decls.append((name, bound))
        word = words[i]
        if word == ",":
            i += 1
        elif _kind(word) == stop:
            return decls, i
        else:
            raise _unexpected(text, words, i, frozenset((",", stop)))


def _end(text: str, words: list[str], i: int) -> None:
    if words[i]:
        raise _unexpected(text, words, i, frozenset(("eof",)))


def parse_type(text: str) -> Ty:
    """Parse a complete type.  Every identifier outside a binder scope is free."""
    words = _lex(text)
    t, i = _ty(text, words, 0)
    _end(text, words, i)
    return t


def parse_env(text: str) -> Env:
    """Parse a comma-separated environment; empty input or `empty` is the empty one."""
    words = _lex(text)
    decls, _ = _bindings(text, words, 0, "eof")
    return Env.from_decls(decls)


def _parse_judgment(text: str, words: list[str]) -> tuple[Env, Ty, Ty, tuple[int, int, int, int, int]]:
    # The three components, and the token indices where the sections end and
    # start: env end, lhs start and end, rhs start and end.
    decls, env_end = _bindings(text, words, 0, "|-")
    lhs, lhs_end = _ty(text, words, env_end + 1)
    if words[lhs_end] != "<:":
        raise _unexpected(text, words, lhs_end, frozenset(("<:",)))
    rhs, rhs_end = _ty(text, words, lhs_end + 1)
    _end(text, words, rhs_end)
    return Env.from_decls(decls), lhs, rhs, (env_end, env_end + 1, lhs_end, lhs_end + 1, rhs_end)


def parse_judgment(text: str) -> tuple[Env, Ty, Ty]:
    """Parse `Env |- Ty <: Ty` into its three components."""
    g, lhs, rhs, _ = _parse_judgment(text, _lex(text))
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
        tokens=tuple(Token(_kind(word), word, pos, pos + len(word)) for word, pos in zip(words, starts)),
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
    environment's text is its tail's text plus one binding when the tail
    has been printed by this printer.  Environment texts stay with the
    printer and are not kept on `Env` nodes: every environment of a live
    derivation would then hold its text, and a prototype that kept them
    raised the `check` benchmark's peak memory by 14%, past its 10% bound
    (the type texts alone: 8%).  A printer only grows; make one per
    document.
    """

    __slots__ = ("texts", "envs")

    def __init__(self) -> None:
        self.texts: dict[object, str] = {}
        self.envs: dict[Env, str] = {}

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
                    text = f"({first}) -> {second}" if isinstance(node.dom, (Arrow, Forall)) else f"{first} -> {second}"
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
        envs = self.envs
        text = envs.get(g)
        if text is None:
            # In a derivation every environment but the root's is its
            # parent's, printed before it, or an extension of it by one
            # binding.  The first environment printed has no printed tail.
            tail = envs.get(g.parent) if envs and g.parent is not EMPTY_ENV else None
            if tail is None:
                parts = []
                cell = g
                while cell is not EMPTY_ENV:
                    parts.append(f"{cell.name} <: {self.type_text(cell.bound)}")
                    cell = cell.parent
                parts.reverse()
                text = ", ".join(parts)
            else:
                text = f"{tail}, {g.name} <: {self.type_text(g.bound)}"
            envs[g] = text
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
