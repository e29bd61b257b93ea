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
printer keeps the names of the binders it is inside on a stack.  Binder names
exist only in this module: the parser turns them into indices and the printer
turns indices back into names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_letters
from typing import Callable

from .errors import MalformedTypeError
from .judgments import Env
from .syntax import (
    NAME_PATTERN,
    Arrow,
    BoundIdx,
    Forall,
    FreeVar,
    Top,
    Ty,
    VarName,
    fresh,
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
    to an outer binder of that name.  `escaping` keeps `_escaping`'s sets
    for every bound of the call, so that deep input stays linear.
    """
    stack: list[object] = []
    levels: dict[VarName, int] = {}
    escaping: dict[Ty, frozenset[int]] = {}
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
                if binder in t._fv or 0 <= k < t._esc and k in _escaping(t, escaping):
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


def env_parser() -> Callable[[str], Env]:
    """`parse_env` as a function that parses each distinct binding text once
    over all its calls.  Types contain no `,`, so the text of an environment
    is its bindings' texts joined by commas.  When a piece is not exactly one
    binding, the whole text goes to `parse_env`, which reads a blank text and
    `empty` as the empty environment and otherwise raises its own error."""
    memo: dict[str, tuple[VarName, Ty]] = {}

    def parse(text: str) -> Env:
        decls = []
        for piece in text.split(","):
            binding = memo.get(piece)
            if binding is None:
                try:
                    found, _ = _bindings(piece, _lex(piece), 0, "eof")
                except ParseError:
                    found = []
                if len(found) != 1:
                    return parse_env(text)
                binding = memo[piece] = found[0]
            decls.append(binding)
        return Env.from_decls(decls)

    return parse


def env_printer(type_text: Callable[[Ty], str]) -> Callable[[Env], str]:
    """`print_env` as a function that prints each distinct binding once over
    all its calls, taking the text of each bound from `type_text` (a memo of
    `print_type`, say).  Environments that grow one binding at a time share
    the text of their bindings."""
    memo: dict[tuple[VarName, Ty], str] = {}

    def show(g: Env) -> str:
        parts = []
        for binding in reversed(g.bindings):
            text = memo.get(binding)
            if text is None:
                text = memo[binding] = f"{binding[0]} <: {type_text(binding[1])}"
            parts.append(text)
        return ", ".join(parts)

    return show


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


_NO_INDICES: frozenset[int] = frozenset()


def _escaping(t: Ty, memo: dict[Ty, frozenset[int]]) -> frozenset[int]:
    # The amounts k by which bound occurrences escape `t`: an occurrence
    # `BoundIdx(d + k)` under d of `t`'s own binders.  Postorder on an
    # explicit stack over the nodes that have an escaping index; `memo` keeps
    # each node's set.
    stack = [t]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        kind = type(node)
        if kind is BoundIdx:
            memo[node] = frozenset((node.index,))
            stack.pop()
            continue
        first, second = (node.dom, node.cod) if kind is Arrow else (node.bound, node.body)
        pending = [child for child in (first, second) if child._esc and child not in memo]
        if pending:
            stack += pending
            continue
        stack.pop()
        a = memo[first] if first._esc else _NO_INDICES
        b = memo[second] if second._esc else _NO_INDICES
        if kind is Forall:
            b = frozenset(k - 1 for k in b if k)
        memo[node] = a | b
    return memo[t]


def print_type(t: Ty) -> str:
    """Render a locally closed type with minimal parentheses.

    Binder names are chosen deterministically, so the output is canonical up to
    the names of free variables; `parse_type` maps it back to `t` exactly.
    """
    if not isinstance(t, Ty) or t._esc:
        raise MalformedTypeError(f"cannot print: {t!r}")
    # Left to right from a stack of pending types and literal strings; the
    # parts of a node are pushed in reverse so that they pop in order.  A
    # 1-tuple `(name,)` ends a bound and brings its binder into scope, and
    # None takes it out again after the body.
    out: list[str] = []
    names: list[VarName] = []
    escaping: dict[Ty, frozenset[int]] = {}
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
        elif kind is FreeVar:
            out.append(item.name)
        elif kind is Arrow:
            if isinstance(item.dom, (Arrow, Forall)):
                out.append("(")
                stack += (item.cod, ") -> ", item.dom)
            else:
                stack += (item.cod, " -> ", item.dom)
        elif kind is BoundIdx:
            out.append(names[-1 - item.index])
        elif kind is Forall:
            # The binder must avoid capture in the body and must not appear in
            # the bound, which would make the printed form unparseable: it
            # avoids the free names of the quantifier with each escaping index
            # replaced by its binder's name.  An escape level of e means that
            # index e - 1 escapes, and no other when e is 1.
            avoid = fv(item)
            e = item._esc
            if e == 1:
                avoid = avoid | {names[-1]}
            elif e:
                avoid = avoid | {names[-1 - k] for k in _escaping(item, escaping)}
            name = fresh(avoid)
            out.append(f"All {name} <: ")
            stack += (None, item.body, (name,), item.bound)
        elif kind is tuple:
            out.append(" . ")
            names.append(item[0])
        elif kind is Top:
            out.append("Top")
        else:
            names.pop()
    return "".join(out)


def print_env(g: Env) -> str:
    """Render bindings oldest-first; the empty environment prints as ''."""
    return ", ".join(f"{name} <: {print_type(bound)}" for name, bound in g.decls())


def print_judgment(g: Env, lhs: Ty, rhs: Ty) -> str:
    """Render `Env |- Ty <: Ty`; an empty environment leaves the left side blank."""
    body = f"|- {print_type(lhs)} <: {print_type(rhs)}"
    env_text = print_env(g)
    return f"{env_text} {body}" if env_text else body


def check_name(text: str) -> VarName:
    """Validate a bare variable name taken from user input."""
    if not is_var_name(text):
        raise ParseError(f"invalid variable name {text!r}", 0)
    return text
