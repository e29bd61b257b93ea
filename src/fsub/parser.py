"""Surface syntax: parsing and printing of types, environments and judgments.

Grammar:

    Ty   ::= "Top" | ident | Ty "->" Ty | "All" ident "<:" Ty "." Ty | "(" Ty ")"
    Env  ::= <empty> | "empty" | ident "<:" Ty ("," ident "<:" Ty)*
    Judg ::= Env "|-" Ty "<:" Ty

`->` associates to the right and the body of an `All` extends as far right as
possible.  An `All` whose bound mentions its own binder name is rejected: the
binder scopes over the body only, so such a bound could only refer to an outer
variable of the same spelling, which this syntax refuses to express.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    is_locally_closed,
    is_var_name,
    nodes,
    open_ty,
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


_KEYWORDS = {"Top", "All"}
_BLANKS = " \t\r\n"
# One token per match, after any run of blanks: a symbol, an identifier
# (exactly the names `FreeVar` accepts), or any other character, which is an
# error.  Blanks at the end of the input match nothing and are skipped.
_TOKEN_RE = re.compile(rf"[{_BLANKS}]*(?:(->|<:|\|-|[.(),])|({NAME_PATTERN})|([^{_BLANKS}]))")

# A lexed token is a plain `(kind, text, pos, end)` tuple.
_RawToken = tuple[str, str, int, int]


def _lex(text: str) -> list[_RawToken]:
    tokens: list[_RawToken] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        word = m[kind]
        if kind == 1:
            append((word, word, m.start(1), m.end()))
        elif kind == 2:
            append((word if word in _KEYWORDS else "ident", word, m.start(2), m.end()))
        else:
            raise ParseError(f"unexpected character {word!r}", m.start(3))
    append(("eof", "", len(text), len(text)))
    return tokens


@dataclass
class _Parser:
    text: str
    tokens: list[_RawToken]
    index: int = 0
    scope: list[VarName] = field(default_factory=list)

    def peek(self) -> _RawToken:
        return self.tokens[self.index]

    def at(self, kind: str) -> bool:
        return self.tokens[self.index][0] == kind

    def advance(self) -> _RawToken:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _RawToken:
        tok = self.tokens[self.index]
        if tok[0] != kind:
            raise ParseError(
                f"unexpected {tok[0] or 'end of input'} {tok[1]!r}",
                tok[2],
                frozenset((kind,)),
            )
        self.index += 1
        return tok

    def ty(self) -> Ty:
        if self.at("All"):
            return self.forall()
        return self.arrow()

    def forall(self) -> Ty:
        self.expect("All")
        _, binder, binder_pos, _ = self.expect("ident")
        self.expect("<:")
        bound = self.ty()
        # The bound spells the binder's name as a free variable, or as an index
        # escaping the bound to an enclosing binder of that name.
        if binder in fv(bound) or (
            not is_locally_closed(bound)
            and any(
                isinstance(node, BoundIdx) and node.index >= d and self.scope[d - node.index - 1] == binder
                for node, d in nodes(bound)
            )
        ):
            raise ParseError(
                f"bound of 'All {binder}' mentions the binder name {binder!r},"
                " which it does not bind",
                binder_pos,
            )
        self.expect(".")
        self.scope.append(binder)
        try:
            body = self.ty()
        finally:
            self.scope.pop()
        return Forall(bound, body)

    def arrow(self) -> Ty:
        # `->` is right-associative: collect the operands, then fold from the
        # right.  A quantifier operand extends to the end, so it is the last.
        operands = [self.atom()]
        while self.at("->"):
            self.advance()
            if self.at("All"):
                operands.append(self.forall())
                break
            operands.append(self.atom())
        t = operands.pop()
        while operands:
            t = Arrow(operands.pop(), t)
        return t

    def atom(self) -> Ty:
        kind, text, pos, _ = self.tokens[self.index]
        if kind == "Top":
            self.index += 1
            return Top()
        if kind == "ident":
            self.index += 1
            for depth, binder in enumerate(reversed(self.scope)):
                if binder == text:
                    return BoundIdx(depth)
            return FreeVar(text)
        if kind == "(":
            self.index += 1
            inner = self.ty()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected {kind or 'end of input'} {text!r}",
            pos,
            frozenset(("Top", "All", "ident", "(")),
        )

    def env_bindings(self, stop: str) -> list[tuple[VarName, Ty]]:
        decls: list[tuple[VarName, Ty]] = []
        if self.at(stop):
            return decls
        if self.at("ident") and self.peek()[1] == "empty" and self.tokens[self.index + 1][0] == stop:
            self.advance()
            return decls
        while True:
            name = self.expect("ident")[1]
            self.expect("<:")
            bound = self.ty()
            decls.append((name, bound))
            if self.at(","):
                self.advance()
                continue
            if self.at(stop):
                return decls
            kind, text, pos, _ = self.peek()
            raise ParseError(
                f"unexpected {kind} {text!r}",
                pos,
                frozenset((",", stop)),
            )

    def slice_text(self, start: int, end: int) -> str:
        # Raw input between the first and last token of a section.
        if start >= end:
            return ""
        return self.text[self.tokens[start][2] : self.tokens[end - 1][3]]


def parse_type(text: str) -> Ty:
    """Parse a complete type.  Every identifier outside a binder scope is free."""
    p = _Parser(text, _lex(text))
    t = p.ty()
    p.expect("eof")
    return t


def parse_env(text: str) -> Env:
    """Parse a comma-separated environment; empty input or `empty` is the empty one."""
    p = _Parser(text, _lex(text))
    decls = p.env_bindings(stop="eof")
    p.expect("eof")
    return Env.from_decls(decls)


def _parse_judgment(p: _Parser) -> tuple[Env, Ty, Ty, tuple[int, int, int, int, int]]:
    # The three components, and the token indices where the sections end and
    # start: env end, lhs start and end, rhs start and end.
    decls = p.env_bindings(stop="|-")
    env_end = p.index
    p.expect("|-")
    lhs_start = p.index
    lhs = p.ty()
    lhs_end = p.index
    p.expect("<:")
    rhs_start = p.index
    rhs = p.ty()
    rhs_end = p.index
    p.expect("eof")
    return Env.from_decls(decls), lhs, rhs, (env_end, lhs_start, lhs_end, rhs_start, rhs_end)


def parse_judgment(text: str) -> tuple[Env, Ty, Ty]:
    """Parse `Env |- Ty <: Ty` into its three components."""
    g, lhs, rhs, _ = _parse_judgment(_Parser(text, _lex(text)))
    return g, lhs, rhs


def scan_judgment(text: str) -> SourceJudgment:
    """Parse a judgment line and report its raw sections and token spans."""
    p = _Parser(text, _lex(text))
    _, _, _, (env_end, lhs_start, lhs_end, rhs_start, rhs_end) = _parse_judgment(p)
    return SourceJudgment(
        env_text=p.slice_text(0, env_end),
        lhs_text=p.slice_text(lhs_start, lhs_end),
        rhs_text=p.slice_text(rhs_start, rhs_end),
        tokens=tuple(Token(*tok) for tok in p.tokens[:-1]),
    )


def _print_ty(t: Ty) -> str:
    # Left to right from a stack of pending types and literal strings; the
    # parts of a node are pushed in reverse so that they pop in order.
    out: list[str] = []
    stack: list[Ty | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, FreeVar):
            out.append(item.name)
        elif isinstance(item, Arrow):
            if isinstance(item.dom, (Arrow, Forall)):
                stack += (item.cod, ") -> ", item.dom, "(")
            else:
                stack += (item.cod, " -> ", item.dom)
        elif isinstance(item, Top):
            out.append("Top")
        elif isinstance(item, Forall):
            # The binder must avoid capture in the body and must not appear in
            # the bound, which would make the printed form unparseable.
            name = fresh(fv(item))
            stack += (open_ty(item.body, name), " . ", item.bound, f"All {name} <: ")
        else:
            raise MalformedTypeError(f"cannot print: {item!r}")
    return "".join(out)


def print_type(t: Ty) -> str:
    """Render a locally closed type with minimal parentheses.

    Binder names are chosen deterministically, so the output is canonical up to
    the names of free variables; `parse_type` maps it back to `t` exactly.
    """
    return _print_ty(t)


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
