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
# One alternative per token class, tried in order at each position: blanks,
# symbols, identifiers (exactly the names `FreeVar` accepts), and any other
# single character, which is an error.
_TOKEN_RE = re.compile(rf"[ \t\r\n]+|(->|<:|\|-|[.(),])|({NAME_PATTERN})|(.)", re.DOTALL)


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind is None:
            continue
        word = m.group(kind)
        if kind == 1:
            tokens.append(Token(word, word, m.start(), m.end()))
        elif kind == 2:
            tokens.append(Token(word if word in _KEYWORDS else "ident", word, m.start(), m.end()))
        else:
            raise ParseError(f"unexpected character {word!r}", m.start())
    tokens.append(Token("eof", "", len(text), len(text)))
    return tokens


@dataclass
class _Parser:
    text: str
    tokens: list[Token]
    index: int = 0
    scope: list[VarName] = field(default_factory=list)

    def peek(self) -> Token:
        return self.tokens[self.index]

    def at(self, kind: str) -> bool:
        return self.tokens[self.index].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind or 'end of input'} {tok.text!r}",
                tok.pos,
                frozenset((kind,)),
            )
        return self.advance()

    def ty(self) -> Ty:
        if self.at("All"):
            return self.forall()
        return self.arrow()

    def forall(self) -> Ty:
        self.expect("All")
        binder = self.expect("ident")
        self.expect("<:")
        bound = self.ty()
        for node, d in nodes(bound):
            # Each variable occurrence of the bound, by the name it spells.
            if isinstance(node, FreeVar):
                spelled = node.name
            elif isinstance(node, BoundIdx) and node.index >= d:
                spelled = self.scope[d - node.index - 1]
            else:
                continue
            if spelled == binder.text:
                raise ParseError(
                    f"bound of 'All {binder.text}' mentions the binder name {binder.text!r},"
                    " which it does not bind",
                    binder.pos,
                )
        self.expect(".")
        self.scope.append(binder.text)
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
        tok = self.peek()
        if tok.kind == "Top":
            self.advance()
            return Top()
        if tok.kind == "ident":
            self.advance()
            for depth, binder in enumerate(reversed(self.scope)):
                if binder == tok.text:
                    return BoundIdx(depth)
            return FreeVar(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.ty()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected {tok.kind or 'end of input'} {tok.text!r}",
            tok.pos,
            frozenset(("Top", "All", "ident", "(")),
        )

    def env_bindings(self, stop: str) -> list[tuple[VarName, Ty]]:
        decls: list[tuple[VarName, Ty]] = []
        if self.at(stop):
            return decls
        if self.at("ident") and self.peek().text == "empty" and self.tokens[self.index + 1].kind == stop:
            self.advance()
            return decls
        while True:
            name = self.expect("ident")
            self.expect("<:")
            bound = self.ty()
            decls.append((name.text, bound))
            if self.at(","):
                self.advance()
                continue
            if self.at(stop):
                return decls
            tok = self.peek()
            raise ParseError(
                f"unexpected {tok.kind} {tok.text!r}",
                tok.pos,
                frozenset((",", stop)),
            )

    def slice_text(self, start: int, end: int) -> str:
        # Raw input between the first and last token of a section.
        if start >= end:
            return ""
        return self.text[self.tokens[start].pos : self.tokens[end - 1].end]


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


def _parse_judgment(text: str) -> tuple[SourceJudgment, Env, Ty, Ty]:
    p = _Parser(text, _lex(text))
    env_start = p.index
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
    source = SourceJudgment(
        env_text=p.slice_text(env_start, env_end),
        lhs_text=p.slice_text(lhs_start, lhs_end),
        rhs_text=p.slice_text(rhs_start, rhs_end),
        tokens=tuple(p.tokens[:-1]),
    )
    return source, Env.from_decls(decls), lhs, rhs


def parse_judgment(text: str) -> tuple[Env, Ty, Ty]:
    """Parse `Env |- Ty <: Ty` into its three components."""
    _, g, lhs, rhs = _parse_judgment(text)
    return g, lhs, rhs


def scan_judgment(text: str) -> SourceJudgment:
    """Parse a judgment line and report its raw sections and token spans."""
    source, _, _, _ = _parse_judgment(text)
    return source


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
