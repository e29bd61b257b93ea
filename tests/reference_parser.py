"""Recursive-descent reference for the surface-syntax parser, and a
reference printer.

A straightforward lexer (one regex match per token, positions recorded as it
goes) and a parser with one method per production, recursing once per
parenthesis and per quantifier (a chain of `->` is a loop).  The package's
parser is a single loop over a flat token list; the differential tests in `test_parser.py` require both to
return the same interned object, or to raise `ParseError` with the same
message, position and expected set, on every input.  Only for small inputs:
this parser runs out of interpreter stack at a few hundred levels.

The reference printer opens each quantifier body with its binder's name, so
that it only ever prints free variables; the package's printer keeps binder
names on a stack instead and must give the same text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from fsub.errors import MalformedTypeError
from fsub.judgments import Env
from fsub.parser import ParseError
from fsub.syntax import (
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
    nodes,
    open_ty,
)

_KEYWORDS = {"Top", "All"}
_BLANKS = " \t\r\n"
_TOKEN_RE = re.compile(rf"[{_BLANKS}]*(?:(->|<:|\|-|[.(),])|({NAME_PATTERN})|([^{_BLANKS}]))")

_RawToken = tuple[str, str, int]


def lex(text: str) -> list[_RawToken]:
    """`(kind, text, pos)` for every token, then an `eof` token."""
    tokens: list[_RawToken] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        word = m[kind]
        if kind == 1:
            tokens.append((word, word, m.start(1)))
        elif kind == 2:
            tokens.append((word if word in _KEYWORDS else "ident", word, m.start(2)))
        else:
            raise ParseError(f"unexpected character {word!r}", m.start(3))
    tokens.append(("eof", "", len(text)))
    return tokens


@dataclass
class _Parser:
    tokens: list[_RawToken]
    index: int = 0
    scope: list[VarName] = field(default_factory=list)

    def at(self, kind: str) -> bool:
        return self.tokens[self.index][0] == kind

    def expect(self, kind: str) -> _RawToken:
        tok = self.tokens[self.index]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[0] or 'end of input'} {tok[1]!r}", tok[2], frozenset((kind,)))
        self.index += 1
        return tok

    def ty(self) -> Ty:
        if self.at("All"):
            return self.forall()
        return self.arrow()

    def forall(self) -> Ty:
        self.expect("All")
        _, binder, binder_pos = self.expect("ident")
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
                f"bound of 'All {binder}' mentions the binder name {binder!r}, which it does not bind",
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
            self.index += 1
            if self.at("All"):
                operands.append(self.forall())
                break
            operands.append(self.atom())
        t = operands.pop()
        while operands:
            t = Arrow(operands.pop(), t)
        return t

    def atom(self) -> Ty:
        kind, text, pos = self.tokens[self.index]
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
        raise ParseError(f"unexpected {kind or 'end of input'} {text!r}", pos, frozenset(("Top", "All", "ident", "(")))

    def env_bindings(self, stop: str) -> list[tuple[VarName, Ty]]:
        decls: list[tuple[VarName, Ty]] = []
        if self.at(stop):
            return decls
        if self.at("ident") and self.tokens[self.index][1] == "empty" and self.tokens[self.index + 1][0] == stop:
            self.index += 1
            return decls
        while True:
            name = self.expect("ident")[1]
            self.expect("<:")
            decls.append((name, self.ty()))
            if self.at(","):
                self.index += 1
                continue
            if self.at(stop):
                return decls
            kind, text, pos = self.tokens[self.index]
            raise ParseError(f"unexpected {kind} {text!r}", pos, frozenset((",", stop)))


def parse_type(text: str) -> Ty:
    p = _Parser(lex(text))
    t = p.ty()
    p.expect("eof")
    return t


def parse_env(text: str) -> Env:
    p = _Parser(lex(text))
    decls = p.env_bindings(stop="eof")
    p.expect("eof")
    return Env.from_decls(decls)


def parse_judgment(text: str) -> tuple[Env, Ty, Ty]:
    p = _Parser(lex(text))
    decls = p.env_bindings(stop="|-")
    p.expect("|-")
    lhs = p.ty()
    p.expect("<:")
    rhs = p.ty()
    p.expect("eof")
    return Env.from_decls(decls), lhs, rhs


def print_type(t: Ty) -> str:
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
            name = fresh(fv(item))
            stack += (open_ty(item.body, name), " . ", item.bound, f"All {name} <: ")
        else:
            raise MalformedTypeError(f"cannot print: {item!r}")
    return "".join(out)
