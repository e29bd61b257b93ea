"""Types of pure F-sub: named free variables, nameless bound occurrences.

A bound occurrence is a `BoundIdx` counting enclosing binders innermost-first,
so alpha-equivalent types are structurally equal and substitution can never
capture.  `BoundIdx` never appears in surface syntax; parser and printer deal
only in names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import MalformedTypeError

VarName = str

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def is_var_name(text: str) -> bool:
    """True if `text` is a well-formed variable name."""
    return _NAME_RE.match(text) is not None


class Ty:
    """Base class of type nodes; values are immutable and compare structurally."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Top(Ty):
    """The maximal type."""


@dataclass(frozen=True, slots=True)
class FreeVar(Ty):
    """A free type variable, identified by name."""

    name: VarName

    def __post_init__(self) -> None:
        if not is_var_name(self.name):
            raise MalformedTypeError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True, slots=True)
class BoundIdx(Ty):
    """A bound occurrence; `index` counts enclosing binders innermost-first."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise MalformedTypeError(f"negative bound index: {self.index}")


@dataclass(frozen=True, slots=True)
class Arrow(Ty):
    """Function type `dom -> cod`."""

    dom: Ty
    cod: Ty


@dataclass(frozen=True, slots=True)
class Forall(Ty):
    """Bounded universal.  Index 0 in `body` refers to this binder; `bound` does not."""

    bound: Ty
    body: Ty


def fv(t: Ty) -> frozenset[VarName]:
    """Free variable names of `t`.  Bound indices contribute nothing."""
    match t:
        case Top() | BoundIdx():
            return frozenset()
        case FreeVar(name):
            return frozenset((name,))
        case Arrow(dom, cod):
            return fv(dom) | fv(cod)
        case Forall(bound, body):
            return fv(bound) | fv(body)
    raise TypeError(f"not a type: {t!r}")


def _closed_at(t: Ty, depth: int) -> bool:
    # True if every bound index of t points at one of `depth` enclosing binders.
    match t:
        case Top() | FreeVar():
            return True
        case BoundIdx(index):
            return index < depth
        case Arrow(dom, cod):
            return _closed_at(dom, depth) and _closed_at(cod, depth)
        case Forall(bound, body):
            return _closed_at(bound, depth) and _closed_at(body, depth + 1)
    raise TypeError(f"not a type: {t!r}")


def is_locally_closed(t: Ty) -> bool:
    """True if no bound index of `t` escapes its binders."""
    return _closed_at(t, 0)


def _open_at(t: Ty, depth: int, repl: FreeVar) -> Ty:
    match t:
        case Top() | FreeVar():
            return t
        case BoundIdx(index):
            return repl if index == depth else t
        case Arrow(dom, cod):
            return Arrow(_open_at(dom, depth, repl), _open_at(cod, depth, repl))
        case Forall(bound, body):
            return Forall(_open_at(bound, depth, repl), _open_at(body, depth + 1, repl))
    raise TypeError(f"not a type: {t!r}")


def open_ty(body: Ty, name: VarName) -> Ty:
    """Instantiate index 0 of an abstraction body with the free variable `name`."""
    if not _closed_at(body, 1):
        raise MalformedTypeError(f"abstraction body has an escaped index: {body!r}")
    return _open_at(body, 0, FreeVar(name))


def _close_at(t: Ty, depth: int, name: VarName) -> Ty:
    match t:
        case Top() | BoundIdx():
            return t
        case FreeVar(n):
            return BoundIdx(depth) if n == name else t
        case Arrow(dom, cod):
            return Arrow(_close_at(dom, depth, name), _close_at(cod, depth, name))
        case Forall(bound, body):
            return Forall(_close_at(bound, depth, name), _close_at(body, depth + 1, name))
    raise TypeError(f"not a type: {t!r}")


def close_ty(t: Ty, name: VarName) -> Ty:
    """Abstract the free variable `name` out of `t`, producing a body for `Forall`."""
    return _close_at(t, 0, name)


def subst_var(t: Ty, old: VarName, new: VarName) -> Ty:
    """Rename the free variable `old` to `new` throughout `t`."""
    match t:
        case Top() | BoundIdx():
            return t
        case FreeVar(n):
            return FreeVar(new) if n == old else t
        case Arrow(dom, cod):
            return Arrow(subst_var(dom, old, new), subst_var(cod, old, new))
        case Forall(bound, body):
            return Forall(subst_var(bound, old, new), subst_var(body, old, new))
    raise TypeError(f"not a type: {t!r}")


def alpha_eq(s: Ty, t: Ty) -> bool:
    """Alpha-equivalence.  The representation is canonical, so this is equality."""
    return s == t


def size(t: Ty) -> int:
    """Node count.  A bound occurrence counts 1, exactly like the variable that
    would replace it, so the size of an abstraction body does not depend on the
    name chosen to open it."""
    match t:
        case Top() | FreeVar() | BoundIdx():
            return 1
        case Arrow(dom, cod):
            return 1 + size(dom) + size(cod)
        case Forall(bound, body):
            return 1 + size(bound) + size(body)
    raise TypeError(f"not a type: {t!r}")


def fresh(avoid: Iterable[VarName]) -> VarName:
    """Least name in the sequence X0, X1, ... not contained in `avoid`."""
    taken = set(avoid)
    n = 0
    while f"X{n}" in taken:
        n += 1
    return f"X{n}"
