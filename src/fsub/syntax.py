"""Types of pure F-sub: named free variables, nameless bound occurrences.

A bound occurrence is a `BoundIdx` counting enclosing binders innermost-first,
so alpha-equivalent types are structurally equal and substitution can never
capture.  `BoundIdx` never appears in surface syntax; parser and printer deal
only in names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import MalformedTypeError

VarName = str

NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_']*"
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")


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


_LEAVES = frozenset((Top, FreeVar, BoundIdx))


def nodes(t: Ty, depth: int = 0) -> Iterator[tuple[Ty, int]]:
    """Every node of `t` in preorder (bound before body, domain before
    codomain), each with the number of binders above it: `depth` plus the
    quantifiers whose body contains the node."""
    stack = [(t, depth)]
    while stack:
        node, d = stack.pop()
        yield node, d
        kind = type(node)
        if kind is Arrow:
            stack.append((node.cod, d))
            stack.append((node.dom, d))
        elif kind is Forall:
            stack.append((node.body, d + 1))
            stack.append((node.bound, d))
        elif kind not in _LEAVES:
            raise TypeError(f"not a type: {node!r}")


def _map_leaves(t: Ty, leaf: Callable[[Ty, int], Ty]) -> Ty:
    # `t` with each leaf replaced by `leaf(node, binders above it)`.  Postorder
    # on an explicit stack: an inner node is visited once to push its children
    # and once more, flagged, to rebuild itself from their results.  A subtree
    # whose leaves all map to themselves comes back as the same object.
    stack: list[tuple[Ty, int, bool]] = [(t, 0, False)]
    out: list[Ty] = []
    while stack:
        node, d, children_done = stack.pop()
        kind = type(node)
        if children_done:
            second = out.pop()
            first = out.pop()
            old_first, old_second = (node.dom, node.cod) if kind is Arrow else (node.bound, node.body)
            out.append(node if first is old_first and second is old_second else kind(first, second))
        elif kind is Arrow:
            stack += ((node, d, True), (node.cod, d, False), (node.dom, d, False))
        elif kind is Forall:
            stack += ((node, d, True), (node.body, d + 1, False), (node.bound, d, False))
        elif kind in _LEAVES:
            out.append(leaf(node, d))
        else:
            raise TypeError(f"not a type: {node!r}")
    return out[0]


def fv(t: Ty) -> frozenset[VarName]:
    """Free variable names of `t`.  Bound indices contribute nothing."""
    return frozenset(node.name for node, _ in nodes(t) if type(node) is FreeVar)


def _closed_at(t: Ty, depth: int) -> bool:
    # True if every bound index of t points at one of `depth` enclosing binders.
    return all(node.index < d for node, d in nodes(t, depth) if type(node) is BoundIdx)


def is_locally_closed(t: Ty) -> bool:
    """True if no bound index of `t` escapes its binders."""
    return _closed_at(t, 0)


def open_ty(body: Ty, name: VarName) -> Ty:
    """Instantiate index 0 of an abstraction body with the free variable `name`."""
    if not _closed_at(body, 1):
        raise MalformedTypeError(f"abstraction body has an escaped index: {body!r}")
    repl = FreeVar(name)
    return _map_leaves(body, lambda node, d: repl if type(node) is BoundIdx and node.index == d else node)


def close_ty(t: Ty, name: VarName) -> Ty:
    """Abstract the free variable `name` out of `t`, producing a body for `Forall`."""
    return _map_leaves(t, lambda node, d: BoundIdx(d) if type(node) is FreeVar and node.name == name else node)


def subst_var(t: Ty, old: VarName, new: VarName) -> Ty:
    """Rename the free variable `old` to `new` throughout `t`."""
    return _map_leaves(t, lambda node, d: FreeVar(new) if type(node) is FreeVar and node.name == old else node)


def alpha_eq(s: Ty, t: Ty) -> bool:
    """Alpha-equivalence.  The representation is canonical, so this is equality."""
    return s == t


def size(t: Ty) -> int:
    """Node count.  A bound occurrence counts 1, exactly like the variable that
    would replace it, so the size of an abstraction body does not depend on the
    name chosen to open it."""
    return sum(1 for _ in nodes(t))


def fresh(avoid: Iterable[VarName]) -> VarName:
    """Least name in the sequence X0, X1, ... not contained in `avoid`."""
    taken = set(avoid)
    n = 0
    while f"X{n}" in taken:
        n += 1
    return f"X{n}"
