"""Types of pure F-sub: named free variables, nameless bound occurrences.

A bound occurrence is a `BoundIdx` counting enclosing binders innermost-first,
so alpha-equivalent types are structurally equal and substitution can never
capture.  `BoundIdx` never appears in surface syntax; parser and printer deal
only in names.

Types are hash-consed: each constructor returns the one live node with the
same fields, so structurally equal types are the same object, `==` is `is`
and `hash` costs the same at any depth.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError
from typing import Callable, Iterable, Iterator

from .errors import MalformedTypeError

VarName = str

NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_']*"
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")


def is_var_name(text: str) -> bool:
    """True if `text` is a well-formed variable name."""
    return _NAME_RE.match(text) is not None


class _Entry(weakref.ref):
    # An intern-table entry: a weak reference to the node, which drops itself
    # from `table` when the node dies unless a newer node has taken its key.
    __slots__ = ("table", "key")


def _forget(entry: _Entry) -> None:
    if entry.table.get(entry.key) is entry:
        del entry.table[entry.key]


# Sets a field of a new node, past the `__setattr__` that forbids it.
_set_field = object.__setattr__


class HashConsed:
    """Immutable value of which at most one equal instance is alive.

    A subclass's constructor looks its key up in the class's intern table, a
    plain dict of weak entries, and only on a miss validates its fields,
    builds the node and calls `_intern`.  Equality and hashing are the
    identity's; `dataclasses.fields` and `dataclasses.replace` do not apply.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def _intern(self, table: dict, key: object) -> None:
        # Enter this new node in `table` under `key`.
        entry = _Entry(self, _forget)
        entry.table = table
        entry.key = key
        table[key] = entry

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Copies and unpickled values go through the constructor, so they are
        # the interned node itself.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        # `Name(field=value, ...)` as a dataclass prints it, emitted from a
        # stack of pending nodes and literal strings so that depth is no limit.
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
                continue
            names = item.__match_args__
            parts.append(type(item).__qualname__ + "(")
            stack.append(")")
            for i in reversed(range(len(names))):
                value = getattr(item, names[i])
                stack.append(value if isinstance(value, HashConsed) else repr(value))
                stack.append(f"{', ' if i else ''}{names[i]}=")
        return "".join(parts)


class Ty(HashConsed):
    """Base class of type nodes; values are immutable and hash-consed."""

    __slots__ = ()


class Top(Ty):
    """The maximal type."""

    __slots__ = ()

    def __new__(cls) -> "Top":
        return _TOP


_TOP = object.__new__(Top)
_FREE_VARS: dict = {}
_BOUND_IDXS: dict = {}
_ARROWS: dict = {}
_FORALLS: dict = {}


class FreeVar(Ty):
    """A free type variable, identified by name."""

    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: VarName

    def __new__(cls, name: VarName) -> "FreeVar":
        entry = _FREE_VARS.get(name)
        node = None if entry is None else entry()
        if node is None:
            if not is_var_name(name):
                raise MalformedTypeError(f"invalid variable name: {name!r}")
            node = object.__new__(cls)
            _set_field(node, "name", name)
            node._intern(_FREE_VARS, name)
        return node


class BoundIdx(Ty):
    """A bound occurrence; `index` counts enclosing binders innermost-first."""

    __slots__ = ("index",)
    __match_args__ = ("index",)
    index: int

    def __new__(cls, index: int) -> "BoundIdx":
        entry = _BOUND_IDXS.get(index)
        node = None if entry is None else entry()
        if node is None:
            if index < 0:
                raise MalformedTypeError(f"negative bound index: {index}")
            node = object.__new__(cls)
            _set_field(node, "index", index)
            node._intern(_BOUND_IDXS, index)
        return node


class Arrow(Ty):
    """Function type `dom -> cod`."""

    __slots__ = ("dom", "cod")
    __match_args__ = ("dom", "cod")
    dom: Ty
    cod: Ty

    def __new__(cls, dom: Ty, cod: Ty) -> "Arrow":
        key = (dom, cod)
        entry = _ARROWS.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            _set_field(node, "dom", dom)
            _set_field(node, "cod", cod)
            node._intern(_ARROWS, key)
        return node


class Forall(Ty):
    """Bounded universal.  Index 0 in `body` refers to this binder; `bound` does not."""

    __slots__ = ("bound", "body")
    __match_args__ = ("bound", "body")
    bound: Ty
    body: Ty

    def __new__(cls, bound: Ty, body: Ty) -> "Forall":
        key = (bound, body)
        entry = _FORALLS.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            _set_field(node, "bound", bound)
            _set_field(node, "body", body)
            node._intern(_FORALLS, key)
        return node


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
    return renamer(old, new)(t)


def renamer(old: VarName, new: VarName) -> Callable[[Ty], Ty]:
    """`subst_var(_, old, new)` as a function that remembers every node it has
    renamed, so that renaming many types that share subterms renames each
    distinct node once.  A free variable is renamed the same way under any
    number of binders, so one result per node is sound."""
    memo: dict[Ty, Ty] = {}

    def rename(t: Ty) -> Ty:
        # Postorder on an explicit stack, as in `_map_leaves`, skipping every
        # node already in the memo.
        stack: list[tuple[Ty, bool]] = [(t, False)]
        while stack:
            node, children_done = stack.pop()
            kind = type(node)
            if children_done:
                if kind is Arrow:
                    memo[node] = Arrow(memo[node.dom], memo[node.cod])
                else:
                    memo[node] = Forall(memo[node.bound], memo[node.body])
            elif node in memo:
                continue
            elif kind is Arrow:
                stack += ((node, True), (node.cod, False), (node.dom, False))
            elif kind is Forall:
                stack += ((node, True), (node.body, False), (node.bound, False))
            elif kind in _LEAVES:
                memo[node] = FreeVar(new) if kind is FreeVar and node.name == old else node
            else:
                raise TypeError(f"not a type: {node!r}")
        return memo[t]

    return rename


def alpha_eq(s: Ty, t: Ty) -> bool:
    """Alpha-equivalence.  The representation is canonical and hash-consed, so
    this is identity."""
    return s is t


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
