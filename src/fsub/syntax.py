"""Types of pure F-sub: named free variables, nameless bound occurrences.

A bound occurrence is a `BoundIdx` counting enclosing binders innermost-first,
so alpha-equivalent types are structurally equal and substitution can never
capture.  `BoundIdx` never appears in surface syntax; parser and printer deal
only in names.

Types are hash-consed: each constructor returns the one live node with the
same fields, so structurally equal types are the same object, `==` is `is`
and `hash` costs the same at any depth.  Each node also keeps its size, its
escaping bound indices and its free names, computed once from its children's,
so `size`, `is_locally_closed` and `fv` read a slot instead of walking a tree.
Two more facts are filled on first use: the last opening of a node as an
abstraction body, and the canonical text of a locally closed arrow or
quantifier, which the printer composes once for the node's lifetime.
`Arrow` and `Forall` are one pair node with one constructor: they differ
only in `_binds`, the binders over the second child (0 for an arrow's
codomain, 1 for a quantifier's body), which is all the walks here read.
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
    """True if `text` is a well-formed variable name: an identifier that is
    not one of the keywords `Top` and `All`."""
    return _NAME_RE.match(text) is not None and text not in ("Top", "All")


class _Entry(weakref.ref):
    # An intern-table entry: a weak reference to the node, which drops itself
    # from `table` when the node dies unless a newer node has taken its key.
    __slots__ = ("table", "key")


def _forget(entry: _Entry) -> None:
    if entry.table.get(entry.key) is entry:
        del entry.table[entry.key]


# The default of an intern-table lookup: a call gives None, as a dead entry's
# does, so `table.get(key, _MISS)()` is the live node or None.
_MISS = type(None)


# Sets a field of a new node, past the `__setattr__` that forbids it.
_set_field = object.__setattr__


class HashConsed:
    """Immutable value of which at most one equal instance is alive.

    A subclass's constructor looks its key up in the class's intern table, a
    plain dict of weak entries, as `table.get(key, _MISS)()`, the live node
    or None, and only on a miss validates its fields, builds the node and
    calls `_intern`.  The parser reads the tables of `FreeVar`, `BoundIdx`,
    `Arrow` and `Forall` the same way, and the decider and the tree builder
    of `subtyper` that of `Derivation`; each calls the constructor only on
    a miss.  Equality and hashing are the identity's; `dataclasses.fields` and
    `dataclasses.replace` do not apply.
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
        # stack of pending nodes, tuples and literal strings so that depth is
        # no limit: a tuple (premises, bindings) is unfolded here too.
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            kind = type(item)
            if kind is str:
                parts.append(item)
                continue
            if kind is tuple:
                values, labels = item, ("",) * len(item)
                parts.append("(")
                stack.append(",)" if len(item) == 1 else ")")
            else:
                labels = tuple(name + "=" for name in item.__match_args__)
                values = tuple(getattr(item, name) for name in item.__match_args__)
                parts.append(kind.__qualname__ + "(")
                stack.append(")")
            for i in reversed(range(len(values))):
                value = values[i]
                stack.append(value if type(value) is tuple or isinstance(value, HashConsed) else repr(value))
                stack.append(", " + labels[i] if i else labels[i])
        return "".join(parts)


class Ty(HashConsed):
    """Base class of type nodes; values are immutable and hash-consed.

    Every node carries three facts about its tree: `_size`, the node count;
    `_escapes`, a bitmask of its escaping indices, with bit k set when an
    occurrence under d of its own binders is `BoundIdx(d + k)` (0 if it is
    locally closed); and `_fv`, its free names.  The constructor sets all
    three when it builds the node, an inner node from its children's.  A
    fourth, `_opened`, is left unset until `open_ty` first opens the node as
    an abstraction body, and then holds its last (name, opened body) pair.
    A fifth, `_text`, is the canonical text `parser.Printer` gives a locally
    closed `Arrow` or `Forall`: None until the node is first printed, and
    never set on a leaf or on a node with an escaping index, whose text
    depends on the names of the binders above it.  A closed node's text
    depends on the node alone, since its binder names are chosen from its
    free names."""

    __slots__ = ("_size", "_escapes", "_fv", "_opened", "_text")


# Setters of the facts, straight through their slots: cheaper than
# `_set_field`, and a node is built often.
_set_size = Ty._size.__set__
_set_escapes = Ty._escapes.__set__
_set_fv = Ty._fv.__set__
_set_opened = Ty._opened.__set__
_set_text = Ty._text.__set__


def _not_a_type(*children: object) -> TypeError:
    bad = next(child for child in children if not isinstance(child, Ty))
    return TypeError(f"not a type: {bad!r}")


class Top(Ty):
    """The maximal type."""

    __slots__ = ()

    def __new__(cls) -> "Top":
        return _TOP


_NO_NAMES: frozenset[VarName] = frozenset()
_TOP = object.__new__(Top)
_set_size(_TOP, 1)
_set_escapes(_TOP, 0)
_set_fv(_TOP, _NO_NAMES)
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
        node = _FREE_VARS.get(name, _MISS)()
        if node is None:
            if not is_var_name(name):
                raise MalformedTypeError(f"invalid variable name: {name!r}")
            node = object.__new__(cls)
            _set_field(node, "name", name)
            _set_size(node, 1)
            _set_escapes(node, 0)
            _set_fv(node, frozenset((name,)))
            node._intern(_FREE_VARS, name)
        return node


class BoundIdx(Ty):
    """A bound occurrence; `index` counts enclosing binders innermost-first."""

    __slots__ = ("index",)
    __match_args__ = ("index",)
    index: int

    def __new__(cls, index: int) -> "BoundIdx":
        node = _BOUND_IDXS.get(index, _MISS)()
        if node is None:
            if index < 0:
                raise MalformedTypeError(f"negative bound index: {index}")
            node = object.__new__(cls)
            _set_field(node, "index", index)
            _set_size(node, 1)
            _set_escapes(node, 1 << index)
            _set_fv(node, _NO_NAMES)
            node._intern(_BOUND_IDXS, index)
        return node


class _Pair(Ty):
    """An inner node: two children, the second under `_binds` binders of its own."""

    # A kind sets `_binds`, names the two slots as its fields and keeps its
    # own intern table, `_table`.
    __slots__ = ("_first", "_second")

    def __new__(cls, first: Ty, second: Ty) -> "_Pair":
        key = (first, second)
        table = cls._table
        node = table.get(key, _MISS)()
        if node is None:
            node = object.__new__(cls)
            _set_first(node, first)
            _set_second(node, second)
            try:
                _set_size(node, 1 + first._size + second._size)
            except AttributeError:
                raise _not_a_type(first, second) from None
            # An index that escapes the second child by k escapes the node
            # by k - `_binds`, or not at all when k < `_binds`.
            _set_escapes(node, first._escapes | second._escapes >> cls._binds)
            # The free names reuse a child's set when the union adds nothing.
            a, b = first._fv, second._fv
            _set_fv(node, a if b <= a else b if a <= b else a | b)
            _set_text(node, None)
            node._intern(table, key)
        return node


_set_first = _Pair._first.__set__
_set_second = _Pair._second.__set__


class Arrow(_Pair):
    """Function type `dom -> cod`."""

    __slots__ = ()
    __match_args__ = ("dom", "cod")
    dom = _Pair._first
    cod = _Pair._second
    _binds = 0
    _table = _ARROWS


class Forall(_Pair):
    """Bounded universal.  Index 0 in `body` refers to this binder; `bound` does not."""

    __slots__ = ()
    __match_args__ = ("bound", "body")
    bound = _Pair._first
    body = _Pair._second
    _binds = 1
    _table = _FORALLS


_LEAVES = frozenset((Top, FreeVar, BoundIdx))
_PAIRS = frozenset((Arrow, Forall))


def nodes(t: Ty) -> Iterator[tuple[Ty, int]]:
    """Every node of `t` in preorder (bound before body, domain before
    codomain), each with the number of binders above it: the quantifiers
    whose body contains the node."""
    stack = [(t, 0)]
    while stack:
        node, d = stack.pop()
        yield node, d
        kind = type(node)
        if kind in _PAIRS:
            stack.append((node._second, d + kind._binds))
            stack.append((node._first, d))
        elif kind not in _LEAVES:
            raise TypeError(f"not a type: {node!r}")


def _map_leaves(
    t: Ty,
    skip: Callable[[Ty, int], bool],
    leaf: Callable[[int], Ty],
    per_binder: int = 1,
) -> Ty:
    # `t` with every subtree for which `skip(node, d)` holds kept as it is and
    # every other leaf replaced by `leaf(d)`, where d counts the binders above
    # the node, each binder adding `per_binder` (0 for a map that does not
    # depend on depth).  Postorder on an explicit stack: an inner node is
    # visited once to push its children and once more, flagged, to rebuild
    # itself from their results, which `memo` keeps under (node, d), so a
    # shared subterm is rebuilt once.  A subtree whose leaves all come back
    # unchanged is the same object.
    memo: dict[tuple[Ty, int], Ty] = {}
    stack: list[tuple[Ty, int, bool]] = [(t, 0, False)]
    out: list[Ty] = []
    while stack:
        node, d, children_done = stack.pop()
        kind = type(node)
        if children_done:
            second = out.pop()
            first = out.pop()
            done = node if first is node._first and second is node._second else kind(first, second)
            memo[node, d] = done
            out.append(done)
        elif skip(node, d):
            out.append(node)
        elif kind in _LEAVES:
            out.append(leaf(d))
        elif (done := memo.get((node, d))) is not None:
            out.append(done)
        else:
            stack += ((node, d, True), (node._second, d + per_binder * kind._binds, False), (node._first, d, False))
    return out[0]


def fv(t: Ty) -> frozenset[VarName]:
    """Free variable names of `t`.  Bound indices contribute nothing."""
    return t._fv


def is_locally_closed(t: Ty) -> bool:
    """True if no bound index of `t` escapes its binders."""
    return t._escapes == 0


def open_ty(body: Ty, name: VarName) -> Ty:
    """Instantiate index 0 of an abstraction body with the free variable `name`.
    The body keeps the last result, so opening it again with the same name
    costs a slot read; its name was validated when it was kept."""
    escapes = body._escapes
    if escapes == 1:
        last = getattr(body, "_opened", None)
        if last is not None and last[0] == name:
            return last[1]
    elif escapes:
        raise MalformedTypeError(f"abstraction body has an escaped index: {body!r}")
    repl = FreeVar(name)
    if not escapes:
        return body
    # A subtree under d binders holds an occurrence of index 0 exactly when an
    # index d or above escapes it, since no index above 0 escapes the body;
    # the one leaf that does is `BoundIdx(d)`.
    opened = _map_leaves(body, lambda node, d: node._escapes >> d == 0, lambda d: repl)
    _set_opened(body, (name, opened))
    return opened


def close_ty(t: Ty, name: VarName) -> Ty:
    """Abstract the free variable `name` out of `t`, producing a body for `Forall`."""
    return _map_leaves(t, lambda node, d: name not in node._fv, BoundIdx)


def subst_var(t: Ty, old: VarName, new: VarName) -> Ty:
    """Rename the free variable `old` to `new` throughout `t`, skipping every
    subtree without a free `old`.  A free variable is renamed the same way
    under any number of binders, so the map does not depend on depth."""
    return _map_leaves(t, lambda node, d: old not in node._fv, lambda d: FreeVar(new), 0)


def alpha_eq(s: Ty, t: Ty) -> bool:
    """Alpha-equivalence.  The representation is canonical and hash-consed, so
    this is identity."""
    return s is t


def size(t: Ty) -> int:
    """Node count.  A bound occurrence counts 1, exactly like the variable that
    would replace it, so the size of an abstraction body does not depend on the
    name chosen to open it."""
    return t._size


def fresh(avoid: Iterable[VarName]) -> VarName:
    """Least name in the sequence X0, X1, ... not contained in `avoid`."""
    taken = avoid if isinstance(avoid, (set, frozenset)) else set(avoid)
    n = 0
    while f"X{n}" in taken:
        n += 1
    return f"X{n}"
