"""Environments of bounded type variables and their well-formedness predicates."""

from __future__ import annotations

from typing import Iterable, Optional

from .syntax import HashConsed, Ty, VarName, _set_field, fv, is_var_name

_ENVS: dict = {}


class Env(HashConsed):
    """Ordered bindings (name, bound), stored newest-first.

    Declaration order is the reverse: `decls()` yields oldest-first, which is
    also the order the printer uses.  Any string is representable as a name,
    but `ok` holds only if each one is a variable name (`is_var_name`), so
    an ok environment prints as text that parses back.  Duplicate names are
    representable too (they simply fail `ok`); `lookup` resolves to the most
    recent binding.  Like types, environments are hash-consed: equal bindings
    give the same object.  Scope questions read `_scope`, a `_Scope` table.
    `extend` on an environment whose table is filled inherits it: the child's
    table is a copy of the parent's with one more binding declared.  Any other
    environment fills its table with one oldest-first scan, the first time it
    is asked.
    """

    __slots__ = ("bindings", "_scope")
    __match_args__ = ("bindings",)
    bindings: tuple[tuple[VarName, Ty], ...]

    def __new__(cls, bindings: tuple[tuple[VarName, Ty], ...] = ()) -> "Env":
        entry = _ENVS.get(bindings)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            _set_field(node, "bindings", bindings)
            _set_field(node, "_scope", None)
            node._intern(_ENVS, bindings)
        return node

    @classmethod
    def from_decls(cls, decls: Iterable[tuple[VarName, Ty]]) -> "Env":
        """Build an environment from bindings given oldest-first."""
        return cls(tuple(reversed(tuple(decls))))

    def decls(self) -> tuple[tuple[VarName, Ty], ...]:
        """Bindings oldest-first."""
        return tuple(reversed(self.bindings))

    def extend(self, name: VarName, bound: Ty) -> "Env":
        """A new environment with (name, bound) as its newest binding."""
        child = Env(((name, bound),) + self.bindings)
        if child._scope is None and self._scope is not None:
            _set_field(child, "_scope", self._scope.inherit(name, bound))
        return child

    def __len__(self) -> int:
        return len(self.bindings)


EMPTY_ENV = Env()


def dom(g: Env) -> list[VarName]:
    """Declared names, oldest-first, duplicates preserved."""
    return [name for name, _ in g.decls()]


class _Scope(dict):
    # Each name declared in an environment to the bound of its newest binding,
    # with the environment's `ok` verdict and `next`, the least n such that
    # `X<n>` is not declared.

    __slots__ = ("ok", "next")

    def declare(self, name: VarName, bound: Ty) -> None:
        # The one scope step, for a binding newer than all in the table: it
        # keeps `ok` if the name is a new variable name and the bound's free
        # names are declared, then records the bound.
        self.ok = self.ok and name not in self and is_var_name(name) and fv(bound) <= self.keys()
        self[name] = bound
        n = self.next
        while f"X{n}" in self:
            n += 1
        self.next = n

    def inherit(self, name: VarName, bound: Ty) -> "_Scope":
        # The table of an extension by (name, bound): a copy and one step.
        table = _Scope(self)
        table.ok, table.next = self.ok, self.next
        table.declare(name, bound)
        return table


def _scope(g: Env) -> _Scope:
    # The table of `g`: inherited at `extend` if the parent's was filled,
    # else filled here by one oldest-first scan.
    scope = g._scope
    if scope is None:
        scope = _Scope()
        scope.ok, scope.next = True, 0
        for name, bound in reversed(g.bindings):
            scope.declare(name, bound)
        _set_field(g, "_scope", scope)
    return scope


def lookup(g: Env, x: VarName) -> Optional[Ty]:
    """Bound of the most recent binding of `x`, or None."""
    return _scope(g).get(x)


def gfresh(g: Env, x: VarName) -> bool:
    """True if `x` is not declared in `g`."""
    return x not in _scope(g)


def closed(t: Ty, g: Env) -> bool:
    """True if every free variable of `t` is declared in `g`."""
    return fv(t) <= _scope(g).keys()


def ok(g: Env) -> bool:
    """Well-formedness: scanning oldest-first, each name is a new variable
    name and each bound mentions only previously declared names."""
    return _scope(g).ok


def witness_for(g: Env, *tys: Ty) -> VarName:
    """Deterministic witness: the name `fresh` picks to avoid every name
    declared in `g` and every name free in `tys`.  The search starts at the
    first `X<n>` that `g` does not declare, which its table keeps."""
    scope = _scope(g)
    free = frozenset().union(*map(fv, tys))
    n = scope.next
    while f"X{n}" in scope or f"X{n}" in free:
        n += 1
    return f"X{n}"


def fresh_for_env(g: Env) -> VarName:
    """Deterministic name not declared in `g`."""
    return witness_for(g)


def env_concat(g: Env, delta: Env) -> Env:
    """`g` followed by `delta`; every binding of `delta` is newer than all of `g`."""
    return Env(delta.bindings + g.bindings)


def names_in_env(g: Env) -> frozenset[VarName]:
    """Declared names together with every name free in some bound."""
    names = set()
    for name, bound in g.bindings:
        names.add(name)
        names |= fv(bound)
    return frozenset(names)
