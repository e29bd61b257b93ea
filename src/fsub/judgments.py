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
    give the same object.  The first scope question asked of an environment
    fills `_scope`, each declared name's newest bound, and `_ok`, the `ok`
    verdict, in one oldest-first scan; every later question reads them.
    """

    __slots__ = ("bindings", "_scope", "_ok")
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
        return Env(((name, bound),) + self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)


EMPTY_ENV = Env()


def dom(g: Env) -> list[VarName]:
    """Declared names, oldest-first, duplicates preserved."""
    return [name for name, _ in g.decls()]


def _scope(g: Env) -> dict[VarName, Ty]:
    # Each name declared in `g` to the bound of its newest binding.
    if g._scope is None:
        scope: dict[VarName, Ty] = {}
        declared = scope.keys()  # a view, so it grows with `scope`
        good = True
        for name, bound in reversed(g.bindings):
            good = good and name not in scope and is_var_name(name) and fv(bound) <= declared
            scope[name] = bound
        _set_field(g, "_ok", good)
        _set_field(g, "_scope", scope)
    return g._scope


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
    _scope(g)
    return g._ok


def witness_for(g: Env, *tys: Ty) -> VarName:
    """Deterministic witness: the name `fresh` picks to avoid every name
    declared in `g` and every name free in `tys`."""
    scope = _scope(g)
    free = frozenset().union(*map(fv, tys))
    n = 0
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
