"""Environments of bounded type variables and their well-formedness predicates."""

from __future__ import annotations

from typing import Iterable, Optional

from .syntax import HashConsed, Ty, VarName, _set_field, fresh, fv

_ENVS: dict = {}


class Env(HashConsed):
    """Ordered bindings (name, bound), stored newest-first.

    Declaration order is the reverse: `decls()` yields oldest-first, which is
    also the order the printer uses.  Duplicate names are representable (they
    simply fail `ok`); `lookup` resolves to the most recent binding.  Like
    types, environments are hash-consed: equal bindings give the same object.
    """

    __slots__ = ("bindings",)
    __match_args__ = ("bindings",)
    bindings: tuple[tuple[VarName, Ty], ...]

    def __new__(cls, bindings: tuple[tuple[VarName, Ty], ...] = ()) -> "Env":
        entry = _ENVS.get(bindings)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            _set_field(node, "bindings", bindings)
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


def lookup(g: Env, x: VarName) -> Optional[Ty]:
    """Bound of the most recent binding of `x`, or None."""
    for name, bound in g.bindings:
        if name == x:
            return bound
    return None


def gfresh(g: Env, x: VarName) -> bool:
    """True if `x` is not declared in `g`."""
    return all(name != x for name, _ in g.bindings)


def closed(t: Ty, g: Env) -> bool:
    """True if every free variable of `t` is declared in `g`."""
    names = {name for name, _ in g.bindings}
    return fv(t) <= names


def ok(g: Env) -> bool:
    """Well-formedness: scanning oldest-first, each name is new and each bound
    mentions only previously declared names."""
    seen: set[VarName] = set()
    for name, bound in g.decls():
        if name in seen or not fv(bound) <= seen:
            return False
        seen.add(name)
    return True


def fresh_for_env(g: Env) -> VarName:
    """Deterministic name not declared in `g`."""
    return fresh(name for name, _ in g.bindings)


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
