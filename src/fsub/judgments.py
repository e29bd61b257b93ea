"""Environments of bounded type variables and their well-formedness predicates."""

from __future__ import annotations

from typing import Iterable, Optional

from .syntax import _MISS, HashConsed, Ty, VarName, fv, is_var_name

_ENVS: dict = {}


class Env(HashConsed):
    """Ordered bindings (name, bound), newest first.

    An environment is a cons cell: its newest binding `name <: bound` on top of
    `parent`, the environment of the older bindings, with `EMPTY_ENV` as the
    root (whose three fields are None).  Cells are hash-consed on
    `(parent, name, bound)`, so equal bindings give the same object and
    `extend` is one intern lookup or one new cell, at any depth.  `bindings`
    is the newest-first tuple, built on each read; `decls()` yields the
    oldest-first order the printer uses.  Any string is representable as a
    name (a name that is not a string, or a bound that is not a type, raises
    `TypeError`), but `ok` holds only if each one is a variable name
    (`is_var_name`), so an ok environment prints as text that parses back.
    Duplicate names are representable too (they simply fail `ok`); `lookup`
    resolves to the most recent binding.

    Scope questions read one `_Scope` table, `_SCOPE`, which describes one
    cell at a time.  One loop moves it to the cell asked about: the deeper
    of the two steps up (the table's undoing its binding) until they meet,
    and the asked cell's bindings are replayed from there (Baker's
    rerooting).  Each cell keeps the cell of its oldest binding, so that a
    move between cells with no binding in common empties the table instead.
    The first time a cell's binding is applied, one scope step
    (`_Scope.declare`) sets the cell's `ok` verdict and the first `X<n>` it
    does not declare, which it keeps.

    `_text` is the cell's canonical text, which `parser.Printer` sets the
    first time the cell is printed and every later printer reads for as long
    as the cell lives: None until then, and "" on `EMPTY_ENV`.  A cell keeps
    only its own text, which is its nearest printed ancestor's text followed
    by one binding per cell above that ancestor.  Two threads that print the
    same cell at once both set the same text, so the race is benign.
    """

    __slots__ = ("parent", "name", "bound", "_depth", "_first", "_ok", "_next", "_shadowed", "_text")
    __match_args__ = ("bindings",)
    parent: Optional["Env"]
    name: Optional[VarName]
    bound: Optional[Ty]

    def __new__(cls, bindings: Iterable[tuple[VarName, Ty]] = ()) -> "Env":
        return Env.from_decls(reversed(tuple(bindings)))

    @classmethod
    def from_decls(cls, decls: Iterable[tuple[VarName, Ty]]) -> "Env":
        """Build an environment from bindings given oldest-first."""
        g = EMPTY_ENV
        for name, bound in decls:
            g = g.extend(name, bound)
        return g

    @property
    def bindings(self) -> tuple[tuple[VarName, Ty], ...]:
        """Bindings newest-first."""
        return tuple(_walk(self))

    def decls(self) -> tuple[tuple[VarName, Ty], ...]:
        """Bindings oldest-first."""
        out = _walk(self)
        out.reverse()
        return tuple(out)

    def extend(self, name: VarName, bound: Ty) -> "Env":
        """The interned environment with (name, bound) as its newest binding."""
        key = (self, name, bound)
        node = _ENVS.get(key, _MISS)()
        if node is None:
            if type(name) is not str or not isinstance(bound, Ty):
                raise TypeError(f"a binding is a name and a type, got {name!r} <: {bound!r}")
            node = object.__new__(Env)
            _set_parent(node, self)
            _set_name(node, name)
            _set_bound(node, bound)
            _set_depth(node, self._depth + 1)
            _set_first(node, self._first if self._depth else node)
            _set_ok(node, None)
            _set_text(node, None)
            node._intern(_ENVS, key)
        return node

    def __len__(self) -> int:
        return self._depth


_set_parent = Env.parent.__set__
_set_name = Env.name.__set__
_set_bound = Env.bound.__set__
_set_depth = Env._depth.__set__
_set_first = Env._first.__set__
_set_ok = Env._ok.__set__
_set_next = Env._next.__set__
_set_shadowed = Env._shadowed.__set__
_set_text = Env._text.__set__


def _walk(g: Env) -> list[tuple[VarName, Ty]]:
    # The bindings of `g`, newest first, read off its chain of cells.
    out = []
    while g is not EMPTY_ENV:
        out.append((g.name, g.bound))
        g = g.parent
    return out


EMPTY_ENV = object.__new__(Env)
for _set in (_set_parent, _set_name, _set_bound, _set_first, _set_shadowed):
    _set(EMPTY_ENV, None)
_set_depth(EMPTY_ENV, 0)
_set_ok(EMPTY_ENV, True)
_set_next(EMPTY_ENV, 0)
_set_text(EMPTY_ENV, "")


def dom(g: Env) -> list[VarName]:
    """Declared names, oldest-first, duplicates preserved."""
    return [name for name, _ in g.decls()]


class _Scope(dict):
    # Each name declared in the environment `at` to the bound of its newest
    # binding.

    __slots__ = ("at",)

    def declare(self, cell: Env) -> None:
        # The one scope step, for a cell whose parent the table describes:
        # the cell keeps the binding it shadows, its parent's `ok` verdict if
        # its name is a new variable name and its bound's free names are
        # declared, and the least n such that `X<n>` is not declared; then
        # the table records its binding.
        name, bound, parent = cell.name, cell.bound, cell.parent
        shadowed = self.get(name)
        verdict = parent._ok and shadowed is None and is_var_name(name) and fv(bound) <= self.keys()
        _set_shadowed(cell, shadowed)
        self[name] = bound
        n = parent._next
        while f"X{n}" in self:
            n += 1
        _set_next(cell, n)
        # Last: a cell without a verdict has not taken its step.
        _set_ok(cell, verdict)

    def move(self, g: Env) -> None:
        # Make the table describe `g` in one loop: step whichever of `at` and
        # `g` is deeper (`at` when they are level) up a binding, undoing
        # `at`'s binding as it steps, until the two meet at the newest
        # environment both extend; then apply the collected cells of `g`
        # oldest first.  A cell applied for the first time takes its scope
        # step and keeps the binding it shadows.
        try:
            at, to, path = self.at, g, []
            if at._first is not g._first:
                # No binding in common: emptying the table is cheaper than
                # undoing every binding of `at`.
                self.clear()
                at = EMPTY_ENV
            while at is not to:
                if at._depth >= to._depth:
                    shadowed = at._shadowed
                    if shadowed is None:
                        del self[at.name]
                    else:
                        self[at.name] = shadowed
                    at = at.parent
                else:
                    path.append(to)
                    to = to.parent
            for cell in reversed(path):
                if cell._ok is None:
                    self.declare(cell)
                else:
                    self[cell.name] = cell.bound
            self.at = g
        except BaseException:
            # Interrupted half way: the root's empty table is still right.
            self.clear()
            self.at = EMPTY_ENV
            raise


_SCOPE = _Scope()
_SCOPE.at = EMPTY_ENV


def lookup(g: Env, x: VarName) -> Optional[Ty]:
    """Bound of the most recent binding of `x`, or None."""
    if _SCOPE.at is not g:
        _SCOPE.move(g)
    return _SCOPE.get(x)


def gfresh(g: Env, x: VarName) -> bool:
    """True if `x` is not declared in `g`."""
    if _SCOPE.at is not g:
        _SCOPE.move(g)
    return x not in _SCOPE


def closed(t: Ty, g: Env) -> bool:
    """True if every free variable of `t` is declared in `g`."""
    free = fv(t)
    if not free:
        return True
    if _SCOPE.at is not g:
        _SCOPE.move(g)
    return free <= _SCOPE.keys()


def ok(g: Env) -> bool:
    """Well-formedness: scanning oldest-first, each name is a new variable
    name and each bound mentions only previously declared names."""
    if g._ok is None:
        _SCOPE.move(g)
    return g._ok


def witness_for(g: Env, *tys: Ty) -> VarName:
    """Deterministic witness: the name `fresh` picks to avoid every name
    declared in `g` and every name free in `tys`.  The search starts at the
    first `X<n>` that `g` does not declare, which its cell keeps."""
    # Each candidate is tested against each type's own free names, which
    # spares a union of them on every call.
    if _SCOPE.at is not g:
        _SCOPE.move(g)
    n = g._next
    while True:
        name = f"X{n}"
        if name not in _SCOPE:
            for t in tys:
                if name in fv(t):
                    break
            else:
                return name
        n += 1


def fresh_for_env(g: Env) -> VarName:
    """Deterministic name not declared in `g`."""
    return witness_for(g)


def env_concat(g: Env, delta: Env) -> Env:
    """`g` followed by `delta`; every binding of `delta` is newer than all of `g`."""
    for env in (g, delta):
        if type(env) is not Env:
            raise TypeError(f"not an environment: {env!r}")
    for name, bound in delta.decls():
        g = g.extend(name, bound)
    return g
