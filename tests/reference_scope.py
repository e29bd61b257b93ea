"""Scope questions answered by linear scans of an environment's bindings.

These are the straightforward definitions: every call walks the whole
binding tuple and caches nothing.  The package answers the same questions
from a table each environment builds once; the tests compare the two.
"""

from __future__ import annotations

from typing import Optional

from fsub.judgments import Env
from fsub.syntax import Ty, VarName, fresh, fv, is_var_name


def lookup(g: Env, x: VarName) -> Optional[Ty]:
    for name, bound in g.bindings:
        if name == x:
            return bound
    return None


def gfresh(g: Env, x: VarName) -> bool:
    return all(name != x for name, _ in g.bindings)


def closed(t: Ty, g: Env) -> bool:
    return fv(t) <= {name for name, _ in g.bindings}


def ok(g: Env) -> bool:
    seen: set[VarName] = set()
    for name, bound in g.decls():
        if not is_var_name(name) or name in seen or not fv(bound) <= seen:
            return False
        seen.add(name)
    return True


def fresh_for_env(g: Env) -> VarName:
    return fresh(name for name, _ in g.bindings)


def witness_for(g: Env, *tys: Ty) -> VarName:
    avoid = {name for name, _ in g.bindings}
    for t in tys:
        avoid |= fv(t)
    return fresh(avoid)
