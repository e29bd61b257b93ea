"""Named reference for the type generator and the type enumerator, and the
recursive type shrinker.

Both go under each quantifier the textbook way: extend the environment (or
the list of allowed names) with a fresh binder name, generate the body over
that name, then close the body over it again.  The package builds quantifier
bodies with bound indices directly; the differential tests in `test_gen.py`
require both to return the same interned types and, for the generator, to
leave the random stream in the same state.  The shrinker recurses once per
level of the type; the package's walks the type's positions on an explicit
stack, and the tests require the same candidates in the same order.
"""

from __future__ import annotations

from typing import Iterator

from fsub.gen import SplitMix64
from fsub.judgments import Env, fresh_for_env, witness_for
from fsub.syntax import Arrow, Forall, FreeVar, Top, Ty, VarName, close_ty, fresh, open_ty, size

_W_TOP, _W_VAR, _W_ARROW, _W_ALL = 20, 30, 25, 25


def _gen_ty(g: Env, budget: int, rng: SplitMix64) -> Ty:
    # Weighted constructor choice, restricted to what the env and budget allow.
    choices: list[tuple[int, str]] = [(_W_TOP, "top")]
    if len(g) > 0:
        choices.append((_W_VAR, "var"))
    if budget >= 3:
        choices.append((_W_ARROW, "arrow"))
        choices.append((_W_ALL, "all"))
    total = sum(w for w, _ in choices)
    roll = rng.below(total)
    kind = "top"
    for weight, name in choices:
        if roll < weight:
            kind = name
            break
        roll -= weight

    if kind == "top":
        return Top()
    if kind == "var":
        names = [name for name, _ in g.decls()]
        return FreeVar(names[rng.below(len(names))])
    if kind == "arrow":
        left = 1 + rng.below(budget - 2)
        dom = _gen_ty(g, left, rng)
        cod = _gen_ty(g, budget - 1 - size(dom), rng)
        return Arrow(dom, cod)
    bound_budget = 1 + rng.below(budget - 2)
    bound = _gen_ty(g, bound_budget, rng)
    binder = fresh_for_env(g)
    body = _gen_ty(g.extend(binder, bound), budget - 1 - size(bound), rng)
    return Forall(bound, close_ty(body, binder))


def enumerate_types(names: list[VarName], max_size: int) -> list[Ty]:
    """All types of exact sizes 1..max_size whose free variables are among
    `names`.  Quantifier bodies are enumerated opened with a fresh name per
    nesting level and closed again, which reaches every abstraction exactly
    once."""
    memo: dict[tuple[int, tuple[VarName, ...]], list[Ty]] = {}

    def of_size(n: int, allowed: tuple[VarName, ...]) -> list[Ty]:
        key = (n, allowed)
        if key in memo:
            return memo[key]
        out: list[Ty] = []
        if n == 1:
            out.append(Top())
            out.extend(FreeVar(v) for v in allowed)
        else:
            for left in range(1, n - 1):
                for d in of_size(left, allowed):
                    for c in of_size(n - 1 - left, allowed):
                        out.append(Arrow(d, c))
            opener = fresh(allowed)
            for b_size in range(1, n - 1):
                for bound in of_size(b_size, allowed):
                    for body in of_size(n - 1 - b_size, allowed + (opener,)):
                        out.append(Forall(bound, close_ty(body, opener)))
        memo[key] = out
        return out

    result: list[Ty] = []
    for n in range(1, max_size + 1):
        result.extend(of_size(n, tuple(names)))
    return result


def shrink_ty(t: Ty, g: Env = Env()) -> Iterator[Ty]:
    """Strictly smaller types still closed in `g`: Top, then the children,
    then each child's own candidates in place, quantifier bodies opened with
    the witness of `g`."""
    if size(t) > 1:
        yield Top()
    match t:
        case Arrow(dom, cod):
            yield dom
            yield cod
            for d2 in shrink_ty(dom, g):
                yield Arrow(d2, cod)
            for c2 in shrink_ty(cod, g):
                yield Arrow(dom, c2)
        case Forall(bound, body):
            yield bound
            for b2 in shrink_ty(bound, g):
                yield Forall(b2, body)
            opener = witness_for(g, bound, body)
            inner = g.extend(opener, bound)
            for s2 in shrink_ty(open_ty(body, opener), inner):
                yield Forall(bound, close_ty(s2, opener))
