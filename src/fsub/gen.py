"""Seeded generation of environments, types, and derivations, plus exhaustive
enumeration of small instances.

Randomness comes from SplitMix64, a tiny splittable 64-bit generator: the state
advances by the golden-gamma constant and each output is a finalizer mix of the
state.  It is trivial to reimplement bit-for-bit in any language, so corpora are
reproducible across implementations.  Every generator is a pure function of its
config; streams derive one child seed per element, so samples are independent
of each other's internals.

Binders are generated as indices: a quantifier body is built in locally
nameless form with one more bound index in scope, so generating or
enumerating a type never names, opens or closes a binder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import PreconditionError
from .judgments import Env, dom, fresh_for_env, gfresh, lookup, witness_for
from .metatheory import EnvSplit, derive_refl, split_env
from .subtyper import Derivation, Rule, Yes, decide_sub, preorder
from .syntax import Arrow, BoundIdx, Forall, FreeVar, Top, Ty, VarName, close_ty, fv, open_ty, size

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64: state += gamma; output = mix(state).  `split` derives an
    independent child generator from the next output."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def choose(self, items: list) -> object:
        return items[self.below(len(items))]

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.below(den) < num


@dataclass(frozen=True, slots=True)
class GenConfig:
    """Bounds for one generated sample.  `seed` fully determines the output."""

    seed: int
    max_env_len: int = 4
    max_ty_size: int = 8
    max_deriv_depth: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK:
            raise PreconditionError("seed must fit in 64 bits")
        # A zero-length environment bound is meaningful; the other bounds must
        # leave room for at least a leaf / a leaf rule.
        if self.max_env_len < 0 or self.max_ty_size < 1 or self.max_deriv_depth < 1:
            raise PreconditionError(f"bounds out of range: {self}")


def child_seeds(seed: int, count: int) -> list[int]:
    """`count` independent seeds derived from `seed`."""
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


# ---------------------------------------------------------------- generators


# The constructor menu for (a variable is in scope, budget >= 3): the total
# weight, then the rolls below which the draw is Top, a variable and an arrow;
# the rest draw a quantifier.  The weights are Top 20, variable 30, arrow 25
# and quantifier 25, less those of the constructors that do not fit.
_MENUS = {
    (False, False): (20, 20, 20, 20),
    (True, False): (50, 20, 50, 50),
    (False, True): (70, 20, 20, 45),
    (True, True): (100, 20, 50, 75),
}


def _gen_ty(g: Env, budget: int, rng: SplitMix64) -> Ty:
    return _gen_under(dom(g), 0, budget, rng)


def _gen_under(names: list[VarName], k: int, budget: int, rng: SplitMix64) -> Ty:
    # A type over the declared `names` (oldest-first) under `k` generated
    # binders.  Variable draw `i` is `names[i]`; past them it is the binder
    # `j = i - len(names)`, counted outermost-first, whose index is `k - 1 - j`.
    width = len(names) + k
    total, top_end, var_end, arrow_end = _MENUS[width > 0, budget >= 3]
    roll = rng.below(total)
    if roll < top_end:
        return Top()
    if roll < var_end:
        i = rng.below(width)
        return FreeVar(names[i]) if i < len(names) else BoundIdx(width - 1 - i)
    if roll < arrow_end:
        dom = _gen_under(names, k, 1 + rng.below(budget - 2), rng)
        return Arrow(dom, _gen_under(names, k, budget - 1 - size(dom), rng))
    bound = _gen_under(names, k, 1 + rng.below(budget - 2), rng)
    return Forall(bound, _gen_under(names, k + 1, budget - 1 - size(bound), rng))


def gen_closed_ty(g: Env, cfg: GenConfig) -> Ty:
    """A type closed in `g`, of size at most `cfg.max_ty_size`."""
    return _gen_ty(g, cfg.max_ty_size, SplitMix64(cfg.seed))


def _gen_env(rng: SplitMix64, length: int, ty_budget: int, base: Env = Env()) -> Env:
    g = base
    for _ in range(length):
        bound = _gen_ty(g, ty_budget, rng)
        g = g.extend(fresh_for_env(g), bound)
    return g


def gen_env(cfg: GenConfig) -> Env:
    """An ok environment of length at most `cfg.max_env_len`, built incrementally:
    each bound is closed in the bindings before it, each name is `fresh_for_env`."""
    rng = SplitMix64(cfg.seed)
    length = rng.below(cfg.max_env_len + 1)
    return _gen_env(rng, length, cfg.max_ty_size)


def gen_env_extension(g: Env, cfg: GenConfig) -> Env:
    """An extension delta such that `env_concat(g, delta)` is ok."""
    rng = SplitMix64(cfg.seed)
    length = rng.below(cfg.max_env_len + 1)
    extended = _gen_env(rng, length, cfg.max_ty_size, base=g)
    return Env(extended.bindings[: len(extended) - len(g)])


def _synth_sub_of(g: Env, target: Ty, depth: int, rng: SplitMix64) -> Derivation:
    # A derivation g |- S <: target for some synthesized S.
    if depth <= 0:
        return derive_refl(g, target)
    options = ["refl", "refl"]
    if isinstance(target, Top):
        options += ["top", "top", "top"]
    if isinstance(target, (Arrow, Forall)):
        options += ["structural", "structural", "structural"]
    chains = _chain_candidates(g, target, rng)
    if chains:
        options += ["chain", "chain", "chain"]
    kind = rng.choose(options)

    if kind == "top":
        s = _gen_ty(g, 1 + rng.below(6), rng)
        return Derivation(Rule.TOP, g, s, Top())
    if kind == "chain":
        name, evidence = chains[rng.below(len(chains))]
        return Derivation(Rule.TRS, g, FreeVar(name), target, (evidence,))
    if kind == "structural" and isinstance(target, Arrow):
        p_dom = _synth_sup_of(g, target.dom, depth - 1, rng)
        p_cod = _synth_sub_of(g, target.cod, depth - 1, rng)
        s = Arrow(p_dom.rhs, p_cod.lhs)
        return Derivation(Rule.ARR, g, s, target, (p_dom, p_cod))
    if kind == "structural" and isinstance(target, Forall):
        p_bound = _synth_sup_of(g, target.bound, depth - 1, rng)
        w = witness_for(g, target.body, p_bound.rhs)
        inner = g.extend(w, target.bound)
        p_body = _synth_sub_of(inner, open_ty(target.body, w), depth - 1, rng)
        s = Forall(p_bound.rhs, close_ty(p_body.lhs, w))
        return Derivation(Rule.ALL, g, s, target, (p_bound, p_body), witness=w)
    return derive_refl(g, target)


def _synth_sup_of(g: Env, source: Ty, depth: int, rng: SplitMix64) -> Derivation:
    # A derivation g |- source <: T for some synthesized T.
    if depth <= 0:
        return derive_refl(g, source)
    options = ["refl", "refl", "top", "top"]
    if isinstance(source, FreeVar):
        options += ["chain", "chain", "chain"]
    if isinstance(source, (Arrow, Forall)):
        options += ["structural", "structural", "structural"]
    kind = rng.choose(options)

    if kind == "top":
        return Derivation(Rule.TOP, g, source, Top())
    if kind == "chain" and isinstance(source, FreeVar):
        bound = lookup(g, source.name)
        assert bound is not None
        premise = _synth_sup_of(g, bound, depth - 1, rng)
        return Derivation(Rule.TRS, g, source, premise.rhs, (premise,))
    if kind == "structural" and isinstance(source, Arrow):
        p_dom = _synth_sub_of(g, source.dom, depth - 1, rng)
        p_cod = _synth_sup_of(g, source.cod, depth - 1, rng)
        t = Arrow(p_dom.lhs, p_cod.rhs)
        return Derivation(Rule.ARR, g, source, t, (p_dom, p_cod))
    if kind == "structural" and isinstance(source, Forall):
        p_bound = _synth_sub_of(g, source.bound, depth - 1, rng)
        t_bound = p_bound.lhs
        w = witness_for(g, source.body, t_bound)
        inner = g.extend(w, t_bound)
        p_body = _synth_sup_of(inner, open_ty(source.body, w), depth - 1, rng)
        t = Forall(t_bound, close_ty(p_body.rhs, w))
        return Derivation(Rule.ALL, g, source, t, (p_bound, p_body), witness=w)
    return derive_refl(g, source)


def _chain_candidates(
    g: Env, target: Ty, rng: SplitMix64
) -> list[tuple[VarName, Derivation]]:
    # Variables whose declared bound provably sits below the target; each comes
    # with the decision procedure's derivation as the chain premise.
    found: list[tuple[VarName, Derivation]] = []
    for name, bound in g.decls():
        if FreeVar(name) == target:
            continue
        res = decide_sub(g, bound, target, fuel=300)
        if isinstance(res, Yes):
            found.append((name, res.derivation))
    return found


def gen_derivation(cfg: GenConfig) -> Derivation:
    """A checker-valid derivation over a generated environment."""
    rng = SplitMix64(cfg.seed)
    g = _gen_env(rng.split(), rng.below(cfg.max_env_len + 1), cfg.max_ty_size)
    anchor = _gen_ty(g, cfg.max_ty_size, rng)
    if rng.chance(1, 2):
        return _synth_sub_of(g, anchor, cfg.max_deriv_depth, rng)
    return _synth_sup_of(g, anchor, cfg.max_deriv_depth, rng)


def gen_derivation_pair(cfg: GenConfig) -> tuple[Derivation, Derivation]:
    """Two derivations `g |- S <: Q` and `g |- Q <: T` sharing `g` and `Q`."""
    rng = SplitMix64(cfg.seed)
    g = _gen_env(rng.split(), rng.below(cfg.max_env_len + 1), cfg.max_ty_size)
    q = _gen_ty(g, cfg.max_ty_size, rng)
    left = _synth_sub_of(g, q, cfg.max_deriv_depth, rng)
    right = _synth_sup_of(g, q, cfg.max_deriv_depth, rng)
    return left, right


def gen_refl_case(cfg: GenConfig) -> tuple[Env, Ty]:
    """An ok environment together with a type closed in it."""
    rng = SplitMix64(cfg.seed)
    g = _gen_env(rng.split(), rng.below(cfg.max_env_len + 1), cfg.max_ty_size)
    return g, _gen_ty(g, cfg.max_ty_size, rng)


def gen_narrow_instance(
    cfg: GenConfig, force_pivot_chain: bool = False
) -> tuple[EnvSplit, Ty, Derivation, Derivation]:
    """A narrowing problem: a split environment, a new pivot bound `p`, a
    derivation over the split environment, and evidence `prefix |- p <: old
    bound`.  With `force_pivot_chain`, the derivation ends in a bound-chaining
    node at the pivot variable itself."""
    rng = SplitMix64(cfg.seed)
    g = _gen_env(rng.split(), 1 + rng.below(max(cfg.max_env_len, 1)), cfg.max_ty_size)
    pivot_pos = rng.below(len(g))
    pivot_var = dom(g)[pivot_pos]
    split = split_env(g, pivot_var)
    d_pq = _synth_sub_of(split.prefix, split.pivot_bound, cfg.max_deriv_depth, rng)
    p = d_pq.lhs
    if force_pivot_chain:
        premise = _synth_sup_of(g, split.pivot_bound, cfg.max_deriv_depth, rng)
        d = Derivation(Rule.TRS, g, FreeVar(pivot_var), premise.rhs, (premise,))
    else:
        anchor = _gen_ty(g, cfg.max_ty_size, rng)
        if rng.chance(1, 2):
            d = _synth_sub_of(g, anchor, cfg.max_deriv_depth, rng)
        else:
            d = _synth_sup_of(g, anchor, cfg.max_deriv_depth, rng)
    return split, p, d, d_pq


# ---------------------------------------------------------------- shrinking


def shrink_env(g: Env) -> Iterator[Env]:
    """Smaller ok environments: drop a binding no later bound depends on, or
    blunt a bound to Top."""
    decls = g.decls()
    for i, (name, _) in enumerate(decls):
        used_later = any(name in fv(b) for _, b in decls[i + 1 :])
        if not used_later:
            yield Env.from_decls(decls[:i] + decls[i + 1 :])
    for i, (name, bound) in enumerate(decls):
        if size(bound) > 1:
            yield Env.from_decls(decls[:i] + ((name, Top()),) + decls[i + 1 :])


def shrink_ty(t: Ty, g: Env = Env()) -> Iterator[Ty]:
    """Strictly smaller types still closed in `g`."""
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


def shrink_derivation(d: Derivation) -> Iterator[Derivation]:
    """Valid subderivations, shallowest first; every premise of a valid tree is
    itself a valid tree over its own environment."""
    for _, _, node in preorder(d):
        yield from node.premises


def shrink(value: object, g: Env = Env()) -> Iterator[object]:
    """Dispatch to the matching shrinker; the stream is finite and each
    candidate is strictly smaller by the matching measure."""
    if isinstance(value, Env):
        return shrink_env(value)
    if isinstance(value, Ty):
        return shrink_ty(value, g)
    if isinstance(value, Derivation):
        return shrink_derivation(value)
    raise PreconditionError(f"cannot shrink a {type(value).__name__}")


# ---------------------------------------------------------------- enumeration


def enumerate_types(names: list[VarName], max_size: int) -> list[Ty]:
    """All types of exact sizes 1..max_size whose free variables are among
    `names`.  Binders are generated as indices: a quantifier body is
    enumerated with one more bound index in scope, which reaches every
    abstraction exactly once."""
    leaves = [Top()] + [FreeVar(v) for v in names]
    memo: dict[tuple[int, int], list[Ty]] = {}

    def of_size(n: int, k: int) -> list[Ty]:
        # The types of size `n` under `k` binders; the leaves list the bound
        # indices outermost binder first, from `k - 1` down to 0.
        key = (n, k)
        if key in memo:
            return memo[key]
        if n == 1:
            out = leaves + [BoundIdx(i) for i in reversed(range(k))]
        else:
            out = [
                Arrow(d, c)
                for left in range(1, n - 1)
                for d in of_size(left, k)
                for c in of_size(n - 1 - left, k)
            ]
            out += [
                Forall(bound, body)
                for b_size in range(1, n - 1)
                for bound in of_size(b_size, k)
                for body in of_size(n - 1 - b_size, k + 1)
            ]
        memo[key] = out
        return out

    result: list[Ty] = []
    for n in range(1, max_size + 1):
        result.extend(of_size(n, 0))
    return result


def enumerate_ok_envs(names: list[VarName], max_len: int, max_bound_size: int) -> list[Env]:
    """All ok environments of length <= max_len over distinct `names`, with
    bounds of size <= max_bound_size closed in their prefixes."""
    out: list[Env] = [Env()]
    frontier: list[Env] = [Env()]
    for _ in range(max_len):
        next_frontier: list[Env] = []
        for g in frontier:
            for name in names:
                if not gfresh(g, name):
                    continue
                for bound in enumerate_types(dom(g), max_bound_size):
                    extended = g.extend(name, bound)
                    next_frontier.append(extended)
        out.extend(next_frontier)
        frontier = next_frontier
    return out


def enumerate_judgments(
    names: list[VarName], max_size: int, max_env_len: int
) -> Iterator[tuple[Env, Ty, Ty]]:
    """Every judgment with an ok environment over `names` (length <= max_env_len)
    and both sides of size <= max_size closed in it."""
    for g in enumerate_ok_envs(names, max_env_len, max_size):
        universe = enumerate_types(dom(g), max_size)
        for s in universe:
            for t in universe:
                yield g, s, t
