"""Derivation transformers: reflexivity, permutation, weakening, transitivity,
narrowing.

Each operation consumes checker-valid derivations and produces a checker-valid
derivation of the transformed conclusion; precondition violations raise
`PreconditionError` instead of producing garbage.  Permutation, weakening and
narrowing are one walk that rebuilds a tree over a new root environment.
Transitivity and narrowing call each other; their joint termination measure
is the lexicographic triple (size of the middle/pivot type, operation rank,
height of the inducted derivation), where narrowing ranks above transitivity.
Every such call strictly decreases the triple: the only same-size step is
narrowing's bound-chain case at the pivot, which crosses to transitivity and
drops the rank.  The measure is asserted at runtime in debug mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalCheckError, PreconditionError
from .judgments import EMPTY_ENV, Env, closed, env_concat, gfresh, names_in_env, ok
from .subtyper import (
    Derivation,
    Yes,
    _ALL,
    _ARR,
    _TOP,
    _TRS,
    _VAR,
    _decide,
    _fmt_path,
    _fold,
    derivation_height,
    diagnose_derivation,
    iter_nodes,
    names_in_derivation,
    preorder,
    replace_witness,
)
from .syntax import Forall, FreeVar, Top, Ty, VarName, fresh, size

# Measure components; narrowing must rank above transitivity so that the
# pivot-chain crossover still decreases.
_TRANS_RANK = 0
_NARROW_RANK = 1

Measure = tuple[int, int, int]
_Narrowing = tuple["EnvSplit", Derivation, Optional[Measure]]


def _require_valid(d: Derivation, what: str) -> None:
    # The checker examines only nodes not yet found valid, so an input built
    # from checked parts (another transformer's output) costs its new nodes.
    problem = diagnose_derivation(d)
    if problem is not None:
        raise PreconditionError(f"{what} is not a valid derivation: {problem}")


def _step(parent: Optional[Measure], child: Measure) -> Measure:
    assert parent is None or child < parent, (
        f"termination measure did not decrease: {parent} -> {child}"
    )
    return child


def derive_refl(g: Env, s: Ty) -> Derivation:
    """A derivation of `g |- s <: s`.  The algorithmic system is
    syntax-directed, so this is the one the decider finds, with exactly
    `size(s)` nodes."""
    if not ok(g):
        raise PreconditionError("environment is not ok")
    if not closed(s, g):
        raise PreconditionError("type is not closed in the environment")
    result = _decide(g, s, s, size(s))
    if not isinstance(result, Yes):
        raise InternalCheckError(f"reflexivity is not derivable in {size(s)} steps: {result}")
    return result.derivation


def derive_permute(d: Derivation, pi: tuple[int, ...]) -> Derivation:
    """Reorder the root environment of `d` by `pi` (new declaration i is old
    declaration pi[i]) and rebuild the tree over the permuted environment.

    The permuted environment must itself be ok; reordering dependent bindings
    is rejected.  Extensions introduced at quantifier nodes ride on top of the
    permutation unchanged."""
    _require_valid(d, "derivation")
    decls = d.env.decls()
    if sorted(pi) != list(range(len(decls))):
        raise PreconditionError(f"not a permutation of {len(decls)} positions: {pi!r}")
    permuted = Env.from_decls(decls[i] for i in pi)
    if not ok(permuted):
        raise PreconditionError("permuted environment is not ok")
    return _rebase(d, permuted)


def derive_weaken(d: Derivation, delta: Env) -> Derivation:
    """Append the bindings of `delta` (as the newer part) to the environment of
    `d`, producing a derivation of the same subtyping over the longer
    environment.  Requires the combined environment to be ok.

    A binding introduced at a quantifier node stays newer than `delta`: every
    node is rebuilt over the combined environment with its quantifier bindings
    on top, and a witness that collides with a name of `delta` is re-freshened
    first."""
    _require_valid(d, "derivation")
    combined = env_concat(d.env, delta)
    if not ok(combined):
        raise PreconditionError("weakened environment is not ok")
    return _rebase(d, combined)


def _rebase(d: Derivation, new: Env, narrowing: Optional[_Narrowing] = None) -> Derivation:
    # Rebuild the trusted tree `d` over the root environment `new` instead of
    # its own `d.env`; the bindings added by quantifier nodes stay the newest
    # part.  `new` declares every name of `d.env` with the same bound, except
    # that under `narrowing = (split, d_pq, parent measure)` the pivot's bound
    # is tightened, and `d_pq` proves the new bound below the old one over the
    # prefix.  Every side condition then survives once each witness is fresh
    # for `new`, except a `trs` node on the pivot, whose premise must now
    # start from the new bound.  The input was validated at the public entry
    # point and is not re-checked here.
    #
    # A preorder walk gives each node its old and new environments: its
    # parent's, each extended by the parent's witness binding under a
    # quantifier's body premise.  A colliding witness is re-freshened before
    # the node's premises are reached, so each node is read from its parent
    # as re-freshened; renaming keeps the tree's shape, so the walk's depths
    # and indices still apply.  `_fold` then rebuilds every node.
    pivot = None if narrowing is None else FreeVar(narrowing[0].pivot_var)
    above: list[tuple[Derivation, Env, Env]] = []
    visits: list[tuple[Derivation, Env]] = []
    for depth, i, node in preorder(d):
        g, env = d.env, new
        if depth:
            parent, g, env = above[depth - 1]
            node = parent.premises[i]
            if parent.rule is _ALL and i == 1:
                assert parent.witness is not None and isinstance(parent.rhs, Forall)
                g = g.extend(parent.witness, parent.rhs.bound)
                env = env.extend(parent.witness, parent.rhs.bound)
        if node.env is not g:
            raise InternalCheckError("derivation environment does not match its parent")
        if node.rule is _ALL and not gfresh(env, node.witness):
            node = replace_witness(node, fresh(names_in_derivation(node) | names_in_env(env)))
        above[depth:] = ((node, g, env),)
        visits.append((node, env))

    def rebuild(node: Derivation, env: Env, premises: tuple[Derivation, ...]) -> Derivation:
        if node.rule is _TRS and node.lhs is pivot:
            # Chaining through the pivot itself: the old chain went through
            # the old bound q.  Weaken `p <: q` over this node's environment
            # and compose it with the rebuilt premise before chaining at p.
            split, d_pq, parent = narrowing
            assert node.premises[0].lhs == split.pivot_bound
            measure = _step(parent, (size(split.pivot_bound), _NARROW_RANK, derivation_height(node)))
            premises = (_trans(_rebase(d_pq, env), premises[0], measure),)
        return Derivation(node.rule, env, node.lhs, node.rhs, premises, node.witness)

    return _fold(visits, rebuild)


@dataclass(frozen=True, slots=True)
class EnvSplit:
    """An environment cut at one pivot binding: prefix (older), the pivot, and
    suffix (newer).  `assemble` reconstitutes it, optionally with a different
    pivot bound."""

    prefix: Env
    pivot_var: VarName
    pivot_bound: Ty
    suffix: Env

    def assemble(self, bound: Optional[Ty] = None) -> Env:
        if bound is None:
            bound = self.pivot_bound
        return env_concat(self.prefix.extend(self.pivot_var, bound), self.suffix)


def split_env(g: Env, x: VarName) -> EnvSplit:
    """Split `g` at the most recent binding of `x`."""
    pivot = g
    while pivot is not EMPTY_ENV:
        if pivot.name == x:
            suffix = Env.from_decls(g.decls()[len(pivot) :])
            return EnvSplit(prefix=pivot.parent, pivot_var=x, pivot_bound=pivot.bound, suffix=suffix)
        pivot = pivot.parent
    raise PreconditionError(f"variable {x!r} is not declared")


def ok_narrow(split: EnvSplit, p: Ty, d_pq: Derivation) -> bool:
    """Replacing the pivot bound by `p` keeps the environment ok, given a
    derivation that `p` is below the old bound over the prefix."""
    _require_valid(d_pq, "evidence derivation")
    if not ok(split.assemble()):
        raise PreconditionError("split environment is not ok")
    if d_pq.concl != (split.prefix, p, split.pivot_bound):
        raise PreconditionError(
            "evidence must conclude the new bound below the old bound over the prefix"
        )
    narrowed_ok = ok(split.assemble(p))
    if not narrowed_ok:
        raise InternalCheckError("narrowed environment failed the ok check")
    return narrowed_ok


def derive_trans(d1: Derivation, d2: Derivation) -> Derivation:
    """Compose `d1 : g |- s <: q` and `d2 : g |- q <: t` into `g |- s <: t`."""
    _require_valid(d1, "left derivation")
    _require_valid(d2, "right derivation")
    if d1.env != d2.env:
        raise PreconditionError("derivations have different environments")
    if d1.rhs != d2.lhs:
        raise PreconditionError("middle types differ")
    return _trans(d1, d2, None)


def _trans(d1: Derivation, d2: Derivation, parent: Optional[Measure]) -> Derivation:
    q = d1.rhs
    measure = _step(parent, (size(q), _TRANS_RANK, derivation_height(d1)))
    g = d1.env

    if isinstance(q, Top):
        # d2 can only end in the Top rule, so t = Top and the left side is
        # closed by d1's own leaf obligations.
        return Derivation(_TOP, g, d1.lhs, d2.rhs)
    if d1.rule is _VAR:
        return d2
    if d1.rule is _TRS:
        inner = _trans(d1.premises[0], d2, measure)
        return Derivation(_TRS, g, d1.lhs, d2.rhs, (inner,))
    if d2.rule is _TOP:
        return Derivation(_TOP, g, d1.lhs, d2.rhs)

    if d1.rule is _ARR and d2.rule is _ARR:
        a_dom, a_cod = d1.premises
        b_dom, b_cod = d2.premises
        p_dom = _trans(b_dom, a_dom, measure)
        p_cod = _trans(a_cod, b_cod, measure)
        return Derivation(_ARR, g, d1.lhs, d2.rhs, (p_dom, p_cod))

    if d1.rule is _ALL and d2.rule is _ALL:
        assert isinstance(q, Forall) and isinstance(d2.rhs, Forall)
        b_bound, _ = d2.premises
        a_bound, _ = d1.premises
        p_bound = _trans(b_bound, a_bound, measure)
        # Harmonize both body premises on one witness, move the left body
        # premise from the middle bound to the right bound, then compose.
        w = fresh(names_in_derivation(d1) | names_in_derivation(d2))
        a_body = replace_witness(d1, w).premises[1]
        b_body = replace_witness(d2, w).premises[1]
        split = EnvSplit(g, w, q.bound, EMPTY_ENV)
        a_body = _rebase(a_body, split.assemble(d2.rhs.bound), (split, b_bound, measure))
        p_body = _trans(a_body, b_body, measure)
        return Derivation(_ALL, g, d1.lhs, d2.rhs, (p_bound, p_body), witness=w)

    raise InternalCheckError(
        f"no composition case for rules {d1.rule.value!r} and {d2.rule.value!r}"
    )


def derive_narrow(split: EnvSplit, p: Ty, d: Derivation, d_pq: Derivation) -> Derivation:
    """Rebuild `d` over the environment with the pivot bound replaced by `p`,
    given evidence `d_pq : prefix |- p <: old bound`."""
    _require_valid(d, "derivation")
    ok_narrow(split, p, d_pq)
    if d.env != split.assemble():
        raise PreconditionError("derivation environment does not match the split")
    return _rebase(d, split.assemble(p), (split, d_pq, None))


def derivation_env_facts(
    d: Derivation,
) -> tuple[dict[tuple[int, ...], bool], dict[tuple[int, ...], bool]]:
    """Recompute, for every node, whether its environment is ok and whether both
    conclusion sides are closed in it.  Returns the two maps keyed by node path;
    any false entry is a checker bug and raises."""
    _require_valid(d, "derivation")
    ok_map: dict[tuple[int, ...], bool] = {}
    closed_map: dict[tuple[int, ...], bool] = {}
    for path, node in iter_nodes(d):
        ok_map[path] = ok(node.env)
        closed_map[path] = closed(node.lhs, node.env) and closed(node.rhs, node.env)
        if not (ok_map[path] and closed_map[path]):
            raise InternalCheckError(
                f"valid derivation with bad node facts at {_fmt_path(path)}"
            )
    return ok_map, closed_map
