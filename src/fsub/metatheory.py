"""Derivation transformers: reflexivity, permutation, weakening, transitivity,
narrowing.

Each operation consumes checker-valid derivations and produces a checker-valid
derivation of the transformed conclusion; precondition violations raise
`PreconditionError` instead of producing garbage.  Permutation and weakening
rebuild a tree to conclude its judgment over a new root environment.

Transitivity and narrowing are one walk over an explicit stack of frames
(`_Walk`), as `_decide` walks goals.  A transitivity frame composes two views,
each a tree with the goal it concludes once rebuilt, so that a quantifier
level's witness renaming, and the weakening of the evidence onto a pivot
node's environment, are carried down in the goals instead of rebuilding the
trees; each output node is built once, when its premises are done.  A
narrowing frame rebuilds a tree over a tightened pivot bound and hands each
`trs` node on the pivot to a transitivity frame.  Every frame carries its
termination measure, the lexicographic triple (size of the middle/pivot type,
operation rank, height of the inducted derivation), where narrowing ranks
above transitivity; a frame's measure is below the measure of the frame that
asked for it, since the only same-size step is narrowing's bound-chain case
at the pivot, which crosses to transitivity and drops the rank.  The measure
is asserted at runtime in debug mode.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Optional

from .errors import InternalCheckError, PreconditionError
from .judgments import EMPTY_ENV, Env, closed, env_concat, fresh_for_env, gfresh, lookup, ok
from .subtyper import (
    Derivation,
    Goal,
    Yes,
    _ALL,
    _ARR,
    _TOP,
    _TRS,
    _VAR,
    _assemble,
    _decide,
    _fmt_path,
    _premise_goals,
    derivation_height,
    diagnose_derivation,
    iter_nodes,
)
from .syntax import Forall, FreeVar, Top, Ty, VarName, open_ty, size

# Measure components; narrowing must rank above transitivity so that the
# pivot-chain crossover still decreases.
_TRANS_RANK = 0
_NARROW_RANK = 1

Measure = tuple[int, int, int]


def _require_valid(d: Derivation, what: str) -> None:
    # The checker examines only nodes not yet found valid, so an input built
    # from checked parts (another transformer's output) costs its new nodes.
    if not isinstance(d, Derivation):
        raise PreconditionError(f"{what} is not a Derivation: {d!r}")
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
    if not isinstance(g, Env):
        raise PreconditionError(f"not an environment: {g!r}")
    if not isinstance(s, Ty):
        raise PreconditionError(f"not a type: {s!r}")
    if not ok(g):
        raise PreconditionError("environment is not ok")
    if not closed(s, g):
        raise PreconditionError("type is not closed in the environment")
    result = _decide(g, s, s, size(s))
    if not isinstance(result, Yes):
        raise InternalCheckError(f"reflexivity is not derivable in {size(s)} steps: {result}")
    return result.derivation


def derive_permute(d: Derivation, pi: Iterable[int]) -> Derivation:
    """Reorder the root environment of `d` by `pi` (new declaration i is old
    declaration pi[i]) and rebuild the tree over the permuted environment.

    The permuted environment must itself be ok; reordering dependent bindings
    is rejected.  Extensions introduced at quantifier nodes ride on top of the
    permutation unchanged."""
    _require_valid(d, "derivation")
    decls = d.env.decls()
    # `pi` is read once, so any iterable serves; what is not iterable is no
    # permutation.  An integer position only: `sorted` would take `True` for
    # 1 and 0.0 for 0.
    try:
        order = tuple(pi)
    except TypeError:
        order = (None,)
    if any(type(i) is not int for i in order) or sorted(order) != list(range(len(decls))):
        raise PreconditionError(f"not a permutation of {len(decls)} positions: {pi!r}")
    permuted = Env.from_decls(decls[i] for i in order)
    if not ok(permuted):
        raise PreconditionError("permuted environment is not ok")
    return _Walk().built((permuted, d.lhs, d.rhs), d)


def derive_weaken(d: Derivation, delta: Env) -> Derivation:
    """Append the bindings of `delta` (as the newer part) to the environment of
    `d`, producing a derivation of the same subtyping over the longer
    environment.  Requires the combined environment to be ok.

    A binding introduced at a quantifier node stays newer than `delta`: every
    node is rebuilt over the combined environment with its quantifier bindings
    on top, and a witness that collides with a name of `delta` is re-freshened
    first."""
    _require_valid(d, "derivation")
    if not isinstance(delta, Env):
        raise PreconditionError(f"not an environment: {delta!r}")
    combined = env_concat(d.env, delta)
    if not ok(combined):
        raise PreconditionError("weakened environment is not ok")
    return _Walk().built((combined, d.lhs, d.rhs), d)


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
    if not isinstance(g, Env):
        raise PreconditionError(f"not an environment: {g!r}")
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
    _narrowed_envs(split, p, d_pq)
    return True


def _narrowed_envs(split: EnvSplit, p: Ty, d_pq: Derivation) -> tuple[Env, Env]:
    # `ok_narrow`'s checks; the split environment and the narrowed one, each
    # assembled once.
    if not isinstance(split, EnvSplit):
        raise PreconditionError(f"not an environment split: {split!r}")
    _require_valid(d_pq, "evidence derivation")
    old = split.assemble()
    if not ok(old):
        raise PreconditionError("split environment is not ok")
    if d_pq.concl != (split.prefix, p, split.pivot_bound):
        raise PreconditionError(
            "evidence must conclude the new bound below the old bound over the prefix"
        )
    narrowed = split.assemble(p)
    if not ok(narrowed):
        raise InternalCheckError("narrowed environment failed the ok check")
    return old, narrowed


def derive_trans(d1: Derivation, d2: Derivation) -> Derivation:
    """Compose `d1 : g |- s <: q` and `d2 : g |- q <: t` into `g |- s <: t`."""
    _require_valid(d1, "left derivation")
    _require_valid(d2, "right derivation")
    if d1.env != d2.env:
        raise PreconditionError("derivations have different environments")
    if d1.rhs != d2.lhs:
        raise PreconditionError("middle types differ")
    return _Walk().run((d1.concl, d1, d2.concl, d2, None))


def derive_narrow(split: EnvSplit, p: Ty, d: Derivation, d_pq: Derivation) -> Derivation:
    """Rebuild `d` over the environment with the pivot bound replaced by `p`,
    given evidence `d_pq : prefix |- p <: old bound`."""
    _require_valid(d, "derivation")
    old, narrowed = _narrowed_envs(split, p, d_pq)
    if d.env != old:
        raise PreconditionError("derivation environment does not match the split")
    walk = _Walk()
    pivot = (FreeVar(split.pivot_var), split.pivot_bound, d_pq.concl, d_pq)
    return walk.run(walk.narrow((narrowed, d.lhs, d.rhs), d, pivot, None))


# A view is a goal and a tree, (g, s, t) and d: the tree rebuilt with the same
# rules and witnesses to conclude `g |- s <: t` in place of its own
# conclusion.  A rebuilt node's premises conclude the goals its rule demands
# (`_premise_goals`), so the walk reads a rebuilt node's fields from its goal
# without building it.  Two kinds of view are built first: one whose
# environment changes a bound that a `trs` node chains through, by a
# narrowing frame, and a weakening that reaches a quantifier, whose
# witnesses it may rename.


class _Walk:
    # One transitivity or narrowing call, or one rebuild.  A frame is a
    # generator that yields each task whose tree it needs and is sent that
    # tree; a task is a frame, or two views to compose with the measure of
    # the frame that asks.  Three kinds of frame: `node` builds a composed
    # `trs`, arrow or quantifier node once its premises' tasks are done,
    # `after` composes the quantifier bodies once the left one is narrowed,
    # and `narrow` rebuilds a tree over a narrowed bound.  The frames of a
    # call share bit sets of each tree they read, over one numbering of
    # names (`bits`): its witnesses, and the variables that its `trs` nodes
    # chain through.

    def __init__(self) -> None:
        self.masks: dict[Derivation, tuple[int, int]] = {}
        self.bits: dict[VarName, int] = {}

    def run(self, task) -> Derivation:
        frames: list[Iterator] = []
        while True:
            done = self.compose(*task) if type(task) is tuple else task
            if type(done) is not Derivation:
                frames.append(done)
                done = None
            while frames:
                try:
                    task = frames[-1].send(done)
                    break
                except StopIteration as stop:
                    frames.pop()
                    done = stop.value
            else:
                return done

    def masks_of(self, d: Derivation) -> tuple[int, int]:
        # Computed for `d` and each node below it not yet seen in this call,
        # from the leaves up: in reverse preorder every premise comes first.
        masks, bits = self.masks, self.bits
        if d in masks:
            return masks[d]
        order = []
        stack = [d]
        while stack:
            node = stack.pop()
            if node not in masks:
                order.append(node)
                stack += node.premises
        for node in reversed(order):
            witnesses = chained = 0
            for p in node.premises:
                witnesses |= masks[p][0]
                chained |= masks[p][1]
            if node.witness is not None:
                witnesses |= 1 << bits.setdefault(node.witness, len(bits))
            elif node.rule is _TRS:
                chained |= 1 << bits.setdefault(node.lhs.name, len(bits))
            masks[node] = (witnesses, chained)
        return masks[d]

    def fresh_name(self, g: Env, taken: int) -> VarName:
        # The least `X<n>` that `g` does not declare and `taken` does not
        # hold: the name the reference composition (`reference_walks.trans`
        # in the tests) picks with `fresh` over the names of views in `g` of
        # trees whose witnesses `taken` holds, since the names of a valid
        # tree are its root environment's declared names and its witnesses.
        # The search starts at `fresh_for_env(g)`, the least name `g` does
        # not declare.
        bits = self.bits
        n = int(fresh_for_env(g)[1:])
        while not gfresh(g, f"X{n}") or f"X{n}" in bits and taken >> bits[f"X{n}"] & 1:
            n += 1
        return f"X{n}"

    def rebuilt(self, goal: Goal, d: Derivation, keep: Optional[tuple] = None) -> list[tuple]:
        # The nodes of the view's tree in preorder, each as its rule, its
        # fields in the view (environment, left side, right side, witness)
        # and its premise count; `_assemble` builds the tree from them.  An
        # arrow or quantifier node whose sides and witness are its own keeps
        # its premises' sides.  Over a longer environment (a weakening), a
        # witness that the environment declares is renamed to the least
        # `X<n>` that avoids the environment's names and the witnesses of the
        # node's tree: a witness renamed above it was declared in the root
        # environment.  The premise of a `trs` node on the variable `keep[0]`
        # keeps the left side `keep[1]`, the variable's bound before a
        # narrowing.
        visits = []
        stack = [(goal, d)]
        while stack:
            goal, d = stack.pop()
            g, s, t = goal
            w = d.witness
            if w is not None and len(g) > len(d.env) and not gfresh(g, w):
                w = self.fresh_name(g, self.masks_of(d)[0])
            premises = d.premises
            visits.append((d.rule, g, s, t, w, len(premises)))
            if not premises:
                continue
            if d.rule is _TRS:
                # The bound may name a binding the goals renamed.
                bound = keep[1] if keep is not None and s is keep[0] else lookup(g, s.name)
                stack.append(((g, bound, t), premises[0]))
            elif s is d.lhs and t is d.rhs and w == d.witness:
                first, last = premises
                stack += (((g if w is None else g.extend(w, t.bound), last.lhs, last.rhs), last), ((g, first.lhs, first.rhs), first))
            else:
                stack += reversed(list(zip(_premise_goals(d.rule, *goal, w), premises)))
        return visits

    def built(self, goal: Goal, d: Derivation) -> Derivation:
        return d if goal == d.concl else _assemble(self.rebuilt(goal, d))

    def compose(self, goal1: Goal, d1: Derivation, goal2: Goal, d2: Derivation, parent: Optional[Measure]):
        # The tree composing the views `g |- s <: q` and `g |- q <: t`, or a
        # frame for it.
        g, s, q = goal1
        t = goal2[2]
        measure = _step(parent, (size(q), _TRANS_RANK, derivation_height(d1)))

        if isinstance(q, Top):
            # d2 can only end in the Top rule, so t = Top and the left side is
            # closed by d1's own leaf obligations.
            return Derivation(_TOP, g, s, t)
        if d1.rule is _VAR:
            return self.built(goal2, d2)
        if d1.rule is _TRS:
            return self.node(_TRS, g, s, t, None, ((g, lookup(g, s.name), q), d1.premises[0], goal2, d2, measure))
        if d2.rule is _TOP:
            return Derivation(_TOP, g, s, t)

        if d1.rule is _ARR and d2.rule is _ARR:
            p_dom = ((g, t.dom, q.dom), d2.premises[0], (g, q.dom, s.dom), d1.premises[0], measure)
            p_cod = ((g, s.cod, q.cod), d1.premises[1], (g, q.cod, t.cod), d2.premises[1], measure)
            return self.node(_ARR, g, s, t, None, p_dom, p_cod)

        if d1.rule is _ALL and d2.rule is _ALL:
            assert isinstance(s, Forall) and isinstance(q, Forall) and isinstance(t, Forall)
            # A weakening (a view over a longer environment) may re-freshen
            # its witnesses, which changes the names the witness choice
            # sees: build it first.
            if len(g) > len(d1.env):
                d1 = self.built(goal1, d1)
            if len(g) > len(d2.env):
                d2 = self.built(goal2, d2)
            b_bound = ((g, t.bound, q.bound), d2.premises[0])
            p_bound = b_bound + ((g, q.bound, s.bound), d1.premises[0], measure)
            # Both body premises on one witness, which differs from both old
            # ones; the left one moves from the middle bound to the right
            # bound, which a `trs` node on its witness must chain through.
            w = self.fresh_name(g, self.masks_of(d1)[0] | self.masks_of(d2)[0])
            env = g.extend(w, t.bound)
            a_body = ((env, open_ty(s.body, w), open_ty(q.body, w)), d1.premises[1])
            b_body = ((env, open_ty(q.body, w), open_ty(t.body, w)), d2.premises[1])
            p_body = a_body + b_body + (measure,)
            if self.masks_of(d1.premises[1])[1] >> self.bits[d1.witness] & 1:
                p_body = self.after(self.narrow(*a_body, (FreeVar(w), q.bound) + b_bound, measure), b_body, measure)
            return self.node(_ALL, g, s, t, w, p_bound, p_body)

        raise InternalCheckError(
            f"no composition case for rules {d1.rule.value!r} and {d2.rule.value!r}"
        )

    def node(self, rule, g: Env, s: Ty, t: Ty, w: Optional[VarName], *tasks) -> Iterator:
        # Build the node once its premises' tasks are done.
        premises = []
        for task in tasks:
            premises.append((yield task))
        return Derivation(rule, g, s, t, tuple(premises), w)

    def after(self, narrowing: Iterator, b_body: tuple, measure: Measure) -> Iterator:
        # Compose the bodies once the left one is narrowed.
        a_body = yield narrowing
        return (yield (a_body.concl, a_body) + b_body + (measure,))

    def narrow(self, goal: Goal, d: Derivation, pivot: tuple, parent: Optional[Measure]) -> Iterator:
        # The tree of the view (goal, d), whose environment gives the pivot
        # variable a new bound, given `pivot` = (the variable, its old bound,
        # and a view proving the new bound below the old one over the
        # binding's prefix).  Every side condition survives, except at a
        # `trs` node on the pivot, whose premise must now start from the new
        # bound: weaken the evidence over the node's environment and compose
        # it with the rebuilt premise.  The measure's height is the node's
        # once that premise is narrowed.
        var, old_bound, ev_goal, evidence = pivot
        out: list[Derivation] = []
        for rule, g, s, t, w, count in reversed(self.rebuilt(goal, d, pivot)):
            premises = tuple(out.pop() for _ in range(count))
            if rule is _TRS and s is var:
                measure = _step(parent, (size(old_bound), _NARROW_RANK, derivation_height(premises[0]) + 1))
                weak = ((g,) + ev_goal[1:], evidence)
                premises = ((yield weak + (premises[0].concl, premises[0], measure)),)
            out.append(Derivation(rule, g, s, t, premises, w))
        return out[0]


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
