"""Derivation walks as plain recursion over the premises.

These are the straightforward definitions: one call per node, and every
environment and type printed afresh at every node.  The package reads a
derivation with one explicit-stack preorder walk and memoizes the printed
text; the tests compare the two.  Recursion limits these to shallow trees.
"""

from __future__ import annotations

import json

from fsub.parser import print_env, print_judgment, print_type
from fsub.subtyper import Derivation


def iter_nodes(d: Derivation, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], Derivation]]:
    out = [(path, d)]
    for i, premise in enumerate(d.premises):
        out += iter_nodes(premise, path + (i,))
    return out


def derivation_height(d: Derivation) -> int:
    return 1 + max((derivation_height(p) for p in d.premises), default=0)


def derivation_to_text(d: Derivation, depth: int = 0) -> str:
    tag = d.rule.value if d.witness is None else f"{d.rule.value} {d.witness}"
    line = "  " * depth + f"({tag}) " + print_judgment(d.env, d.lhs, d.rhs)
    return "\n".join([line] + [derivation_to_text(p, depth + 1) for p in d.premises])


def to_obj(d: Derivation) -> dict:
    return {
        "rule": d.rule.value,
        "env": print_env(d.env),
        "lhs": print_type(d.lhs),
        "rhs": print_type(d.rhs),
        "witness": d.witness,
        "premises": [to_obj(p) for p in d.premises],
    }


def derivation_to_json(d: Derivation) -> str:
    return json.dumps(to_obj(d))


# ------------------------------------------------ renaming and rebuilding
#
# The renaming and rebuilding walks as separate passes: a renaming rebuilds
# the renamed subtree and re-extends every cell of its root environment, the
# rebuilding walk renames a colliding witness with a whole `replace_witness`
# before it goes on, and transitivity renames the left body premise to the
# shared witness and then rebuilds it again to narrow it.  Each distinct
# environment of a tree is scanned back to the root for its names.  The
# package renames inside its one rebuilding walk; the tests compare the two.

from fsub.errors import InternalCheckError, PreconditionError  # noqa: E402
from fsub.judgments import EMPTY_ENV, Env, gfresh  # noqa: E402
from fsub.metatheory import _NARROW_RANK, _TRANS_RANK, EnvSplit, _step  # noqa: E402
from fsub.subtyper import _ALL, _ARR, _QUANTIFIER_RULES, _TOP, _TRS, _VAR, preorder  # noqa: E402
from fsub.syntax import Forall, FreeVar, Top, fresh, fv, size, subst_var  # noqa: E402


def fold(visits, combine) -> Derivation:
    # `combine(node, extra, premise results)` over a preorder list of (node, extra) pairs, leaves first.
    out = []
    for node, extra in reversed(visits):
        out.append(combine(node, extra, tuple(out.pop() for _ in node.premises)))
    return out[0]


def names_in_env(g: Env) -> frozenset:
    names = set()
    for name, bound in g.decls():
        names.add(name)
        names |= fv(bound)
    return frozenset(names)


def names_in_derivation(d: Derivation) -> frozenset:
    envs = set()
    names = set()
    for _, _, node in preorder(d):
        envs.add(node.env)
        names |= fv(node.lhs)
        names |= fv(node.rhs)
        if node.witness is not None:
            names.add(node.witness)
    for g in envs:
        names |= names_in_env(g)
    return frozenset(names)


def rename_var_in_derivation(d: Derivation, old: str, new: str) -> Derivation:
    def rename_ty(t):
        return subst_var(t, old, new)

    envs = {EMPTY_ENV: EMPTY_ENV}

    def rename_env(g: Env) -> Env:
        cells = []
        while g not in envs:
            cells.append(g)
            g = g.parent
        out = envs[g]
        for cell in reversed(cells):
            out = envs[cell] = out.extend(new if cell.name == old else cell.name, rename_ty(cell.bound))
        return out

    def rename(node, env, premises):
        lhs, rhs = rename_ty(node.lhs), rename_ty(node.rhs)
        return Derivation(node.rule, env, lhs, rhs, premises, new if node.witness == old else node.witness)

    return fold([(node, rename_env(node.env)) for _, _, node in preorder(d)], rename)


def replace_witness(d: Derivation, new: str) -> Derivation:
    if d.rule not in _QUANTIFIER_RULES or d.witness is None:
        raise PreconditionError(f"not a quantifier node: {d.rule.value!r}")
    if new == d.witness:
        return d
    p_bound, p_body = d.premises
    return Derivation(d.rule, d.env, d.lhs, d.rhs, (p_bound, rename_var_in_derivation(p_body, d.witness, new)), new)


def rebase(d: Derivation, new: Env, narrowing=None) -> Derivation:
    pivot = None if narrowing is None else FreeVar(narrowing[0].pivot_var)
    above = []
    visits = []
    for depth, i, node in preorder(d):
        g, env = d.env, new
        if depth:
            parent, g, env = above[depth - 1]
            node = parent.premises[i]
            if parent.rule is _ALL and i == 1:
                g = g.extend(parent.witness, parent.rhs.bound)
                env = env.extend(parent.witness, parent.rhs.bound)
        if node.env is not g:
            raise InternalCheckError("derivation environment does not match its parent")
        if node.rule is _ALL and not gfresh(env, node.witness):
            node = replace_witness(node, fresh(names_in_derivation(node) | names_in_env(env)))
        above[depth:] = ((node, g, env),)
        visits.append((node, env))

    def rebuild(node, env, premises):
        if node.rule is _TRS and node.lhs is pivot:
            split, d_pq, parent = narrowing
            measure = _step(parent, (size(split.pivot_bound), _NARROW_RANK, node._height))
            premises = (trans(rebase(d_pq, env), premises[0], measure),)
        return Derivation(node.rule, env, node.lhs, node.rhs, premises, node.witness)

    return fold(visits, rebuild)


def trans(d1: Derivation, d2: Derivation, parent=None) -> Derivation:
    q = d1.rhs
    measure = _step(parent, (size(q), _TRANS_RANK, d1._height))
    g = d1.env
    if isinstance(q, Top):
        return Derivation(_TOP, g, d1.lhs, d2.rhs)
    if d1.rule is _VAR:
        return d2
    if d1.rule is _TRS:
        return Derivation(_TRS, g, d1.lhs, d2.rhs, (trans(d1.premises[0], d2, measure),))
    if d2.rule is _TOP:
        return Derivation(_TOP, g, d1.lhs, d2.rhs)
    if d1.rule is _ARR and d2.rule is _ARR:
        p_dom = trans(d2.premises[0], d1.premises[0], measure)
        p_cod = trans(d1.premises[1], d2.premises[1], measure)
        return Derivation(_ARR, g, d1.lhs, d2.rhs, (p_dom, p_cod))
    assert d1.rule is _ALL and d2.rule is _ALL and isinstance(q, Forall)
    b_bound = d2.premises[0]
    p_bound = trans(b_bound, d1.premises[0], measure)
    w = fresh(names_in_derivation(d1) | names_in_derivation(d2))
    a_body = replace_witness(d1, w).premises[1]
    b_body = replace_witness(d2, w).premises[1]
    split = EnvSplit(g, w, q.bound, EMPTY_ENV)
    a_body = rebase(a_body, split.assemble(d2.rhs.bound), (split, b_bound, measure))
    return Derivation(_ALL, g, d1.lhs, d2.rhs, (p_bound, trans(a_body, b_body, measure)), witness=w)


def narrow(split: EnvSplit, p, d: Derivation, d_pq: Derivation) -> Derivation:
    # `derive_narrow` with its checks in their order: `ok_narrow`'s, which
    # assemble both environments, then the split's again.
    from fsub.judgments import ok
    from fsub.metatheory import _require_valid

    _require_valid(d, "derivation")
    _require_valid(d_pq, "evidence derivation")
    if not ok(split.assemble()):
        raise PreconditionError("split environment is not ok")
    if d_pq.concl != (split.prefix, p, split.pivot_bound):
        raise PreconditionError("evidence must conclude the new bound below the old bound over the prefix")
    if not ok(split.assemble(p)):
        raise InternalCheckError("narrowed environment failed the ok check")
    if d.env != split.assemble():
        raise PreconditionError("derivation environment does not match the split")
    return rebase(d, split.assemble(p), (split, d_pq, None))
