"""Subtyping: derivation trees, checkers, and bounded deciders.

Two rule systems share the `Derivation` shape.  The explicit system (lowercase
tags) carries well-scopedness obligations at its leaves: `top` and `var` nodes
demand an ok environment and closed types.  The implicit system (capitalized
tags) has the same tree structure with those obligations dropped; `to_explicit`
and `to_implicit` translate between the two.

A quantifier node stores one witness name for its body comparison.  The choice
is irrelevant: renaming the witness to any other name satisfying the freshness
conditions preserves validity (`replace_witness`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, Optional, TypeVar, Union

from .errors import InternalCheckError, PreconditionError
from .judgments import Env, closed, gfresh, lookup, names_in_env, ok, witness_for
from .parser import env_parser, env_printer, parse_type, print_type
from .syntax import (
    Arrow,
    Forall,
    FreeVar,
    Top,
    Ty,
    VarName,
    fv,
    is_locally_closed,
    is_var_name,
    nodes,
    open_ty,
    renamer,
)


class Rule(str, Enum):
    """Rule tags: explicit system and implicit system."""

    TOP = "top"
    VAR = "var"
    TRS = "trs"
    ARR = "arr"
    ALL = "all"
    I_TOP = "Top"
    I_REFL = "Refl"
    I_TRANS = "Trans"
    I_ARR = "Arr"
    I_ALL = "All"


EXPLICIT_RULES = frozenset((Rule.TOP, Rule.VAR, Rule.TRS, Rule.ARR, Rule.ALL))
IMPLICIT_RULES = frozenset((Rule.I_TOP, Rule.I_REFL, Rule.I_TRANS, Rule.I_ARR, Rule.I_ALL))

ARITY = {
    Rule.TOP: 0,
    Rule.VAR: 0,
    Rule.TRS: 1,
    Rule.ARR: 2,
    Rule.ALL: 2,
    Rule.I_TOP: 0,
    Rule.I_REFL: 0,
    Rule.I_TRANS: 1,
    Rule.I_ARR: 2,
    Rule.I_ALL: 2,
}

_TO_IMPLICIT = {
    Rule.TOP: Rule.I_TOP,
    Rule.VAR: Rule.I_REFL,
    Rule.TRS: Rule.I_TRANS,
    Rule.ARR: Rule.I_ARR,
    Rule.ALL: Rule.I_ALL,
}
_TO_EXPLICIT = {v: k for k, v in _TO_IMPLICIT.items()}


@dataclass(frozen=True, slots=True)
class Derivation:
    """One node of a derivation tree concluding `env |- lhs <: rhs`.

    `witness` is the name used to compare quantifier bodies and is present
    exactly at `all`/`All` nodes.  Construction is unchecked; validity is the
    checker's business, so malformed trees can be built for negative tests.
    """

    rule: Rule
    env: Env
    lhs: Ty
    rhs: Ty
    premises: tuple["Derivation", ...] = ()
    witness: Optional[VarName] = None

    @property
    def concl(self) -> tuple[Env, Ty, Ty]:
        return (self.env, self.lhs, self.rhs)


Goal = tuple[Env, Ty, Ty]


@dataclass(frozen=True, slots=True)
class Yes:
    """Subtyping holds, with a checkable derivation."""

    derivation: Derivation


@dataclass(frozen=True, slots=True)
class No:
    """Subtyping fails; `trace` is the goal path from the query down to the
    first goal no rule applies to."""

    trace: tuple[Goal, ...]
    reason: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Unknown:
    """Fuel ran out before the search finished."""

    fuel_spent: int


SubResult = Union[Yes, No, Unknown]

DEFAULT_FUEL = 10000


_T = TypeVar("_T")
_K = TypeVar("_K")
_V = TypeVar("_V")
_X = TypeVar("_X")


class _Memo(dict[_K, _V]):
    """`memo[key]` is `compute(key)`, computed on the first lookup only.  A
    `compute` that raises stores nothing."""

    def __init__(self, compute: Callable[[_K], _V]) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key: _K) -> _V:
        value = self[key] = self.compute(key)
        return value


def preorder(d: Derivation) -> Iterator[tuple[int, int, Derivation]]:
    """All nodes in preorder, each with its depth and its index among its
    parent's premises (0 at the root).  Linear in the size of the tree."""
    stack = [(0, 0, d)]
    while stack:
        depth, i, node = stack.pop()
        yield depth, i, node
        premises = node.premises
        for j in range(len(premises) - 1, -1, -1):
            stack.append((depth + 1, j, premises[j]))


def _fold(visits: list[tuple[Derivation, _X]], combine: Callable[[Derivation, _X, tuple], _T]) -> _T:
    # `combine(node, extra, results for its premises)` for the (node, extra)
    # pairs of a preorder list, applied from the leaves up.  In reverse
    # preorder every premise comes before its node, and the results of a
    # node's premises are the last ones made, its first premise's on top.
    out: list[_T] = []
    for node, extra in reversed(visits):
        out.append(combine(node, extra, tuple(out.pop() for _ in node.premises)))
    return out[0]


def derivation_height(d: Derivation) -> int:
    """Longest node path from this node to a leaf, counting nodes."""
    return 1 + max(depth for depth, _, _ in preorder(d))


def iter_nodes(d: Derivation) -> Iterator[tuple[tuple[int, ...], Derivation]]:
    """All nodes with their child-index paths, preorder.  Each path is a new
    tuple as long as the node is deep, so the walk is quadratic in depth;
    `preorder` gives depths alone in linear time."""
    # path[1:] is the current node's path.
    path: list[int] = []
    for depth, i, node in preorder(d):
        path[depth:] = (i,)
        yield tuple(path[1:]), node


def names_in_derivation(d: Derivation) -> frozenset[VarName]:
    """Every name visible anywhere in the tree: declared, free, or witness."""
    # Nodes share environments, so each distinct one is scanned once, after
    # the walk: merging its names at every node would cost nodes x names.
    envs: set[Env] = set()
    names: set[VarName] = set()
    for _, _, node in preorder(d):
        envs.add(node.env)
        names |= fv(node.lhs)
        names |= fv(node.rhs)
        if node.witness is not None:
            names.add(node.witness)
    for g in envs:
        names |= names_in_env(g)
    return frozenset(names)


def rename_var_in_derivation(d: Derivation, old: VarName, new: VarName) -> Derivation:
    """Textually rename a free variable everywhere: environment names and
    bounds, conclusions, witnesses.  The caller must pick `new` fresh for the
    whole tree; nothing is re-checked here."""
    # One memo per call for types and one for environments: nodes share
    # subterms and environments, and each distinct one is renamed once.
    rename_ty = renamer(old, new)
    envs = _Memo(lambda g: Env(tuple((new if x == old else x, rename_ty(b)) for x, b in g.bindings)))

    def rename(node: Derivation, env: Env, premises: tuple[Derivation, ...]) -> Derivation:
        lhs, rhs = rename_ty(node.lhs), rename_ty(node.rhs)
        return Derivation(node.rule, env, lhs, rhs, premises, new if node.witness == old else node.witness)

    return _fold([(node, envs[node.env]) for _, _, node in preorder(d)], rename)


def replace_witness(d: Derivation, new: VarName) -> Derivation:
    """Rename the witness of a quantifier node, consistently through the body
    premise.  `new` must be fresh for that subtree and for the node's
    environment; validity is then preserved."""
    if d.rule not in (Rule.ALL, Rule.I_ALL) or d.witness is None:
        raise PreconditionError(f"not a quantifier node: {d.rule}")
    if new == d.witness:
        return d
    p_bound, p_body = d.premises
    return Derivation(
        d.rule,
        d.env,
        d.lhs,
        d.rhs,
        (p_bound, rename_var_in_derivation(p_body, d.witness, new)),
        new,
    )


# ---------------------------------------------------------------- checking


def _fmt_path(path: tuple[int, ...]) -> str:
    return "root" if not path else "root." + ".".join(str(i) for i in path)


def _diagnose_node(d: Derivation, implicit: bool) -> Optional[str]:
    # The first violated condition of this node alone; premises are not visited.
    ruleset = IMPLICIT_RULES if implicit else EXPLICIT_RULES
    if d.rule not in ruleset:
        system = "implicit" if implicit else "explicit"
        return f"rule {d.rule.value!r} does not belong to the {system} system"
    if len(d.premises) != ARITY[d.rule]:
        return f"rule {d.rule.value!r} takes {ARITY[d.rule]} premises, got {len(d.premises)}"
    if (d.witness is not None) != (d.rule in (Rule.ALL, Rule.I_ALL)):
        return "witness must be present exactly at quantifier nodes"
    if not (is_locally_closed(d.lhs) and is_locally_closed(d.rhs)):
        return "conclusion contains an escaped bound index"

    shape = _TO_EXPLICIT.get(d.rule, d.rule)
    g, s, t = d.concl
    if shape == Rule.TOP:
        if not isinstance(t, Top):
            return "right side of a top node must be Top"
        if not implicit:
            if not ok(g):
                return "environment is not ok"
            if not closed(s, g):
                return "left side is not closed in the environment"
    elif shape == Rule.VAR:
        if not (isinstance(s, FreeVar) and s == t):
            return "a reflexivity node relates a variable to itself"
        if not implicit:
            if not ok(g):
                return "environment is not ok"
            if gfresh(g, s.name):
                return f"variable {s.name!r} is not declared"
    elif shape == Rule.TRS:
        if not isinstance(s, FreeVar):
            return "left side of a bound-chaining node must be a variable"
        bound = lookup(g, s.name)
        if bound is None:
            return f"variable {s.name!r} is not declared"
        if d.premises[0].concl != (g, bound, t):
            return "premise must conclude the declared bound below the right side"
    elif shape == Rule.ARR:
        if not (isinstance(s, Arrow) and isinstance(t, Arrow)):
            return "both sides of an arrow node must be arrows"
        if d.premises[0].concl != (g, t.dom, s.dom):
            return "first premise must compare domains contravariantly"
        if d.premises[1].concl != (g, s.cod, t.cod):
            return "second premise must compare codomains covariantly"
    elif shape == Rule.ALL:
        if not (isinstance(s, Forall) and isinstance(t, Forall)):
            return "both sides of a quantifier node must be universals"
        w = d.witness
        assert w is not None
        if not (isinstance(w, str) and is_var_name(w)):
            return f"witness {w!r} is not a variable name"
        if not gfresh(g, w):
            return f"witness {w!r} is already declared"
        if w in fv(s.body) or w in fv(t.body):
            return f"witness {w!r} occurs free under a quantifier body"
        if d.premises[0].concl != (g, t.bound, s.bound):
            return "first premise must compare bounds contravariantly"
        body = open_ty(s.body, w)
        expected = (g.extend(w, t.bound), body, body if t.body is s.body else open_ty(t.body, w))
        if d.premises[1].concl != expected:
            return "second premise must compare bodies under the witness binding"
    return None


def _diagnose(d: Derivation, implicit: bool) -> Optional[str]:
    # Preorder, so the problem reported is the first a depth-first check meets.
    # path[1:] is the current node's path, spelled out only for a bad node.
    path: list[int] = []
    for depth, i, node in preorder(d):
        path[depth:] = (i,)
        problem = _diagnose_node(node, implicit)
        if problem is not None:
            return f"{_fmt_path(tuple(path[1:]))}: {problem}"
    return None


def diagnose_derivation(d: Derivation) -> Optional[str]:
    """None if `d` is valid in the explicit system, else the first offending
    node's path and the violated condition."""
    return _diagnose(d, implicit=False)


def check_derivation(d: Derivation) -> bool:
    """Validity in the explicit system: rule shapes, side conditions, and the
    witness discipline hold at every node."""
    return diagnose_derivation(d) is None


def diagnose_derivation_implicit(d: Derivation) -> Optional[str]:
    """Like `diagnose_derivation` for the implicit system (no ok/closed checks)."""
    return _diagnose(d, implicit=True)


def check_derivation_implicit(d: Derivation) -> bool:
    """Validity in the implicit system."""
    return diagnose_derivation_implicit(d) is None


def _retag(d: Derivation, mapping: dict[Rule, Rule]) -> Derivation:
    def retag(node: Derivation, rule: Rule, premises: tuple[Derivation, ...]) -> Derivation:
        return Derivation(rule, node.env, node.lhs, node.rhs, premises, node.witness)

    return _fold([(node, mapping[node.rule]) for _, _, node in preorder(d)], retag)


def to_implicit(d: Derivation) -> Derivation:
    """Retag a valid explicit derivation into the implicit system."""
    problem = diagnose_derivation(d)
    if problem is not None:
        raise PreconditionError(problem)
    return _retag(d, _TO_IMPLICIT)


def to_explicit(d: Derivation) -> Derivation:
    """Retag a valid implicit derivation into the explicit system.

    Requires an ok root environment with both root sides closed; the leaf
    obligations at every node then hold because each rule only ever extends the
    environment with a fresh name bound by a closed type."""
    problem = diagnose_derivation_implicit(d)
    if problem is not None:
        raise PreconditionError(problem)
    g, s, t = d.concl
    if not ok(g):
        raise PreconditionError("root environment is not ok")
    if not (closed(s, g) and closed(t, g)):
        raise PreconditionError("root conclusion is not closed in its environment")
    out = _retag(d, _TO_EXPLICIT)
    problem = diagnose_derivation(out)
    if problem is not None:
        raise InternalCheckError(f"retagged derivation failed the checker: {problem}")
    return out


# ---------------------------------------------------------------- deciding


def scoping_problem(g: Env, s: Ty, t: Ty) -> Optional[str]:
    """Why (g, s, t) is not a well-scoped query, or None."""
    if not ok(g):
        return "environment is not ok"
    if not closed(s, g):
        return "left type is not closed in the environment"
    if not closed(t, g):
        return "right type is not closed in the environment"
    return None


def decide_sub(g: Env, s: Ty, t: Ty, fuel: int = DEFAULT_FUEL) -> SubResult:
    """Decide `g |- s <: t` with a fuel bound.

    The system is syntax-directed, so at most one rule applies to each goal:
    Top on the right wins, then variable reflexivity, then chaining a left
    variable through its declared bound, then the structural rules.  Each goal
    visited consumes one unit of fuel; running out yields Unknown.
    """
    problem = scoping_problem(g, s, t)
    if problem is not None:
        return No(((g, s, t),), reason=problem)
    return _decide(g, s, t, fuel)


def _decide(g: Env, s: Ty, t: Ty, fuel: int) -> SubResult:
    # `decide_sub` on a query already known to be well scoped.
    #
    # Depth-first on an explicit stack of frames (goal, rule, subgoals,
    # witness, premises), one per goal whose subgoals are still being decided.
    # Subgoals run in rule order (bound before body), which fixes how fuel is
    # spent; the first No or Unknown decides the query.
    stack: list[tuple[Goal, Rule, tuple[Goal, ...], Optional[VarName], list[Derivation]]] = []
    spent = 0
    goal: Goal = (g, s, t)
    while True:
        if spent >= fuel:
            return Unknown(fuel)
        spent += 1
        g, s, t = goal
        if isinstance(t, Top):
            done = Derivation(Rule.TOP, g, s, t)
        elif isinstance(s, FreeVar) and s == t:
            done = Derivation(Rule.VAR, g, s, t)
        else:
            witness = None
            if isinstance(s, FreeVar):
                bound = lookup(g, s.name)
                assert bound is not None  # s is closed in g
                rule, subgoals = Rule.TRS, ((g, bound, t),)
            elif isinstance(s, Arrow) and isinstance(t, Arrow):
                rule, subgoals = Rule.ARR, ((g, t.dom, s.dom), (g, s.cod, t.cod))
            elif isinstance(s, Forall) and isinstance(t, Forall):
                witness = witness_for(g, s.body, t.body)
                body = open_ty(s.body, witness)
                opened = (g.extend(witness, t.bound), body, body if t.body is s.body else open_ty(t.body, witness))
                rule, subgoals = Rule.ALL, ((g, t.bound, s.bound), opened)
            else:
                return No(tuple(frame[0] for frame in stack) + (goal,), reason="no rule applies")
            stack.append((goal, rule, subgoals, witness, []))
            goal = subgoals[0]
            continue
        # Hand the finished derivation to the frames above, completing each
        # frame whose last subgoal it was, until one has a subgoal left.
        while stack:
            parent, rule, subgoals, witness, premises = stack[-1]
            premises.append(done)
            if len(premises) < len(subgoals):
                goal = subgoals[len(premises)]
                break
            stack.pop()
            done = Derivation(rule, *parent, tuple(premises), witness)
        else:
            return Yes(done)


class DeclarativeSearch:
    """Bounded provability in the declarative system: hypothesis, unrestricted
    reflexivity, and transitivity through any midpoint replace the algorithmic
    variable rules.

    Midpoints for a transitivity step are drawn from a finite universe local to
    the goal (subterms of both sides, every declared bound, and Top), which
    keeps the search finite; the restriction is a potential completeness loss at
    scale, but none is observable on small instances.  Each goal is memoized with
    the last height it was proven or refuted within, so an instance can be
    shared across many queries."""

    def __init__(self) -> None:
        # g -> s -> t -> 2h if `g |- s <: t` is provable within height h,
        # 2h + 1 if it is not.  Nesting the keys saves a goal tuple per entry.
        self._memo: dict[Env, dict[Ty, dict[Ty, int]]] = {}

    def provable(self, g: Env, s: Ty, t: Ty, depth: int) -> bool:
        """True if a declarative derivation of height <= depth exists."""
        if depth <= 0:
            return False
        # The three axioms (top, reflexivity, hypothesis) prove a goal at any
        # height and are all that height 1 allows; they bypass the memo.
        if isinstance(t, Top) or s is t or (isinstance(s, FreeVar) and lookup(g, s.name) is t):
            return True
        if depth == 1:
            return False
        rows = self._memo.get(g)
        if rows is None:
            rows = self._memo[g] = {}
        codes = rows.get(s)
        if codes is None:
            codes = rows[s] = {}
        code = codes.get(t)
        if code is not None:
            height, failed = divmod(code, 2)
            if failed and depth <= height:
                return False
            if not failed and height <= depth:
                return True
        found = self._search(g, s, t, depth - 1)
        codes[t] = 2 * depth + (not found)
        return found

    def _search(self, g: Env, s: Ty, t: Ty, rest: int) -> bool:
        # Every rule but the axioms, with premises of height <= rest.
        if isinstance(s, Arrow) and isinstance(t, Arrow):
            if self.provable(g, t.dom, s.dom, rest) and self.provable(g, s.cod, t.cod, rest):
                return True
        if isinstance(s, Forall) and isinstance(t, Forall):
            if self.provable(g, t.bound, s.bound, rest):
                w = witness_for(g, s.body, t.body)
                body = open_ty(s.body, w)
                other = body if t.body is s.body else open_ty(t.body, w)
                if self.provable(g.extend(w, t.bound), body, other, rest):
                    return True
        for m in self._midpoints(g, s, t):
            if self.provable(g, s, m, rest) and self.provable(g, m, t, rest):
                return True
        return False

    @staticmethod
    def _midpoints(g: Env, s: Ty, t: Ty) -> list[Ty]:
        raw: list[Ty] = [Top()]
        for _, bound in g.bindings:
            raw.append(bound)
        # Subterms that are types in their own right: quantifier bodies are
        # abstractions, so only nodes outside every body qualify.
        for side in (s, t):
            raw.extend(node for node, depth in nodes(side) if depth == 0)
        seen: dict[Ty, None] = {}
        for m in raw:
            if m != s and m != t:
                seen.setdefault(m, None)
        return list(seen)


def decide_sub_declarative(
    g: Env, s: Ty, t: Ty, max_depth: int, search: Optional[DeclarativeSearch] = None
) -> bool:
    """Iterative-deepening provability in the declarative system up to `max_depth`."""
    engine = search if search is not None else DeclarativeSearch()
    for depth in range(1, max_depth + 1):
        if engine.provable(g, s, t, depth):
            return True
    return False


# ---------------------------------------------------------------- rendering


def derivation_to_text(d: Derivation) -> str:
    """Indented one-node-per-line rendering; quantifier nodes show their witness.
    Each distinct environment and type is printed once per call."""
    types = _Memo(print_type)
    envs = _Memo(env_printer(types.__getitem__))
    lines: list[str] = []
    for depth, _, node in preorder(d):
        tag = node.rule.value
        if node.witness is not None:
            tag += f" {node.witness}"
        env_text = envs[node.env]
        judgment = f"|- {types[node.lhs]} <: {types[node.rhs]}"
        lines.append("  " * depth + f"({tag}) " + (f"{env_text} {judgment}" if env_text else judgment))
    return "\n".join(lines)


_JSON_NODE_OPEN = '{"rule": %s, "env": %s, "lhs": %s, "rhs": %s, "witness": %s, "premises": ['


def derivation_to_json(d: Derivation) -> str:
    """Serialize with a fixed key order: rule, env, lhs, rhs, witness, premises.
    Types and environments use the surface syntax, so output re-parses exactly.
    Each distinct environment and type is printed once per call."""
    # The text `json.dumps` gives the nested objects, emitted in preorder: a
    # node at depth k first closes every open node at depth k or deeper.
    # Strings are quoted by json's own encoder.  Environments and types are
    # interned, so the memos of their quoted text are keyed by identity.
    texts = _Memo(print_type)
    env_text = env_printer(texts.__getitem__)
    envs = _Memo(lambda g: _quote(env_text(g)))
    types = _Memo(lambda t: _quote(texts[t]))
    parts: list[str] = []
    last = -1
    for depth, _, node in preorder(d):
        if depth <= last:
            parts.append("]}" * (last - depth + 1) + ", ")
        witness = "null" if node.witness is None else _quote(node.witness)
        fields = (_quote(node.rule.value), envs[node.env], types[node.lhs], types[node.rhs], witness)
        parts.append(_JSON_NODE_OPEN % fields)
        last = depth
    parts.append("]}" * (last + 1))
    return "".join(parts)


_JSON_KEYS = ("rule", "env", "lhs", "rhs", "witness", "premises")


def _from_obj(obj: object, envs: _Memo[str, Env], types: _Memo[str, Ty]) -> Derivation:
    # `envs` and `types` parse each string of this document once.  A bad
    # string is not stored, so it raises where it first occurs, exactly as it
    # would unmemoized.
    if not isinstance(obj, dict):
        raise ValueError(f"derivation node must be an object, got {type(obj).__name__}")
    for key in _JSON_KEYS:
        if key not in obj:
            raise ValueError(f"derivation node is missing {key!r}")
    try:
        rule = Rule(obj["rule"])
    except ValueError:
        raise ValueError(f"unknown rule tag: {obj['rule']!r}") from None
    witness = obj["witness"]
    if witness is not None and not (isinstance(witness, str) and is_var_name(witness)):
        raise ValueError(f"witness must be a variable name or null, got {witness!r}")
    premises = obj["premises"]
    if not isinstance(premises, list):
        raise ValueError("premises must be a list")
    for key in ("env", "lhs", "rhs"):
        if not isinstance(obj[key], str):
            raise ValueError(f"{key} must be a string of surface syntax")
    env, lhs, rhs = envs[obj["env"]], types[obj["lhs"]], types[obj["rhs"]]
    return Derivation(rule, env, lhs, rhs, tuple(_from_obj(p, envs, types) for p in premises), witness)


def derivation_from_json(text: str) -> Derivation:
    """Inverse of `derivation_to_json`.  Raises ValueError on schema violations.
    Each distinct environment, binding and type string is parsed once per call."""
    return _from_obj(json.loads(text), _Memo(env_parser()), _Memo(parse_type))
