"""Subtyping: derivation trees, checkers, and bounded deciders.

Two rule systems share the `Derivation` shape.  The explicit system (lowercase
tags) carries well-scopedness obligations at its leaves: `top` and `var` nodes
demand an ok environment and closed types.  The implicit system (capitalized
tags) has the same tree structure with those obligations dropped; `to_explicit`
and `to_implicit` translate between the two.

A quantifier node stores one witness name for its body comparison.  The choice
is irrelevant: renaming the witness to any other name satisfying the freshness
conditions preserves validity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Optional

from .errors import InternalCheckError, PreconditionError
from .judgments import EMPTY_ENV, Env, closed, gfresh, lookup, ok, witness_for
from .parser import Printer, parse_env, parse_type
from .syntax import (
    _MISS,
    Arrow,
    Forall,
    FreeVar,
    HashConsed,
    Top,
    Ty,
    VarName,
    _not_a_type,
    fv,
    is_locally_closed,
    is_var_name,
    nodes,
    open_ty,
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


# The explicit rules, read from module globals on the hot paths: looking a
# member up on an Enum class costs several times as much (CPython 3.11).
_TOP, _VAR, _TRS, _ARR, _ALL = Rule.TOP, Rule.VAR, Rule.TRS, Rule.ARR, Rule.ALL
_QUANTIFIER_RULES = frozenset((_ALL, Rule.I_ALL))

# The rule tables are written for the explicit rules; the implicit entries
# are derived from them.
_TO_IMPLICIT = {_TOP: Rule.I_TOP, _VAR: Rule.I_REFL, _TRS: Rule.I_TRANS, _ARR: Rule.I_ARR, _ALL: Rule.I_ALL}
_TO_EXPLICIT = {v: k for k, v in _TO_IMPLICIT.items()}
EXPLICIT_RULES = frozenset(_TO_IMPLICIT)
IMPLICIT_RULES = frozenset(_TO_EXPLICIT)
ARITY = {_TOP: 0, _VAR: 0, _TRS: 1, _ARR: 2, _ALL: 2}
ARITY.update({_TO_IMPLICIT[rule]: arity for rule, arity in ARITY.items()})


_DERIVATIONS: dict = {}
# Each rule under its tag string.  A rule equals its tag and hashes the same,
# so a rule and its tag find one node, which must hold the rule, and the
# JSON reader looks a tag up here.
_RULES = {rule.value: rule for rule in Rule}
# Each rule's tag as a plain string, for the writers: reading `rule.value`
# costs an Enum property call per node.
_TAGS = {rule: rule.value for rule in Rule}


class Derivation(HashConsed):
    """One node of a derivation tree concluding `env |- lhs <: rhs`.

    `witness` is the name used to compare quantifier bodies and is present
    exactly at `all`/`All` nodes.  Construction checks only the fields' types
    (`TypeError`); validity, witnesses included, is the checker's business,
    so malformed trees can be built for negative tests.
    Nodes are hash-consed like types, so `premises` must be a tuple, and keep
    their height (the longest node path to a leaf) in `_height`.  `_valid`
    is left unset until the explicit checker finds the node's tree valid.
    """

    __slots__ = ("rule", "env", "lhs", "rhs", "premises", "witness", "_height", "_valid")
    __match_args__ = ("rule", "env", "lhs", "rhs", "premises", "witness")
    rule: Rule
    env: Env
    lhs: Ty
    rhs: Ty
    premises: tuple["Derivation", ...]
    witness: Optional[VarName]

    def __new__(
        cls, rule: Rule, env: Env, lhs: Ty, rhs: Ty, premises: tuple = (), witness: Optional[VarName] = None
    ) -> "Derivation":
        key = (rule, env, lhs, rhs, premises, witness)
        node = _DERIVATIONS.get(key, _MISS)()
        if node is None:
            tag = _RULES.get(rule)
            if tag is None:
                raise TypeError(f"not a rule: {rule!r}")
            if not isinstance(env, Env):
                raise TypeError(f"not an environment: {env!r}")
            if not (isinstance(lhs, Ty) and isinstance(rhs, Ty)):
                raise _not_a_type(lhs, rhs)
            height = 0
            try:
                for premise in premises:
                    if premise._height > height:
                        height = premise._height
            except AttributeError:
                raise TypeError(f"not a derivation: {premise!r}") from None
            node = object.__new__(cls)
            _set_rule(node, tag)
            _set_env(node, env)
            _set_lhs(node, lhs)
            _set_rhs(node, rhs)
            _set_premises(node, premises)
            _set_witness(node, witness)
            _set_height(node, height + 1)
            node._intern(_DERIVATIONS, key)
        return node

    @property
    def concl(self) -> tuple[Env, Ty, Ty]:
        return (self.env, self.lhs, self.rhs)


# Setters of the fields, straight through their slots, as for types.
_set_rule = Derivation.rule.__set__
_set_env = Derivation.env.__set__
_set_lhs = Derivation.lhs.__set__
_set_rhs = Derivation.rhs.__set__
_set_premises = Derivation.premises.__set__
_set_witness = Derivation.witness.__set__
_set_height = Derivation._height.__set__
_set_valid = Derivation._valid.__set__


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


# Spelled with `|`, a `types.UnionType` no cache keeps: `typing.Union[...]`
# goes through typing's process-wide cache, which would keep these classes,
# and through their methods every module of the package, alive after
# `sys.modules` forgets an import.
SubResult = Yes | No | Unknown

DEFAULT_FUEL = 10000


def preorder(d: Derivation) -> Iterator[tuple[int, int, Derivation]]:
    """All nodes in preorder, each with its depth and its index among its
    parent's premises (0 at the root).  Linear in the size of the tree."""
    if type(d) is not Derivation:
        raise TypeError(f"not a derivation: {d!r}")
    stack = [(0, 0, d)]
    while stack:
        depth, i, node = stack.pop()
        yield depth, i, node
        premises = node.premises
        for j in range(len(premises) - 1, -1, -1):
            stack.append((depth + 1, j, premises[j]))


def _assemble(visits: list[tuple[Rule, Env, Ty, Ty, Optional[VarName], int]]) -> Derivation:
    # The tree of a preorder list of (rule, environment, left side, right
    # side, witness, premise count) visits, built from the leaves up: in
    # reverse preorder every premise comes before its node, its first
    # premise's tree last.  A node that is alive costs one intern lookup, as
    # in `_decide`.
    out: list[Derivation] = []
    for rule, g, s, t, witness, count in reversed(visits):
        premises = tuple(out[-1 : -1 - count : -1])
        del out[len(out) - count :]
        key = (rule, g, s, t, premises, witness)
        out.append(_DERIVATIONS.get(key, _MISS)() or Derivation(*key))
    return out[0]


def derivation_height(d: Derivation) -> int:
    """Longest node path from this node to a leaf, counting nodes."""
    if type(d) is not Derivation:
        raise TypeError(f"not a derivation: {d!r}")
    return d._height


def iter_nodes(d: Derivation) -> Iterator[tuple[tuple[int, ...], Derivation]]:
    """All nodes with their child-index paths, preorder.  Each path is a new
    tuple as long as the node is deep, so the walk is quadratic in depth;
    `preorder` gives depths alone in linear time."""
    # path[1:] is the current node's path.
    path: list[int] = []
    for depth, i, node in preorder(d):
        path[depth:] = (i,)
        yield tuple(path[1:]), node


# ---------------------------------------------------------------- checking


def _fmt_path(path: tuple[int, ...]) -> str:
    return "root" if not path else "root." + ".".join(str(i) for i in path)


def _premise_goals(shape: Rule, g: Env, s: Ty, t: Ty, witness: Optional[VarName]) -> tuple[Goal, ...]:
    # The conclusions that the premises of a node of explicit rule `shape`
    # (or its implicit counterpart) concluding `g |- s <: t` must have, in
    # order, with `witness` opening the bodies at a quantifier node; () when
    # the sides do not have the rule's shape or the variable of a
    # bound-chaining node is not declared.
    if shape is _TRS:
        bound = lookup(g, s.name) if isinstance(s, FreeVar) else None
        if bound is not None:
            return ((g, bound, t),)
    elif shape is _ARR:
        if isinstance(s, Arrow) and isinstance(t, Arrow):
            return ((g, t.dom, s.dom), (g, s.cod, t.cod))
    elif shape is _ALL:
        if isinstance(s, Forall) and isinstance(t, Forall) and witness is not None:
            opened = (g.extend(witness, t.bound), open_ty(s.body, witness), open_ty(t.body, witness))
            return ((g, t.bound, s.bound), opened)
    return ()


def _diagnose_node(d: Derivation, implicit: bool) -> Optional[str]:
    # The first violated condition of this node alone; premises are not visited.
    ruleset = IMPLICIT_RULES if implicit else EXPLICIT_RULES
    if d.rule not in ruleset:
        system = "implicit" if implicit else "explicit"
        return f"rule {d.rule.value!r} does not belong to the {system} system"
    if len(d.premises) != ARITY[d.rule]:
        return f"rule {d.rule.value!r} takes {ARITY[d.rule]} premises, got {len(d.premises)}"
    if (d.witness is not None) != (d.rule in _QUANTIFIER_RULES):
        return "witness must be present exactly at quantifier nodes"
    if not (is_locally_closed(d.lhs) and is_locally_closed(d.rhs)):
        return "conclusion contains an escaped bound index"

    shape = _TO_EXPLICIT.get(d.rule, d.rule)
    g, s, t = d.env, d.lhs, d.rhs
    if shape is _TOP:
        if not isinstance(t, Top):
            return "right side of a top node must be Top"
        if not implicit:
            if not ok(g):
                return "environment is not ok"
            if not closed(s, g):
                return "left side is not closed in the environment"
        return None
    if shape is _VAR:
        if not (isinstance(s, FreeVar) and s == t):
            return "a reflexivity node relates a variable to itself"
        if not implicit:
            if not ok(g):
                return "environment is not ok"
            if gfresh(g, s.name):
                return f"variable {s.name!r} is not declared"
        return None
    if shape is _TRS:
        if not isinstance(s, FreeVar):
            return "left side of a bound-chaining node must be a variable"
        if gfresh(g, s.name):
            return f"variable {s.name!r} is not declared"
        problems: tuple[str, ...] = ("premise must conclude the declared bound below the right side",)
    elif shape is _ARR:
        if not (isinstance(s, Arrow) and isinstance(t, Arrow)):
            return "both sides of an arrow node must be arrows"
        problems = (
            "first premise must compare domains contravariantly",
            "second premise must compare codomains covariantly",
        )
    else:
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
        problems = (
            "first premise must compare bounds contravariantly",
            "second premise must compare bodies under the witness binding",
        )
    goals = _premise_goals(shape, g, s, t, d.witness)
    for i, premise in enumerate(d.premises):
        if (premise.env, premise.lhs, premise.rhs) != goals[i]:
            return problems[i]
    return None


def _diagnose(d: Derivation, implicit: bool) -> Optional[str]:
    # Preorder, so the problem reported is the first a depth-first check meets.
    # Explicit validity is local (a node's own conditions and its premises'
    # validity) and a node is interned on all it is checked against, so an
    # explicit check skips every subtree already found valid, and marks the
    # nodes it checked once the whole tree has passed.  Each stack entry
    # carries its node's depth and index among its parent's premises, and
    # path[1:] is the path of the node being examined, as in `iter_nodes`;
    # only the failing node's path becomes a tuple.
    if type(d) is not Derivation:
        raise TypeError(f"not a derivation: {d!r}")
    checked: list[Derivation] = []
    path: list[int] = []
    stack = [(0, 0, d)]
    while stack:
        depth, i, node = stack.pop()
        if not implicit and getattr(node, "_valid", False):
            continue
        path[depth:] = (i,)
        problem = _diagnose_node(node, implicit)
        if problem is not None:
            return f"{_fmt_path(tuple(path[1:]))}: {problem}"
        checked.append(node)
        premises = node.premises
        for j in range(len(premises) - 1, -1, -1):
            stack.append((depth + 1, j, premises[j]))
    if not implicit:
        for node in checked:
            _set_valid(node, True)
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
    return _assemble([(mapping[node.rule], *node.concl, node.witness, len(node.premises)) for _, _, node in preorder(d)])


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
    """Why (g, s, t) is not a well-scoped query, or None.  An argument of the
    wrong type raises `TypeError`."""
    if type(g) is not Env:
        raise TypeError(f"not an environment: {g!r}")
    if not (isinstance(s, Ty) and isinstance(t, Ty)):
        raise _not_a_type(s, t)
    if not ok(g):
        return "environment is not ok"
    if not closed(s, g):
        return "left type is not closed in the environment"
    if not closed(t, g):
        return "right type is not closed in the environment"
    return None


def _check_count(name: str, value: object) -> None:
    # A budget is an int >= 0: a bool would run as 0 or 1, and a float, a
    # string or None fails later, or not at all.
    if type(value) is not int or value < 0:
        raise PreconditionError(f"{name} must be an integer >= 0, got {value!r}")


def decide_sub(g: Env, s: Ty, t: Ty, fuel: int = DEFAULT_FUEL) -> SubResult:
    """Decide `g |- s <: t` with a fuel bound.

    The system is syntax-directed, so at most one rule applies to each goal:
    Top on the right wins, then variable reflexivity, then chaining a left
    variable through its declared bound, then the structural rules.  Each goal
    visited consumes one unit of fuel; running out yields Unknown.
    """
    _check_count("fuel", fuel)
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
    # spent; the first No or Unknown decides the query.  A finished node that
    # is alive costs one lookup in the intern table, by the constructor's own
    # idiom, and only a new node calls the constructor.
    stack: list[tuple[Goal, Rule, tuple[Goal, ...], Optional[VarName], list[Derivation]]] = []
    spent = 0
    goal: Goal = (g, s, t)
    while True:
        if spent >= fuel:
            return Unknown(fuel)
        spent += 1
        g, s, t = goal
        if isinstance(t, Top):
            key = (_TOP, g, s, t, (), None)
            done = _DERIVATIONS.get(key, _MISS)() or Derivation(*key)
        elif isinstance(s, FreeVar) and s == t:
            key = (_VAR, g, s, t, (), None)
            done = _DERIVATIONS.get(key, _MISS)() or Derivation(*key)
        else:
            # A variable on the left is closed in g, so declared; any other
            # goal is an arrow or quantifier goal, or no rule applies.
            witness = None
            if isinstance(s, FreeVar):
                rule = _TRS
            elif isinstance(s, Forall) and isinstance(t, Forall):
                rule, witness = _ALL, witness_for(g, s.body, t.body)
            else:
                rule = _ARR
            subgoals = _premise_goals(rule, g, s, t, witness)
            if not subgoals:
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
            key = (rule, *parent, tuple(premises), witness)
            done = _DERIVATIONS.get(key, _MISS)() or Derivation(*key)
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
        """True if a declarative derivation of height <= depth exists; assumes a well-scoped goal."""
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
                if self.provable(g.extend(w, t.bound), open_ty(s.body, w), open_ty(t.body, w), rest):
                    return True
        for m in self._midpoints(g, s, t):
            if self.provable(g, s, m, rest) and self.provable(g, m, t, rest):
                return True
        return False

    @staticmethod
    def _midpoints(g: Env, s: Ty, t: Ty) -> list[Ty]:
        raw: list[Ty] = [Top()]
        while g is not EMPTY_ENV:
            raw.append(g.bound)
            g = g.parent
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
    """Iterative-deepening provability in the declarative system up to `max_depth`; False when not well scoped."""
    _check_count("max_depth", max_depth)
    engine = search if search is not None else DeclarativeSearch()
    if scoping_problem(g, s, t) is None:
        for depth in range(1, max_depth + 1):
            if engine.provable(g, s, t, depth):
                return True
    return False


# ---------------------------------------------------------------- rendering


def derivation_to_text(d: Derivation) -> str:
    """Indented one-node-per-line rendering; quantifier nodes show their witness."""
    judgment_text = Printer().judgment_text
    lines: list[str] = []
    for depth, _, node in preorder(d):
        tag = _TAGS[node.rule] if node.witness is None else f"{_TAGS[node.rule]} {node.witness}"
        lines.append("  " * depth + f"({tag}) " + judgment_text(node.env, node.lhs, node.rhs))
    return "\n".join(lines)


# Each rule's opening of a JSON node, up to its environment's text.
_JSON_HEADS = {rule: '{"rule": %s, "env": ' % _quote(tag) for rule, tag in _TAGS.items()}


def derivation_to_json(d: Derivation) -> str:
    """Serialize with a fixed key order: rule, env, lhs, rhs, witness, premises.
    Types and environments use the surface syntax, so output re-parses exactly."""
    # The text `json.dumps` gives the nested objects, in preorder: a node at
    # depth k first closes every open node at depth k or deeper.  Each node's
    # pieces go straight into the one list that is joined at the end.  An
    # environment's text is quoted by json's own encoder once per distinct
    # environment: a name bound in an `Env` may be any string, and a long
    # environment is shared by many nodes.  A type's canonical text holds
    # only names, spaces, `->`, `<:`, `.` and parentheses, none of which JSON
    # escapes, so it goes between quotes as the printer keeps it.
    printer = Printer()
    env_text, type_text = printer.env_text, printer.type_text
    envs: dict[Env, str] = {}
    parts: list[str] = []
    last = -1
    for depth, _, node in preorder(d):
        if depth <= last:
            parts.append("]}" * (last - depth + 1) + ", ")
        if node.env not in envs:
            envs[node.env] = _quote(env_text(node.env))
        parts += (_JSON_HEADS[node.rule], envs[node.env], ', "lhs": "', type_text(node.lhs), '", "rhs": "', type_text(node.rhs),
                  '", "witness": ', "null" if node.witness is None else _quote(node.witness), ', "premises": [')
        last = depth
    parts.append("]}" * (last + 1))
    return "".join(parts)


_JSON_KEYS = ("rule", "env", "lhs", "rhs", "witness", "premises")
_JSON_KEY_SET = frozenset(_JSON_KEYS)


def _node_problem(obj: object) -> str:
    # Why a decoded node failed the reader's key-set test.
    if not isinstance(obj, dict):
        return f"derivation node must be an object, got {type(obj).__name__}"
    return "derivation node is missing %r" % next(key for key in _JSON_KEYS if key not in obj)


def derivation_from_json(text: str) -> Derivation:
    """Inverse of `derivation_to_json`.  Raises ValueError on schema violations."""
    # Preorder on an explicit stack, each premise paired with the conclusion
    # its parent's rule demands of it, or None.  A node passes one key-set
    # test and one lookup of its tag among the rule values; the checks after
    # them raise in the schema's order.  Each distinct string is resolved
    # once: to the wanted environment or type when the string is its
    # canonical text, since parsing that text gives the very same interned
    # object, and otherwise by parsing, so a bad string raises where it
    # first occurs.
    printer = Printer()
    env_text, type_text = printer.env_text, printer.type_text
    envs: dict[str, Env] = {}
    types: dict[str, Ty] = {}
    visits: list[tuple[Rule, Env, Ty, Ty, Optional[VarName], int]] = []
    stack: list[tuple[object, Optional[Goal]]] = [(json.loads(text), None)]
    while stack:
        obj, want = stack.pop()
        if type(obj) is not dict or not obj.keys() >= _JSON_KEY_SET:
            raise ValueError(_node_problem(obj))
        tag = obj["rule"]
        rule = _RULES.get(tag) if type(tag) is str else None
        if rule is None:
            raise ValueError(f"unknown rule tag: {tag!r}")
        witness = obj["witness"]
        if witness is not None and not (type(witness) is str and is_var_name(witness)):
            raise ValueError(f"witness must be a variable name or null, got {witness!r}")
        premises = obj["premises"]
        if type(premises) is not list:
            raise ValueError("premises must be a list")
        g_text, s_text, t_text = obj["env"], obj["lhs"], obj["rhs"]
        if type(g_text) is not str or type(s_text) is not str or type(t_text) is not str:
            key = next(key for key in ("env", "lhs", "rhs") if type(obj[key]) is not str)
            raise ValueError(f"{key} must be a string of surface syntax")
        g = envs.get(g_text)
        if g is None:
            g = envs[g_text] = want[0] if want is not None and env_text(want[0]) == g_text else parse_env(g_text)
        s = types.get(s_text)
        if s is None:
            s = types[s_text] = want[1] if want is not None and type_text(want[1]) == s_text else parse_type(s_text)
        t = types.get(t_text)
        if t is None:
            t = types[t_text] = want[2] if want is not None and type_text(want[2]) == t_text else parse_type(t_text)
        visits.append((rule, g, s, t, witness, len(premises)))
        if premises:
            goals = _premise_goals(_TO_EXPLICIT.get(rule, rule), g, s, t, witness)
            for i in range(len(premises) - 1, -1, -1):
                stack.append((premises[i], goals[i] if i < len(goals) else None))
    return _assemble(visits)
