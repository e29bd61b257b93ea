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
