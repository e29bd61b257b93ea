"""Recursive reference for the derivation JSON reader.

The straightforward definition: decode the document with `json.loads`, then
build the tree with one call per node, parsing every environment and type
string of the document (each distinct string once).  The package's reader
walks the decoded document on an explicit stack and accepts a premise's
conclusion without parsing when the string is the canonical text of the
conclusion its parent's rule demands; the differential tests in
`test_subtyper.py` require both to return the same tree of interned objects,
or to raise the same exception with the same message.  Only for shallow
documents: this reader recurses once per derivation level.
"""

from __future__ import annotations

import json

from fsub.parser import parse_env, parse_type
from fsub.subtyper import Derivation, Rule
from fsub.syntax import is_var_name

KEYS = ("rule", "env", "lhs", "rhs", "witness", "premises")


def from_obj(obj: object, envs: dict, types: dict, parse_env) -> Derivation:
    if not isinstance(obj, dict):
        raise ValueError(f"derivation node must be an object, got {type(obj).__name__}")
    for key in KEYS:
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
    if obj["env"] not in envs:
        envs[obj["env"]] = parse_env(obj["env"])
    for key in ("lhs", "rhs"):
        if obj[key] not in types:
            types[obj[key]] = parse_type(obj[key])
    env, lhs, rhs = envs[obj["env"]], types[obj["lhs"]], types[obj["rhs"]]
    return Derivation(rule, env, lhs, rhs, tuple(from_obj(p, envs, types, parse_env) for p in premises), witness)


def derivation_from_json(text: str) -> Derivation:
    return from_obj(json.loads(text), {}, {}, parse_env)
