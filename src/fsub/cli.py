"""Command-line front end.

Exit codes: 0 every judgment holds, 1 at least one fails, 2 at least one is
undecided within fuel (failures take precedence over undecided), 3 parse or
scoping error, 4 a derivation transformer was applied outside its contract or
the kernel failed internally (including running out of interpreter stack in
the one layer that still recurses, JSON reading).  Every other layer runs on
explicit stacks, so depth is limited by memory and fuel, not by the stack.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Callable, Optional

from .errors import KernelError, PreconditionError
from .gen import (
    GenConfig,
    SplitMix64,
    child_seeds,
    enumerate_judgments,
    gen_closed_ty,
    gen_derivation_pair,
    gen_refl_case,
)
from .metatheory import derive_narrow, derive_refl, derive_trans, split_env
from .parser import (
    ParseError,
    check_name,
    parse_env,
    parse_judgment,
    parse_type,
    print_judgment,
)
from .subtyper import (
    DEFAULT_FUEL,
    DeclarativeSearch,
    No,
    SubResult,
    Unknown,
    Yes,
    _decide,
    decide_sub_declarative,
    derivation_from_json,
    derivation_to_json,
    derivation_to_text,
    scoping_problem,
)

DECLARATIVE_DEPTH = 8


def _content_lines(path: str) -> list[tuple[int, str]]:
    """Numbered lines as read, with blank and `#` comment lines dropped.  A
    line keeps its indentation, so that a parse error's position is its
    position in the line; the lexer skips the blanks."""
    with open(path, encoding="utf-8-sig") as handle:
        lines = handle.read().splitlines()
    out = []
    for i, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((i, line))
    return out


def _cmd_check(args: argparse.Namespace) -> int:
    any_no = False
    any_unknown = False
    for lineno, line in _content_lines(args.file):
        try:
            g, lhs, rhs = parse_judgment(line)
        except ParseError as err:
            print(f"{args.file}:{lineno}: {err}", file=sys.stderr)
            return 3
        problem = scoping_problem(g, lhs, rhs)
        if problem is not None:
            print(f"{args.file}:{lineno}: {problem}", file=sys.stderr)
            return 3
        # Scoped above, so the decider need not scope the line again.
        result: SubResult = _decide(g, lhs, rhs, args.fuel)
        shown = print_judgment(g, lhs, rhs)
        if isinstance(result, Yes):
            print(f"YES {shown}")
            if args.derivation:
                write = derivation_to_json if args.json else derivation_to_text
                print(write(result.derivation))
        elif isinstance(result, No):
            any_no = True
            print(f"NO {shown}")
            if args.derivation:
                reason = result.reason or "fails"
                print(f"  stuck at: {print_judgment(*result.trace[-1])} ({reason})")
        else:
            assert isinstance(result, Unknown)
            any_unknown = True
            print(f"UNKNOWN {shown}")
    if any_no:
        return 1
    if any_unknown:
        return 2
    return 0


def _cmd_refl(args: argparse.Namespace) -> int:
    for lineno, line in _content_lines(args.file):
        try:
            left, sep, right = line.partition("|-")
            if not sep:
                raise ParseError("expected ENV |- TYPE", 0)
            g = parse_env(left)
            # Blanks in place of `ENV |-`, so that an error's position is its
            # position in the line, as for `check`.
            t = parse_type(" " * (len(left) + len(sep)) + right)
        except ParseError as err:
            print(f"{args.file}:{lineno}: {err}", file=sys.stderr)
            return 3
        try:
            d = derive_refl(g, t)
        except PreconditionError:
            print(f"{args.file}:{lineno}: judgment is not well-scoped", file=sys.stderr)
            return 3
        print(derivation_to_json(d) if args.json else derivation_to_text(d))
    return 0


def _load_derivation(path: str) -> object:
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    try:
        return derivation_from_json(text)
    except (ParseError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None


def _parse_option(option: str, parse: Callable[[str], object], text: str) -> object:
    # The value of a command-line option, with the option named in an error.
    try:
        return parse(text)
    except ParseError as err:
        raise ValueError(f"{option}: {err}") from None


def _cmd_trans(args: argparse.Namespace) -> int:
    d1 = _load_derivation(args.left)
    d2 = _load_derivation(args.right)
    d = derive_trans(d1, d2)
    print(derivation_to_json(d))
    return 0


def _cmd_narrow(args: argparse.Namespace) -> int:
    d = _load_derivation(args.file)
    evidence = _load_derivation(args.evidence)
    pivot = _parse_option("--pivot", check_name, args.pivot)
    p = _parse_option("--new-bound", parse_type, args.new_bound)
    split = split_env(d.env, pivot)
    out = derive_narrow(split, p, d, evidence)
    print(derivation_to_json(out))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    for seed in child_seeds(args.seed, args.count):
        sample_cfg = GenConfig(
            seed=seed,
            max_env_len=args.max_env,
            max_ty_size=args.max_size,
            max_deriv_depth=args.max_depth,
        )
        if args.derivations:
            left, right = gen_derivation_pair(sample_cfg)
            print(derivation_to_json(left))
            print(derivation_to_json(right))
        else:
            g, s = gen_refl_case(sample_cfg)
            rng = SplitMix64(seed).split()
            t = gen_closed_ty(g, replace(sample_cfg, seed=rng.next_u64()))
            print(print_judgment(g, s, t))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    names = [f"X{i}" for i in range(args.vars)]
    search = DeclarativeSearch()
    checked = 0
    disagreements = 0
    # Every enumerated judgment is well scoped, so the decider need not scope
    # it; the declarative search still does.
    for g, s, t in enumerate_judgments(names, args.max_size, args.max_env):
        algorithmic = isinstance(_decide(g, s, t, args.fuel), Yes)
        declarative = decide_sub_declarative(g, s, t, DECLARATIVE_DEPTH, search=search)
        checked += 1
        if algorithmic != declarative:
            disagreements += 1
            print(
                f"DISAGREE {print_judgment(g, s, t)}: "
                f"algorithmic={algorithmic} declarative={declarative}"
            )
    print(f"{checked} judgments, {disagreements} disagreements")
    return 0 if disagreements == 0 else 1


def _at_least(low: int) -> Callable[[str], int]:
    # An argparse `type` for integers of at least `low`; argparse reports any
    # other value as a malformed invocation.
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fsub", description="Subtyping kernel for pure F-sub types.")
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide judgments from a file, one per line")
    check.add_argument("file")
    check.add_argument("--fuel", type=_at_least(0), default=DEFAULT_FUEL)
    check.add_argument("--derivation", action="store_true", help="print each derivation")
    check.add_argument("--json", action="store_true", help="derivations as JSON")
    check.set_defaults(fn=_cmd_check)

    refl = sub.add_parser("refl", help="derive ENV |- T <: T for each line `ENV |- T`")
    refl.add_argument("file")
    refl.add_argument("--json", action="store_true")
    refl.set_defaults(fn=_cmd_refl)

    trans = sub.add_parser("trans", help="compose two serialized derivations sharing a middle type")
    trans.add_argument("left")
    trans.add_argument("right")
    trans.set_defaults(fn=_cmd_trans)

    narrow = sub.add_parser("narrow", help="replace a pivot bound in a serialized derivation")
    narrow.add_argument("file")
    narrow.add_argument("--pivot", required=True, help="pivot variable name")
    narrow.add_argument("--new-bound", required=True, help="replacement bound (surface syntax)")
    narrow.add_argument("--evidence", required=True, help="serialized derivation new <: old over the prefix")
    narrow.set_defaults(fn=_cmd_narrow)

    gen = sub.add_parser("gen", help="emit a reproducible corpus")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=_at_least(0), required=True)
    gen.add_argument("--max-env", type=_at_least(0), default=4)
    gen.add_argument("--max-size", type=_at_least(1), default=8)
    gen.add_argument("--max-depth", type=_at_least(1), default=4)
    gen.add_argument("--derivations", action="store_true", help="serialized derivation pairs instead of judgments")
    gen.set_defaults(fn=_cmd_gen)

    oracle = sub.add_parser("oracle", help="compare the decider against declarative search on all small judgments")
    oracle.add_argument("--max-size", type=_at_least(0), default=3)
    oracle.add_argument("--max-env", type=_at_least(0), default=2)
    oracle.add_argument("--vars", type=_at_least(0), default=2)
    oracle.add_argument("--fuel", type=_at_least(0), default=50)
    oracle.set_defaults(fn=_cmd_oracle)

    return top


def run(argv: Optional[list[str]] = None) -> int:
    """Parse arguments and run one command, returning the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors, which this interface reserves for
        # undecided judgments; a malformed invocation is a parse error.
        return 0 if exit_.code in (0, None) else 3
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (KernelError, RecursionError) as err:
        # JSON reading, the one layer that still recurses, can run out of
        # interpreter stack on deep input; that is a kernel limit, not a
        # verdict.
        print(f"internal error: {err}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
