"""Cold scaling figures on deep shapes: `PYTHONPATH=src python tests/scaling.py`.

Each row of `TABLE` gives a shape, its sizes, the input for a size n, a layer,
the operation on that input and the class in n its peak is expected to have.
Each cell prints one line, `<shape> <layer> n=<n> <seconds> s <peak> MB
<class> <outcome>[ count=<count>]`: the best of `K` timed rounds, the
`tracemalloc` peak of one more round, the row's expected class, `ok` or the
type of the exception raised, and the count an operation that counts
returns.  The class is reported, not checked.  Types and
derivations are interned and keep their texts, opened bodies and validity, so
every round makes its input afresh once the last round's is freed.  The
`arrow`, `forall` and `chain` shapes are the `deep` benchmark's series lines.
"""

import contextlib, functools, gc, io, math, sys, time, tracemalloc
from collections import deque
from pathlib import Path
from unittest import mock

from fsub import judgments, parser
from fsub.cli import run
from fsub.gen import GenConfig, child_seeds, gen_derivation_pair, gen_narrow_instance
from fsub.metatheory import derive_narrow, derive_refl, derive_trans, derive_weaken, split_env
from fsub.parser import parse_env, parse_judgment, parse_type, print_env, print_judgment, print_type
from fsub.subtyper import Derivation, No, Rule, Yes, check_derivation, decide_sub, diagnose_derivation, scoping_problem
from fsub.subtyper import derivation_from_json, derivation_to_json, derivation_to_text
from fsub.syntax import FreeVar, Top

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import arrow_line, chain_line, forall_line  # noqa: E402

# The classes of a peak in n: linear; quadratic because the output is (a
# deep derivation writes n conclusions of size up to n, or the chain's long
# environment at each of its n nodes); or quadratic by an open defect: the
# texts the printer keeps on each node (ROADMAP item 12) or the free-name set
# each pair node keeps (ROADMAP item 15).
LINEAR, FORMAT, TEXTS, NAMES = "linear", "quadratic:format", "quadratic:texts", "quadratic:names"
MEMORY_CLASSES = (LINEAR, FORMAT, TEXTS, NAMES)

K = 3
FUEL = 100_000  # more than any judgment below needs: the 10,000-link chain takes 10,001


def measure(make, operation, n: int) -> tuple[float, float, str, int | None]:
    """Best-of-`K` seconds, traced peak MB, outcome and count of `operation(make(n))`."""
    best, peak, outcome, count = math.inf, 0.0, "ok", None
    for traced in [False] * K + [True]:
        gc.collect()  # the last round's input and output, then this input's waste
        given = make(n)
        gc.collect()
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = operation(given)
        except Exception as err:  # the outcome column reports it
            result, outcome = None, type(err).__name__
        seconds = time.perf_counter() - start
        if traced:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        else:
            best = min(best, seconds)
        count = result if type(result) is int else None
        del given, result
    return best, peak, outcome, count


def must(value):
    """`value`, which a right answer makes truthy."""
    if not value:
        raise AssertionError(value)
    return value


def derive(g, s, t) -> Derivation:
    """The decider's derivation of `g |- s <: t`, which must hold."""
    result = decide_sub(g, s, t, FUEL)
    return must(isinstance(result, Yes) and result.derivation)


def nest(body):
    """The text `All Y0 <: Top . ... All Y<n-1> <: Top . body(n)`."""
    return lambda n: "".join(f"All Y{i} <: Top . " for i in range(n)) + body(n)


CLOSED, FAR = nest(lambda n: "Top"), nest(lambda n: "Y0")
CURRIED = nest(lambda n: " -> ".join(f"Y{i}" for i in range(n)))
SERIES = (("arrow", arrow_line), ("forall", forall_line), ("chain", chain_line))


def typed(shape):
    return lambda n: parse_type(shape(n))


def derived(shape):
    """The derivation of `|- T <: T` for the type text T = `shape(n)`."""
    return judged(lambda n: f"|- {shape(n)} <: {shape(n)}")


def judged(line):
    """The derivation of the judgment text `line(n)`."""
    return lambda n: derive(*parse_judgment(line(n)))


def written(derivation):
    """The derivation's JSON, the derivation itself freed."""
    return lambda n: derivation_to_json(derivation(n))


def broken(n: int) -> Derivation:
    """The closed nest's derivation with its deepest leaf retagged `var`."""
    spine = [derived(CLOSED)(n)]
    while spine[-1].premises:
        spine.append(spine[-1].premises[1])
    leaf = spine.pop()
    bad = Derivation(Rule.VAR, leaf.env, leaf.lhs, leaf.rhs)
    for node in reversed(spine):
        bad = Derivation(node.rule, node.env, node.lhs, node.rhs, (node.premises[0], bad), node.witness)
    return bad


def chain_env(n: int):
    """The environment `X0 <: Top, ..., Xn <: X(n-1)` of the n-link variable chain."""
    return parse_env(chain_line(n).partition(" |- ")[0])


def chain_pair(n: int) -> tuple[Derivation, Derivation]:
    """`Xn <: X0` down the n-link variable chain, and `X0 <: Top`."""
    d = judged(chain_line)(n)
    return d, derive(d.env, d.rhs, Top())


def chain_narrowing(n: int) -> tuple:
    """`derive_narrow`'s arguments: `Y <: X0` over the n-link variable chain, Y's bound narrowed to `Xn` by the chain."""
    chain = judged(chain_line)(n)
    g = chain.env.extend("Y", FreeVar("X0"))
    return split_env(g, "Y"), FreeVar(f"X{n}"), derive(g, FreeVar("Y"), FreeVar("X0")), chain


def pipeline(line: str) -> Derivation:
    """The `deep` benchmark's forall operation: parse, decide, check, JSON both ways, refl, weaken."""
    g, s, t = parse_judgment(line)
    d = derive(g, s, t)
    must(check_derivation(d) and derivation_from_json(derivation_to_json(d)) is d)
    return derive_weaken(derive_refl(g, s), parse_env("W <: X"))


@functools.cache
def corpus(n: int) -> tuple[str, ...]:
    """`fsub gen --seed 1 --count n --max-env 6 --max-size 16`, made once: text keeps no node alive."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        run(["gen", "--seed", "1", "--count", str(n), "--max-env", "6", "--max-size", "16"])
    return tuple(out.getvalue().splitlines())


def check_round(lines) -> None:
    """The public calls `fsub check` makes per line, keeping nothing."""
    for text in lines:
        g, lhs, rhs = parse_judgment(text)
        must(scoping_problem(g, lhs, rhs) is None)
        result = decide_sub(g, lhs, rhs)
        print_judgment(g, lhs, rhs)
        if isinstance(result, Yes):
            derivation_to_json(result.derivation)
        elif isinstance(result, No):
            print_judgment(*result.trace[-1])


def scope_moves(lines) -> int:
    """Moves of the one scope table between environments in `check_round`."""
    moves, move = [], judgments._Scope.move
    with mock.patch.object(judgments._Scope, "move", lambda table, g: moves.append(1) or move(table, g)):
        check_round(lines)
    return len(moves)


# (shape, sizes, input for size n, layer, operation on it, class of its
# peak); `deque(..., 0)` keeps no output.
TABLE = [
    *((shape, (16, 32, 64), judged(line), "to_json", derivation_to_json, FORMAT) for shape, line in SERIES[:2]),
    # Every node of the chain's derivation shares one long environment, so
    # the output is quadratic in n: the writer quotes that environment once.
    ("chain", (250, 500, 1000), judged(chain_line), "to_json", derivation_to_json, FORMAT),
    *((shape, (16, 32, 64), written(judged(line)), "from_json", derivation_from_json, FORMAT) for shape, line in SERIES),
    ("forall", (64, 128, 256), forall_line, "pipeline", pipeline, FORMAT),
    ("chain", (200, 400, 600, 10_000), chain_pair, "trans", lambda pair: derive_trans(*pair), LINEAR),
    ("chain", (200, 400, 600, 10_000), chain_narrowing, "narrow", lambda case: derive_narrow(*case), LINEAR),
    ("closed-nest", (500, 1000, 2000), typed(CLOSED), "decide", lambda t: derive(judgments.EMPTY_ENV, t, t), LINEAR),
    ("closed-nest", (500, 1000, 2000), derived(CLOSED), "check", lambda d: must(check_derivation(d)), LINEAR),
    ("closed-nest", (100, 200, 400, 500, 800, 1000, 2000), derived(CLOSED), "weaken",
     lambda d: derive_weaken(d, parse_env("W <: Top")), LINEAR),
    ("closed-nest", (100, 200, 400, 800), derived(CLOSED), "trans", lambda d: derive_trans(d, d), LINEAR),
    ("closed-nest", (1000, 2000, 4000), typed(CLOSED), "print", print_type, TEXTS),
    ("closed-nest", (100, 200, 400), derived(CLOSED), "to_json", derivation_to_json, FORMAT),
    ("closed-nest", (100, 200, 400, 1000), written(derived(CLOSED)), "from_json", derivation_from_json, FORMAT),
    ("closed-nest", (100, 200, 400), derived(CLOSED), "to_text", derivation_to_text, FORMAT),
    ("closed-nest", (1000, 2000, 4000), broken, "diagnose",
     lambda bad: must(diagnose_derivation(bad).endswith("to itself")), LINEAR),
    ("env-chain", (1000, 2000, 4000, 8000), chain_env, "print", print_env, LINEAR),
    ("far-nest", (500, 1000, 2000), FAR, "parse", parse_type, LINEAR),
    ("far-nest", (500, 1000, 2000, 4000), typed(FAR), "print", print_type, TEXTS),
    ("far-nest", (500, 1000, 2000), typed(FAR), "decide", lambda t: derive(judgments.EMPTY_ENV, t, t), LINEAR),
    ("far-nest", (500, 1000, 2000), derived(FAR), "check", lambda d: must(check_derivation(d)), LINEAR),
    ("curried-nest", (100, 250), typed(CURRIED), "decide", lambda t: derive(judgments.EMPTY_ENV, t, t), NAMES),
    ("curried-nest", (100, 250), typed(CURRIED), "print", print_type, TEXTS),
    ("name-chain", (500, 1000, 2000), lambda n: " -> ".join(f"X{i}" for i in range(n)), "parse", parse_type, NAMES),
    ("gen-corpus", (2000,), corpus, "check", check_round, LINEAR),
    ("gen-corpus", (2000,), corpus, "parse", lambda lines: deque(map(parse_judgment, lines), 0), LINEAR),
    ("gen-corpus", (2000,), corpus, "lex", lambda lines: deque(map(parser._split, lines), 0), LINEAR),
    ("gen-corpus", (2000,), corpus, "scope", scope_moves, LINEAR),
    ("criterion-2", (1000,), lambda n: [gen_derivation_pair(GenConfig(seed=s, max_deriv_depth=6)) for s in child_seeds(2002, n)],
     "trans", lambda cases: deque((derive_trans(*case) for case in cases), 0), LINEAR),
    ("criterion-3", (50,), lambda n: [gen_narrow_instance(GenConfig(seed=s), force_pivot_chain=True) for s in child_seeds(3003, n)],
     "narrow", lambda cases: deque((derive_narrow(*case) for case in cases), 0), LINEAR),
]


def line(shape: str, layer: str, n: int, make, operation, memory: str) -> str:
    """One cell's figures as a printed line."""
    best, peak, outcome, count = measure(make, operation, n)
    tail = "" if count is None else f" count={count}"
    return f"{shape:<12} {layer:<9} n={n:<6} {best:10.6f} s {peak:8.1f} MB {memory:<16} {outcome}{tail}"


if __name__ == "__main__":
    for shape, sizes, make, layer, operation, memory in TABLE:
        for n in sizes:
            print(line(shape, layer, n, make, operation, memory), flush=True)
