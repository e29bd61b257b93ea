"""The four workloads: how each builds its inputs from the seed, what one
operation is, and how its outputs are checked.

Every call into fsub goes through `call(layer, fn, *args)` (see tracing.py),
in the order the command-line front end makes the same calls.  An operation
returns `(key, detail)`: `key` must be identical in every pass over the same
inputs, and `detail` keeps the rich result of the first pass for the checks,
which run after the timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

from tracing import direct

# Statuses of one operation after its checks.
OK, CRASH, WRONG = "ok", "crash", "wrong"


def import_fsub(src: str) -> SimpleNamespace:
    """Import fsub afresh from `src` and collect the functions the workloads call.

    Earlier imports are dropped from `sys.modules` first, so each set-up
    repetition pays for the whole import."""
    for name in [m for m in sys.modules if m == "fsub" or m.startswith("fsub.")]:
        del sys.modules[name]
    fsub = importlib.import_module("fsub")
    here = os.path.realpath(os.path.dirname(fsub.__file__))
    if here != os.path.realpath(os.path.join(src, "fsub")):
        raise ImportError(f"fsub was imported from {here}, not from {src}")
    subtyper = importlib.import_module("fsub.subtyper")
    parser = importlib.import_module("fsub.parser")
    api = SimpleNamespace(**{name: getattr(fsub, name) for name in fsub.__all__})
    api.scoping_problem = subtyper.scoping_problem
    api.iter_nodes = subtyper.iter_nodes
    api.check_name = parser.check_name
    return api


def node_count(api, d) -> int:
    return sum(1 for _ in api.iter_nodes(d))


def shuffled(api, items: list, seed: int) -> list:
    """Fisher-Yates shuffle driven by fsub's own SplitMix64."""
    rng = api.SplitMix64(seed)
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def crash(err: BaseException) -> tuple:
    return ("crash", type(err).__name__, str(err)[:200])


def is_crash(key) -> bool:
    return isinstance(key, tuple) and len(key) == 3 and key[0] == "crash"


@dataclass
class Item:
    label: str
    data: tuple
    probe: bool = False


@dataclass
class Workload:
    """One workload.  Subclasses define `build(call)`, which makes `items`
    from the seed; `run(item, state, call)`, one operation, which returns
    `(key, detail)`; and `check_one(item, key, detail)`, which checks a
    first-pass output."""

    api: SimpleNamespace
    seed: int
    items: list = field(default_factory=list)

    def new_pass(self):
        """Per-pass state shared by the operations of one pass."""
        return None

    def check(self, outputs: list) -> list[str]:
        """Status of each first-pass output: OK, CRASH or WRONG."""
        return [CRASH if is_crash(key) else self.check_one(item, key, detail)
                for item, (key, detail) in zip(self.items, outputs)]

    def check_run(self, outputs: list, workdir: str) -> list[str]:
        """Problems with the run as a whole; any makes every operation fail."""
        return []

    def counts(self, outputs: list) -> dict[str, float]:
        """Deterministic counts over the first pass (traced run only)."""
        return {}

    def traced_metrics(self, tracer, stats: dict) -> dict[str, float]:
        """Ratios that need the traced run's layer times."""
        return {}


# ---------------------------------------------------------------- check


CHECK_LINES = 4000
REFERENCE_SEED = 7332
REFERENCE_LINES = 200
GEN_ARGS = dict(max_env_len=6, max_ty_size=16, max_deriv_depth=4)
DERIV_ARGS = dict(max_env_len=6, max_ty_size=12, max_deriv_depth=6)


def check_corpus(api, seed: int, count: int, call) -> list[Item]:
    """Half `fsub gen --max-env 6 --max-size 16` lines, half conclusions of
    `gen_derivation` (depth 6, size 12, env 6), shuffled together."""
    half = count // 2
    items = []
    for s in api.child_seeds(seed, half):
        # The same calls as `fsub gen --seed SEED --count HALF`.
        g, lhs = call("gen.corpus", api.gen_refl_case, api.GenConfig(seed=s, **GEN_ARGS))
        rng = api.SplitMix64(s).split()
        rhs = call("gen.corpus", api.gen_closed_ty, g, api.GenConfig(seed=rng.next_u64(), **GEN_ARGS))
        items.append(Item("gen", (api.print_judgment(g, lhs, rhs),)))
    for s in api.child_seeds(seed ^ 0xDE41, count - half):
        d = call("gen.corpus", api.gen_derivation, api.GenConfig(seed=s, **DERIV_ARGS))
        items.append(Item("derivation", (api.print_judgment(d.env, d.lhs, d.rhs),)))
    return shuffled(api, items, seed ^ 0x5F1F)


def check_line(api, line: str, call) -> tuple:
    """One line of `fsub check FILE --derivation --json`: its output text and
    the decider's result."""
    g, lhs, rhs = call("parser.parse", api.parse_judgment, line)
    problem = call("judgments.scope", api.scoping_problem, g, lhs, rhs)
    if problem is not None:
        raise ValueError(problem)
    result = call("subtyper.decide", api.decide_sub, g, lhs, rhs, api.DEFAULT_FUEL)
    shown = call("parser.print", api.print_judgment, g, lhs, rhs)
    if isinstance(result, api.Yes):
        text = call("subtyper.to_json", api.derivation_to_json, result.derivation)
        return f"YES {shown}\n{text}\n", result
    if isinstance(result, api.No):
        stuck = call("parser.print", api.print_judgment, *result.trace[-1])
        return f"NO {shown}\n  stuck at: {stuck} ({result.reason or 'fails'})\n", result
    return f"UNKNOWN {shown}\n", result


def check_digests(api, outputs: list) -> dict[str, str]:
    """Digests of the verdict sequence and of the derivation JSON."""
    verdicts = hashlib.sha256()
    derivations = hashlib.sha256()
    for text, _ in outputs:
        head, _, rest = text.partition("\n")
        verdicts.update(head.split(" ", 1)[0].encode() + b"\n")
        if head.startswith("YES "):
            derivations.update(rest.encode())
    return {"verdicts": verdicts.hexdigest(), "derivation_json": derivations.hexdigest()}


def reference_digests(api) -> dict[str, str]:
    """Digests of the pinned reference corpus, which does not depend on --seed."""
    items = check_corpus(api, REFERENCE_SEED, REFERENCE_LINES, direct)
    return check_digests(api, [check_line(api, item.data[0], direct) for item in items])


class Check(Workload):
    """`fsub check FILE --derivation --json` over a generated corpus."""

    def build(self, call) -> None:
        self.items = check_corpus(self.api, self.seed, CHECK_LINES, call)

    def run(self, item, state, call):
        return check_line(self.api, item.data[0], call)

    def check_one(self, item, text, result) -> str:
        api = self.api
        if isinstance(result, api.Yes):
            d = result.derivation
            if not api.check_derivation(d) or d.concl != api.parse_judgment(item.data[0]):
                return WRONG
        elif item.label == "derivation":
            return WRONG  # conclusions of generated derivations all hold
        return OK

    def check_run(self, outputs, workdir):
        cli = importlib.import_module("fsub.cli")
        problems = []
        half = CHECK_LINES // 2
        gen_lines = [item.data[0] for item in self.items if item.label == "gen"]
        with contextlib.redirect_stdout(io.StringIO()) as cli_gen:
            cli.run(["gen", "--seed", str(self.seed), "--count", str(half),
                     "--max-env", "6", "--max-size", "16"])
        if sorted(cli_gen.getvalue().splitlines()) != sorted(gen_lines):
            problems.append("corpus lines differ from `fsub gen`")
        path = os.path.join(workdir, "check-corpus.txt")
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(item.data[0] + "\n" for item in self.items)
        with contextlib.redirect_stdout(io.StringIO()) as cli_check:
            cli.run(["check", path, "--derivation", "--json"])
        if cli_check.getvalue() != "".join(text for text, _ in outputs):
            problems.append("output differs from `fsub check FILE --derivation --json`")
        pinned = load_pinned()
        if reference_digests(self.api) != pinned["check_reference"]:
            problems.append("reference corpus digests differ from perfbench/pinned.json")
        return problems

    def counts(self, outputs):
        api = self.api
        nodes = 0
        for _, result in outputs:
            if isinstance(result, api.Yes):
                nodes += node_count(api, result.derivation)
            elif isinstance(result, api.No):
                nodes += len(result.trace)
        json_bytes = sum(len(text.partition("\n")[2]) - 1 for text, r in outputs if isinstance(r, api.Yes))
        return {
            "subtyper.decide.nodes": nodes,
            "subtyper.to_json.bytes": json_bytes,
            "parser.chars": sum(len(item.data[0]) for item in self.items),
        }


def load_pinned() -> dict:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json"), encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------- oracle


ORACLE_VARS = ["X0", "X1"]
ORACLE_SIZE, ORACLE_ENV = 3, 2  # `fsub oracle` defaults
ORACLE_FUEL, DECLARATIVE_DEPTH = 50, 8
ORACLE_JUDGMENTS, ORACLE_POSITIVES = 56464, 9858


def _listed(iterator_fn, *args):
    return list(iterator_fn(*args))


class Oracle(Workload):
    """`fsub oracle` at its default bounds, one shared `DeclarativeSearch` per
    pass and no warm-up.  The seed shuffles the order of the environments; the
    judgments over one environment keep their order."""

    def build(self, call) -> None:
        api = self.api
        judgments = call("gen.enumerate", _listed, api.enumerate_judgments,
                         ORACLE_VARS, ORACLE_SIZE, ORACLE_ENV)
        blocks: list[list] = []
        for j in judgments:
            if not blocks or blocks[-1][0][0] is not j[0]:
                blocks.append([])
            blocks[-1].append(j)
        self.items = [Item("judgment", j) for block in shuffled(api, blocks, self.seed) for j in block]

    def new_pass(self):
        return self.api.DeclarativeSearch()

    def run(self, item, search, call):
        api = self.api
        g, s, t = item.data
        algorithmic = call("subtyper.decide", api.decide_sub, g, s, t, ORACLE_FUEL)
        declarative = call("subtyper.declarative", api.decide_sub_declarative,
                           g, s, t, DECLARATIVE_DEPTH, search=search)
        return (isinstance(algorithmic, api.Yes), declarative), None

    def check_one(self, item, key, detail) -> str:
        algorithmic, declarative = key
        return OK if algorithmic == declarative else WRONG

    def check_run(self, outputs, workdir):
        positives = sum(1 for (_, declarative), _ in outputs if declarative)
        problems = []
        if len(outputs) != ORACLE_JUDGMENTS:
            problems.append(f"{len(outputs)} judgments, expected {ORACLE_JUDGMENTS}")
        if positives != ORACLE_POSITIVES:
            problems.append(f"{positives} positives, expected {ORACLE_POSITIVES}")
        return problems

    def counts(self, outputs):
        api = self.api
        nodes = 0
        for item in self.items:
            result = api.decide_sub(*item.data, ORACLE_FUEL)
            if isinstance(result, api.Yes):
                nodes += node_count(api, result.derivation)
            elif isinstance(result, api.No):
                nodes += len(result.trace)
        return {
            "subtyper.decide.nodes": nodes,
            "subtyper.declarative.positives": sum(1 for (_, d), _ in outputs if d),
        }


# ---------------------------------------------------------------- metatheory


META_MIX = (("trans", 800), ("narrow", 600), ("weaken", 300), ("permute", 300))
NARROW_PIVOT_CHAINS = 60  # one in ten, as in acceptance criterion 3


def _permutation(api, d, seed: int) -> tuple[int, ...]:
    # A seeded shuffle of the root environment that keeps it ok; the identity
    # if eight draws all break a dependency.
    decls = d.env.decls()
    for attempt in range(8):
        pi = tuple(shuffled(api, list(range(len(decls))), seed + attempt))
        if api.ok(api.Env.from_decls(decls[i] for i in pi)):
            return pi
    return tuple(range(len(decls)))


class Metatheory(Workload):
    """The `fsub trans` / `fsub narrow` path, plus weakening and permutation:
    derivations arrive as JSON and leave as JSON."""

    def build(self, call) -> None:
        api = self.api
        to_json = api.derivation_to_json
        items = []
        for k, (kind, count) in enumerate(META_MIX):
            for i, s in enumerate(api.child_seeds(self.seed ^ (0x3E7A << k), count)):
                if kind == "trans":
                    d1, d2 = call("gen.corpus", api.gen_derivation_pair, api.GenConfig(seed=s, max_deriv_depth=6))
                    data = (to_json(d1), to_json(d2))
                    expected = (d1.env, d1.lhs, d2.rhs)
                elif kind == "narrow":
                    split, p, d, d_pq = call("gen.corpus", api.gen_narrow_instance, api.GenConfig(seed=s),
                                             force_pivot_chain=i < NARROW_PIVOT_CHAINS)
                    data = (to_json(d), to_json(d_pq), split.pivot_var, api.print_type(p))
                    expected = (split.assemble(p), d.lhs, d.rhs)
                elif kind == "weaken":
                    d = call("gen.corpus", api.gen_derivation, api.GenConfig(seed=s))
                    delta = call("gen.corpus", api.gen_env_extension, d.env,
                                 api.GenConfig(seed=s ^ 0xD1, max_env_len=3))
                    data = (to_json(d), api.print_env(delta))
                    expected = (api.env_concat(d.env, delta), d.lhs, d.rhs)
                else:
                    d = call("gen.corpus", api.gen_derivation, api.GenConfig(seed=s))
                    pi = _permutation(api, d, s ^ 0xBEEF)
                    data = (to_json(d), pi)
                    decls = d.env.decls()
                    expected = (api.Env.from_decls(decls[j] for j in pi), d.lhs, d.rhs)
                items.append(Item(kind, data + (expected,)))
        self.items = shuffled(api, items, self.seed)

    def inputs(self, item, call):
        """The operation's derivation inputs, read from their JSON."""
        from_json = self.api.derivation_from_json
        if item.label in ("trans", "narrow"):
            return (call("subtyper.from_json", from_json, item.data[0]),
                    call("subtyper.from_json", from_json, item.data[1]))
        return (call("subtyper.from_json", from_json, item.data[0]),)

    def run(self, item, state, call):
        api = self.api
        derivations = self.inputs(item, call)
        if item.label == "trans":
            out = call("metatheory.trans", api.derive_trans, *derivations)
        elif item.label == "narrow":
            d, evidence = derivations
            pivot = api.check_name(item.data[2])
            p = call("parser.parse", api.parse_type, item.data[3])
            out = call("metatheory.narrow", api.derive_narrow, api.split_env(d.env, pivot), p, d, evidence)
        elif item.label == "weaken":
            delta = call("parser.parse", api.parse_env, item.data[1])
            out = call("metatheory.weaken", api.derive_weaken, derivations[0], delta)
        else:
            out = call("metatheory.permute", api.derive_permute, derivations[0], item.data[1])
        return call("subtyper.to_json", api.derivation_to_json, out), out

    def check_one(self, item, text, out) -> str:
        api = self.api
        expected = item.data[-1]
        if not api.check_derivation(out) or out.concl != expected:
            return WRONG
        return OK if isinstance(api.decide_sub(*expected), api.Yes) else WRONG

    def traced_metrics(self, tracer, stats):
        # Time the checker on each transformer's own inputs, outside the timed
        # section, and compare it with the transformers' time per pass.
        for item in self.items:
            derivations = self.inputs(item, direct)
            span = tracer.begin()
            start = perf_counter()
            for d in derivations:
                tracer.call("subtyper.check", self.api.check_derivation, d)
            tracer.end(span, "validate:" + item.label, start, perf_counter())
        validation = sum(end - start for name, start, end, parent in tracer.spans
                         if parent >= 0 and tracer.spans[parent][0].startswith("validate:"))
        transformers = sum(stats[f"metatheory.{kind}"]["busy_s"] for kind, _ in META_MIX)
        return {"metatheory.validation_share": validation / transformers}

    def counts(self, outputs):
        api = self.api
        return {
            "metatheory.nodes_out": sum(node_count(api, out) for _, out in outputs if out is not None),
            "subtyper.to_json.bytes": sum(len(text) for text, out in outputs if out is not None),
            "parser.chars": sum(len(item.data[3 if item.label == "narrow" else 1])
                                for item in self.items if item.label in ("narrow", "weaken")),
        }


# ---------------------------------------------------------------- deep


DEEP_SIZES = (8, 16, 32, 64)
PIERCE = ("X0 <: All X1 <: Top . All Y <: (All X2 <: X1 . All Z <: X2 . Z) . Y"
          " |- X0 <: All X1 <: X0 . All Y <: X1 . Y")
PROBE_LENGTH = 2000


def arrow_line(n: int) -> str:
    """X <: Top |- A_n <: A_n with A_0 = X and A_k = A_(k-1) -> X."""
    t = "X"
    for _ in range(n):
        t = f"({t}) -> X"
    return f"X <: Top |- {t} <: {t}"


def forall_line(n: int) -> str:
    """n nested quantifiers, each bounded by the one outside it."""
    binders = ["All Y0 <: Top ."] + [f"All Y{i} <: Y{i - 1} ." for i in range(1, n)]
    t = " ".join(binders) + f" Y{n - 1}"
    return f"X <: Top |- {t} <: {t}"


def chain_line(n: int) -> str:
    """X0 <: Top, ..., Xn <: X(n-1) |- Xn <: X0."""
    env = ", ".join(["X0 <: Top"] + [f"X{i} <: X{i - 1}" for i in range(1, n + 1)])
    return f"{env} |- X{n} <: X0"


# Derivation nodes each series item must have.
CLOSED_FORM = {"arrow": lambda n: 2 * n + 1, "forall": lambda n: 2 * n + 1, "chain": lambda n: n + 1}


class Deep(Workload):
    """Scaling series through every layer, then three crash probes per pass.
    The inputs do not depend on the seed: shuffling them only moved which
    items ran after the largest ones, and so the spread of the results."""

    def build(self, call) -> None:
        api = self.api
        lines = {"arrow": arrow_line, "forall": forall_line, "chain": chain_line}
        self.items = [Item(f"{series}/{n}", (series, n, make(n))) for series, make in lines.items() for n in DEEP_SIZES]
        self.delta = api.Env.from_decls([("W", api.FreeVar("X"))])
        pierce = call("parser.parse", api.parse_judgment, PIERCE)
        arrows = " -> ".join(["X"] * (PROBE_LENGTH + 1))
        chain = api.Env.from_decls([("X0", api.Top())] + [(f"X{i}", api.FreeVar(f"X{i - 1}"))
                                                         for i in range(1, PROBE_LENGTH + 1)])
        self.items += [
            Item("pierce", ("subtyper.decide", api.decide_sub, pierce), probe=True),
            Item("parse_arrows", ("parser.parse", api.parse_type, (arrows,)), probe=True),
            Item("chain_decide", ("subtyper.decide", api.decide_sub,
                                  (chain, api.FreeVar(f"X{PROBE_LENGTH}"), api.FreeVar("X0"))), probe=True),
        ]

    def run(self, item, state, call):
        api = self.api
        if item.probe:
            layer, fn, args = item.data
            result = call(layer, fn, *args)
            return type(result).__name__, result
        series, n, line = item.data
        g, s, t = call("parser.parse", api.parse_judgment, line)
        result = call("subtyper.decide", api.decide_sub, g, s, t, api.DEFAULT_FUEL)
        if not isinstance(result, api.Yes):
            return (type(result).__name__,), None
        d = result.derivation
        valid = call("subtyper.check", api.check_derivation, d)
        text = call("subtyper.to_json", api.derivation_to_json, d)
        back = call("subtyper.from_json", api.derivation_from_json, text)
        weakened = None
        if series == "forall":
            refl = call("metatheory.refl", api.derive_refl, g, s)
            weakened = call("metatheory.weaken", api.derive_weaken, refl, self.delta)
        return ("Yes", valid, text), (d, back, weakened, (g, s, t))

    def check_one(self, item, key, detail) -> str:
        api = self.api
        if item.probe:
            return self.check_probe(item, detail)
        if key[0] != "Yes":
            return WRONG
        series, n, _ = item.data
        d, back, weakened, (g, s, t) = detail
        if not key[1] or back != d or d.concl != (g, s, t) or node_count(api, d) != CLOSED_FORM[series](n):
            return WRONG
        if weakened is not None:
            if not api.check_derivation(weakened) or weakened.concl != (api.env_concat(g, self.delta), s, s):
                return WRONG
        return OK

    def check_probe(self, item, result) -> str:
        api = self.api
        if item.label == "pierce":
            return OK if isinstance(result, api.Unknown) else WRONG
        if item.label == "parse_arrows":
            arrows = 0
            while isinstance(result, api.Arrow) and result.dom == api.FreeVar("X"):
                arrows += 1
                result = result.cod
            return OK if arrows == PROBE_LENGTH and result == api.FreeVar("X") else WRONG
        if not isinstance(result, api.Yes):
            return WRONG
        return OK if node_count(api, result.derivation) == PROBE_LENGTH + 1 else WRONG

    def counts(self, outputs):
        api = self.api
        nodes = json_bytes = chars = 0
        for item, (key, detail) in zip(self.items, outputs):
            if item.probe or detail is None:
                continue
            nodes += node_count(api, detail[0])
            json_bytes += len(key[2])
            chars += len(item.data[2])
        return {"subtyper.decide.nodes": nodes, "subtyper.to_json.bytes": json_bytes, "parser.chars": chars}

    def traced_metrics(self, tracer, stats):
        return {"subtyper.check_per_decide": stats["subtyper.check"]["busy_s"] / stats["subtyper.decide"]["busy_s"]}


WORKLOADS = {"check": Check, "oracle": Oracle, "metatheory": Metatheory, "deep": Deep}
