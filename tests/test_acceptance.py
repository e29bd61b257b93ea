"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Corpora are generated once per module and shared: the derivations
produced for criteria 1-3 are exactly the ones swept by criterion 4.
"""

import time

import pytest

from fsub.cli import run
from fsub.errors import PreconditionError
from fsub.gen import (
    GenConfig,
    SplitMix64,
    child_seeds,
    enumerate_judgments,
    gen_derivation,
    gen_derivation_pair,
    gen_env,
    gen_env_extension,
    gen_narrow_instance,
    gen_refl_case,
)
from fsub.judgments import Env, lookup, ok
from fsub.metatheory import (
    derivation_env_facts,
    derive_narrow,
    derive_permute,
    derive_refl,
    derive_trans,
    derive_weaken,
)
from fsub.parser import parse_env
from fsub.subtyper import (
    DeclarativeSearch,
    Rule,
    Yes,
    check_derivation,
    check_derivation_implicit,
    decide_sub,
    decide_sub_declarative,
    derivation_to_json,
    iter_nodes,
    to_explicit,
    to_implicit,
)
from fsub.syntax import close_ty, fresh, fv, open_ty, size
import reference_walks as reference

REFL_SEED = 1001
TRANS_SEED = 2002
NARROW_SEED = 3003
WEAKEN_SEED = 4004
PERMUTE_SEED = 5005
ADEQUACY_SEED = 6006
BINDER_SEED = 7007


def report(number: int, label: str, detail: str) -> None:
    print(f"criterion {number} ({label}): PASS - {detail}")


@pytest.fixture(scope="module")
def refl_corpus():
    cfg_template = dict(max_ty_size=12, max_env_len=6)
    outputs = []
    start = time.monotonic()
    for seed in child_seeds(REFL_SEED, 1000):
        cfg = GenConfig(seed=seed, **cfg_template)
        g, t = gen_refl_case(cfg)
        d = derive_refl(g, t)
        assert check_derivation(d)
        assert d.concl == (g, t, t)
        assert isinstance(decide_sub(g, t, t, fuel=1000), Yes)
        outputs.append(d)
    return outputs, time.monotonic() - start


@pytest.fixture(scope="module")
def trans_corpus():
    triples = []
    start = time.monotonic()
    for seed in child_seeds(TRANS_SEED, 1000):
        d1, d2 = gen_derivation_pair(GenConfig(seed=seed, max_deriv_depth=6))
        out = derive_trans(d1, d2)
        assert check_derivation(out)
        assert out.concl == (d1.env, d1.lhs, d2.rhs)
        g, lhs, rhs = out.concl
        assert isinstance(decide_sub(g, lhs, rhs, fuel=10000), Yes)
        triples.append((d1, d2, out))
    return triples, time.monotonic() - start


@pytest.fixture(scope="module")
def narrow_corpus():
    instances = []
    start = time.monotonic()
    pivot_chain_target = 50
    seeds = child_seeds(NARROW_SEED, 500)
    for i, seed in enumerate(seeds):
        force = i < pivot_chain_target
        split, p, d, d_pq = gen_narrow_instance(GenConfig(seed=seed), force_pivot_chain=force)
        out = derive_narrow(split, p, d, d_pq)
        assert check_derivation(out)
        assert lookup(out.env, split.pivot_var) == p
        assert (out.lhs, out.rhs) == (d.lhs, d.rhs)
        if force:
            assert d.rule == Rule.TRS and d.lhs.name == split.pivot_var
        instances.append((d, d_pq, out))
    return instances, time.monotonic() - start


def test_criterion_01_reflexivity(refl_corpus):
    outputs, elapsed = refl_corpus
    assert len(outputs) == 1000
    assert elapsed < 10.0
    report(1, "reflexivity", f"1000 derivations valid and confirmed in {elapsed:.1f}s")


def test_criterion_02_transitivity(trans_corpus):
    triples, elapsed = trans_corpus
    assert len(triples) == 1000
    assert elapsed < 30.0
    report(2, "transitivity", f"1000 compositions valid and confirmed in {elapsed:.1f}s")


def test_criterion_03_narrowing(narrow_corpus):
    instances, elapsed = narrow_corpus
    assert len(instances) == 500
    chains = sum(1 for d, _, _ in instances if d.rule == Rule.TRS)
    assert chains >= 50
    assert elapsed < 30.0
    report(3, "narrowing", f"500 instances ({chains} pivot chains) valid in {elapsed:.1f}s")


def test_criterion_04_env_facts(refl_corpus, trans_corpus, narrow_corpus):
    everything = list(refl_corpus[0])
    for d1, d2, out in trans_corpus[0]:
        everything.extend((d1, d2, out))
    for d, d_pq, out in narrow_corpus[0]:
        everything.extend((d, d_pq, out))
    for d in everything:
        ok_map, closed_map = derivation_env_facts(d)
        assert all(ok_map.values())
        assert all(closed_map.values())
    report(4, "env facts", f"ok and closed hold at every node of {len(everything)} derivations")


def test_criterion_05_weaken_and_permute():
    weakened = 0
    for seed in child_seeds(WEAKEN_SEED, 500):
        d = gen_derivation(GenConfig(seed=seed))
        delta = gen_env_extension(d.env, GenConfig(seed=seed ^ 0xD1, max_env_len=3))
        out = derive_weaken(d, delta)
        assert check_derivation(out)
        assert out.env.bindings == delta.bindings + d.env.bindings
        weakened += 1

    permuted = 0
    rejected = 0
    for seed in child_seeds(PERMUTE_SEED, 500):
        d = gen_derivation(GenConfig(seed=seed))
        decls = d.env.decls()
        rng = SplitMix64(seed ^ 0xBEEF)
        pi = list(range(len(decls)))
        for i in range(len(pi) - 1, 0, -1):
            j = rng.below(i + 1)
            pi[i], pi[j] = pi[j], pi[i]
        pi = tuple(pi)
        shuffled = Env.from_decls([decls[i] for i in pi])
        if ok(shuffled):
            out = derive_permute(d, pi)
            assert check_derivation(out)
            permuted += 1
        else:
            with pytest.raises(PreconditionError):
                derive_permute(d, pi)
            rejected += 1
    assert permuted + rejected == 500
    assert rejected > 0
    report(
        5,
        "weaken and permute",
        f"{weakened} weakenings, {permuted} permutations valid, {rejected} ok-violations rejected",
    )


def test_criterion_06_adequacy():
    for seed in child_seeds(ADEQUACY_SEED, 500):
        d = gen_derivation(GenConfig(seed=seed))
        implicit = to_implicit(d)
        assert check_derivation_implicit(implicit)
        back = to_explicit(implicit)
        assert check_derivation(back)
        assert back.concl == d.concl
    report(6, "adequacy", "500 explicit derivations survive the implicit round trip")


def test_criterion_07_oracle_equivalence():
    start = time.monotonic()
    search = DeclarativeSearch()
    checked = 0
    disagreements = 0
    for g, s, t in enumerate_judgments(["X0", "X1"], 3, 2):
        algorithmic = isinstance(decide_sub(g, s, t, fuel=50), Yes)
        declarative = decide_sub_declarative(g, s, t, 8, search=search)
        checked += 1
        if algorithmic != declarative:
            disagreements += 1
    elapsed = time.monotonic() - start
    assert checked == 56464
    assert disagreements == 0
    assert elapsed < 60.0
    report(7, "oracle equivalence", f"{checked} judgments, 0 disagreements in {elapsed:.1f}s")


def _binder_samples(count: int):
    """Deterministic stream of (type, abstraction body, names).

    The body comes from closing a generated type over one of its own free
    names, so it genuinely contains holes, and the probe name x is drawn from
    the names that remain free, so the monotonicity antecedent actually fires.
    """
    from fsub.gen import gen_closed_ty

    for seed in child_seeds(BINDER_SEED, count):
        cfg = GenConfig(seed=seed, max_ty_size=8)
        g = gen_env(cfg)
        t = gen_closed_ty(g, cfg)
        rng = SplitMix64(seed ^ 0x51)
        free = sorted(fv(t))
        w = rng.choose(free) if free else "B9"
        others = [n for n in free if n != w]
        x = rng.choose(others) if others else "B8"
        y = f"B{rng.below(4)}"
        z = f"B{4 + rng.below(4)}"
        yield t, w, x, y, z


def test_criterion_08_binder_properties():
    mono = closures = sizes = 0
    for t, w, x, y, z in _binder_samples(10000):
        body = close_ty(t, w)
        # occurrence of x is independent of which name fills the holes
        assert x not in (y, z)
        if x in fv(open_ty(body, y)):
            assert x in fv(open_ty(body, z))
            mono += 1
        # round trips
        assert open_ty(close_ty(t, w), w) == t
        if w not in fv(body):
            assert close_ty(open_ty(body, w), w) == body
        closures += 1
        # the size measure cannot see which name a body was opened with
        assert size(open_ty(body, y)) == size(open_ty(body, z))
        sizes += 1
    assert mono >= 1000

    renames = 0
    seed_stream = iter(child_seeds(BINDER_SEED ^ 0xFFFF, 40000))
    while renames < 10000:
        d = gen_derivation(GenConfig(seed=next(seed_stream)))
        for _, node in iter_nodes(d):
            if node.rule == Rule.ALL and renames < 10000:
                taken = reference.names_in_derivation(node) | reference.names_in_env(node.env)
                renamed = reference.replace_witness(node, fresh(taken))
                assert renamed.witness != node.witness
                assert check_derivation(renamed) == check_derivation(node)
                renames += 1
    assert closures == 10000 and sizes == 10000 and renames == 10000
    report(
        8,
        "binder properties",
        f"{closures} round trips, {sizes} size checks, {mono} monotonicity hits, {renames} witness renames",
    )


def test_criterion_09_worked_environment(tmp_path, capsys):
    g = parse_env("X <: Top, Y <: X")
    assert ok(g)
    path = tmp_path / "worked.txt"
    path.write_text("X <: Top, Y <: X |- Y <: Top\nX <: Top, Y <: X |- Y <: X\n")
    assert run(["check", str(path), "--derivation"]) == 0
    golden = (
        "YES X <: Top, Y <: X |- Y <: Top\n"
        "(top) X <: Top, Y <: X |- Y <: Top\n"
        "YES X <: Top, Y <: X |- Y <: X\n"
        "(trs) X <: Top, Y <: X |- Y <: X\n"
        "  (var) X <: Top, Y <: X |- X <: X\n"
    )
    assert capsys.readouterr().out == golden
    report(9, "worked environment", "rule sequences (top) and (trs)->(var) match the golden output")


def test_criterion_10_determinism(refl_corpus, trans_corpus, narrow_corpus, capsys):
    # regenerate the criterion 1-3 corpora from the same seeds
    again_refl = []
    for seed in child_seeds(REFL_SEED, 1000):
        cfg = GenConfig(seed=seed, max_ty_size=12, max_env_len=6)
        g, t = gen_refl_case(cfg)
        again_refl.append(derivation_to_json(derive_refl(g, t)))
    assert again_refl == [derivation_to_json(d) for d in refl_corpus[0]]

    again_trans = []
    for seed in child_seeds(TRANS_SEED, 1000):
        d1, d2 = gen_derivation_pair(GenConfig(seed=seed, max_deriv_depth=6))
        again_trans.append(derivation_to_json(derive_trans(d1, d2)))
    assert again_trans == [derivation_to_json(out) for _, _, out in trans_corpus[0]]

    again_narrow = []
    for i, seed in enumerate(child_seeds(NARROW_SEED, 500)):
        split, p, d, d_pq = gen_narrow_instance(
            GenConfig(seed=seed), force_pivot_chain=i < 50
        )
        again_narrow.append(derivation_to_json(derive_narrow(split, p, d, d_pq)))
    assert again_narrow == [derivation_to_json(out) for _, _, out in narrow_corpus[0]]

    assert run(["gen", "--seed", "77", "--count", "50"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "--seed", "77", "--count", "50"]) == 0
    assert capsys.readouterr().out == first

    report(10, "determinism", "regenerated corpora and CLI output are byte-identical")
