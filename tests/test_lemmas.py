"""The paper's metatheory at verdict level over the whole oracle universe:
every judgment whose environment is ok over X0, X1 (length at most 2) and
whose sides have size at most 3, as `fsub oracle` enumerates it at its
default bounds.  Weakening, transitivity and narrowing (POPLmark task 1A)
are checked on `decide_sub`'s verdicts, each with a count so that no check
can pass vacuously, and so is the fuel boundary of every verdict."""

from collections import defaultdict

import pytest

from fsub.gen import enumerate_judgments
from fsub.subtyper import No, Unknown, Yes, decide_sub, preorder
from fsub.syntax import Top


@pytest.fixture(scope="module")
def tables():
    # Each environment's verdict table: (s, t) to the class of `decide_sub`'s
    # answer on `g |- s <: t`.
    out = defaultdict(dict)
    for g, s, t in enumerate_judgments(["X0", "X1"], 3, 2):
        out[g][s, t] = type(decide_sub(g, s, t))
    return out


def chains(table):
    """The `Yes`-`Yes` chains `s <: m <: t` of one verdict table, and those
    of them whose `s <: t` is not `Yes`."""
    above = defaultdict(list)
    for (s, t), verdict in table.items():
        if verdict is Yes:
            above[s].append(t)
    found = [(s, m, t) for s, middles in above.items() for m in middles for t in above[m]]
    return found, [chain for chain in found if table[chain[0], chain[2]] is not Yes]


def test_the_universe_is_the_oracles(tables):
    verdicts = [verdict for table in tables.values() for verdict in table.values()]
    assert len(verdicts) == 56_464
    assert verdicts.count(Yes) == 9_858
    assert verdicts.count(No) == 56_464 - 9_858


def test_a_fresh_binding_changes_no_verdict(tables):
    for g, table in tables.items():
        weakened = g.extend("X2", Top())
        for (s, t), verdict in table.items():
            assert type(decide_sub(weakened, s, t)) is verdict, (g, s, t)


def test_every_chain_of_yes_verdicts_concludes_yes(tables):
    count = 0
    for table in tables.values():
        found, broken = chains(table)
        assert broken == []
        count += len(found)
    assert count == 26_599


def test_the_transitivity_check_flags_a_flipped_verdict(tables):
    # The conclusion of a chain through a third type, flipped to `No`, is
    # flagged; only its own chains can break, since a flipped conclusion
    # drops out of every chain that used it as a link.
    g, table = next((g, table) for g, table in tables.items() if len(g) == 2)
    found, _ = chains(table)
    s, m, t = next(chain for chain in found if len(set(chain)) == 3)
    flipped = dict(table)
    flipped[s, t] = No
    _, broken = chains(flipped)
    assert (s, m, t) in broken
    assert {(a, c) for a, _, c in broken} == {(s, t)}


def narrowings(tables):
    """Every narrowing instance `(g, p, s, t)` of the verdict tables: `g`'s
    newest binding `X <: q` is replaced by a `p` other than `q` that `g`'s
    prefix proves below `q`, and `s <: t` is `Yes` over `g`; and those of
    them whose verdict over the narrowed environment is not `Yes`."""
    found = []
    for g, table in tables.items():
        if not len(g):
            continue
        below = [p for (p, q), verdict in tables[g.parent].items() if q is g.bound and p is not q and verdict is Yes]
        held = [st for st, verdict in table.items() if verdict is Yes]
        found += [(g, p, s, t) for p in below for s, t in held]
    return found, [(g, p, s, t) for g, p, s, t in found if tables[g.parent.extend(g.name, p)][s, t] is not Yes]


def test_narrowing_keeps_every_yes_verdict(tables):
    found, broken = narrowings(tables)
    assert broken == []
    assert len(found) == 22_510


def test_the_narrowing_check_flags_a_flipped_verdict(tables):
    # One judgment over one narrowed environment, flipped to `No`, is
    # flagged in every instance narrowed to that environment and in no other.
    found, _ = narrowings(tables)
    g, p, s, t = found[0]
    h = g.parent.extend(g.name, p)
    flipped = dict(tables)
    flipped[h] = dict(tables[h])
    flipped[h][s, t] = No
    _, broken = narrowings(flipped)
    assert (g, p, s, t) in broken
    assert {(b.parent.extend(b.name, q), u, v) for b, q, u, v in broken} == {(h, s, t)}


def test_fuel_of_exactly_the_node_count_gives_the_same_node(tables):
    count = 0
    for g, table in tables.items():
        for (s, t), verdict in table.items():
            if verdict is Yes:
                d = decide_sub(g, s, t).derivation
                fuel = sum(1 for _ in preorder(d))
                assert decide_sub(g, s, t, fuel).derivation is d, (g, s, t)
                assert decide_sub(g, s, t, fuel - 1) == Unknown(fuel - 1), (g, s, t)
                count += 1
    assert count == 9_858


def test_the_least_fuel_that_answers_gives_the_default_answer(tables):
    # Fuel 0, 1, 2, ... until the decider answers: every fuel below that
    # runs out, and the first answer is the default fuel's, the very same
    # node at exactly the node count for a `Yes`, the same trace and reason
    # for a `No`.  The scan assumes no monotonicity in the fuel, and it ends
    # by the default fuel at the latest, where the answer is the verdict.
    # Over this universe a `No` first answers at each fuel from 1 to 7.
    count = 0
    refuting = set()
    for g, table in tables.items():
        for s, t in table:
            answer = decide_sub(g, s, t)
            fuel = 0
            while type(first := decide_sub(g, s, t, fuel)) is Unknown:
                assert first == Unknown(fuel), (g, s, t)
                fuel += 1
            if type(answer) is Yes:
                assert first.derivation is answer.derivation, (g, s, t)
                assert fuel == sum(1 for _ in preorder(answer.derivation)), (g, s, t)
            else:
                assert first == answer, (g, s, t)
                refuting.add(fuel)
            count += 1
    assert count == 56_464
    assert refuting == set(range(1, 8))
