"""Hypothesis strategies and deep inputs shared across test modules."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from fsub.gen import GenConfig, gen_closed_ty, gen_env
from fsub.judgments import Env
from fsub.syntax import FreeVar, Top, Ty
from naive import NAll, NArr, NTop, NTy, NVar

NAME_POOL = ("X", "Y", "Z", "X'", "A")

var_names = st.sampled_from(NAME_POOL)


def named_types(max_depth: int = 4) -> st.SearchStrategy[NTy]:
    base = st.one_of(st.just(NTop()), st.builds(NVar, var_names))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(NArr, inner, inner),
            st.builds(NAll, var_names, inner, inner),
        ),
        max_leaves=2 ** max_depth,
    )


seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)


@st.composite
def ok_envs(draw: st.DrawFn, max_len: int = 4, max_size: int = 6) -> Env:
    seed = draw(seeds)
    return gen_env(GenConfig(seed=seed, max_env_len=max_len, max_ty_size=max_size))


@st.composite
def envs_with_closed_ty(
    draw: st.DrawFn, max_len: int = 4, max_size: int = 8
) -> tuple[Env, Ty]:
    seed = draw(seeds)
    g = gen_env(GenConfig(seed=seed, max_env_len=max_len, max_ty_size=max_size))
    t = gen_closed_ty(g, GenConfig(seed=seed ^ 0xA5A5A5A5, max_ty_size=max_size))
    return g, t


def variable_chain(n: int) -> tuple[Env, Ty, Ty]:
    """X0 <: Top, X1 <: X0, ..., Xn <: X(n-1) |- Xn <: X0."""
    decls = [("X0", Top())] + [(f"X{i}", FreeVar(f"X{i - 1}")) for i in range(1, n + 1)]
    return Env.from_decls(decls), FreeVar(f"X{n}"), FreeVar("X0")


_unseen = itertools.count()


def unseen_name() -> str:
    """A variable name that no earlier call returned and no test spells.  A
    type or environment that declares or mentions it shares no node with
    anything another test built, so it has never been checked or opened."""
    return f"Unseen{next(_unseen)}"
