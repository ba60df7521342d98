"""Canonical lambda encodings: tuples and projections, naturals and the
in-place branch selector, with the measured cost of projection and
selection.  The lambda booleans are ``lambda_f``'s.

Costs are measured by the counting engine under the strict
one-redex-per-step convention, with no constant in the terms, so every
step is a beta step.
"""
from __future__ import annotations

import gc
from typing import Optional, Sequence

from .engine import STATUS_NORMAL, advance_term
from .terms import Abs, App, Term, Var, app, lam
from .lambda_f import FALSE_TERM, TRUE_TERM, FSignature, bool_term, match_bool

I_TERM: Term = Abs("u", Var("u"))


def identity_chain(n: int, t: Term) -> Term:
    """I(I(...(I t))) with n wrappers: n inert leftmost beta steps."""
    for _ in range(n):
        t = App(I_TERM, t)
    return t


def _fresh_binder(base: str, avoid: frozenset[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def tup(*items: Term) -> Term:
    """The tuple term: one binder applied to all components."""
    z = _fresh_binder("z", frozenset().union(*(u.fv for u in items)))
    return Abs(z, app(Var(z), *items))


def proj(k: int, i: int) -> Term:
    """Projection selecting the i-th of k arguments (1-based)."""
    if not 1 <= i <= k:
        raise ValueError("need 1 <= i <= k")
    names = [f"x{j}" for j in range(1, k + 1)]
    return lam(names, Var(names[i - 1]))


def nat(n: int) -> Term:
    """Head-flag naturals: zero carries True, successors prepend False.

    The build pauses the cyclic garbage collector, and restores its
    previous state: every node is a tracked object that forms no cycle,
    so on a deep numeral the collections it would trigger find nothing
    and take about half the time."""
    if n < 0:
        raise ValueError("naturals only")
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = tup(TRUE_TERM, FALSE_TERM)
        for _ in range(n):
            t = tup(FALSE_TERM, t)
    finally:
        if enabled:
            gc.enable()
    return t


def match_nat(t: Term) -> Optional[int]:
    """Decode a head-flag natural (up to alpha), or None."""
    n = 0
    while True:
        if not (isinstance(t, Abs) and isinstance(t.body, App)):
            return None
        inner = t.body
        if not (isinstance(inner.fun, App) and inner.fun.fun == Var(t.binder)):
            return None
        flag = match_bool(inner.fun.arg)
        if flag is True:
            return n if match_bool(inner.arg) is False else None
        if flag is False:
            n += 1
            t = inner.arg
            continue
        return None


ZERO_TEST: Term = Abs("z", App(Var("z"), TRUE_TERM))
SUCC: Term = lam(["n", "z"], app(Var("z"), FALSE_TERM, Var("n")))
PRED: Term = Abs("z", App(Var("z"), FALSE_TERM))


def select_first(guards: Sequence[Term], branches: Sequence[Term]) -> Term:
    """In-place branch selection over n branches and n-1 Boolean guards:

        g1 (I^{2(n-2)} B1) (g2 (I^{2(n-3)} B2) (... (g_{n-1} B_{n-1} B_n)))

    Leftmost reduction returns the branch of the first true guard, and
    the last branch, the else-arm, when every guard is false.  Cost is
    2(n-1) beta steps for every firing position i: 2 per skipped False,
    2 to select, and the identity chain of length 2(n-1-i) inside branch
    i equalizes the remainder.  The else-arm pays 2 per guard instead.
    """
    n = len(branches)
    if n < 1 or len(guards) != n - 1:
        raise ValueError("need n >= 1 branches and n - 1 guards")
    body = branches[-1]
    for i in range(n - 2, -1, -1):
        body = app(guards[i], identity_chain(2 * (n - 2 - i), branches[i]), body)
    return body


def measure_beta(t: Term, max_steps: int = 100_000) -> tuple[Term, int]:
    """Leftmost-normalize and return (normal form, beta count)."""
    nf, beta, _, status = advance_term(t, FSignature(), max_steps)
    if status != STATUS_NORMAL:
        raise RuntimeError("measurement did not reach normal form")
    return nf, beta


def projection_cost(k: int, i: int) -> int:
    """The measured beta count of extracting component i from a k-tuple."""
    xs = [Var(f"v{j}") for j in range(1, k + 1)]
    nf, steps = measure_beta(App(tup(*xs), proj(k, i)))
    if nf != xs[i - 1]:
        raise RuntimeError("projection returned the wrong component")
    return steps


def selection_cost(n: int, i: int) -> int:
    """The measured beta count of ``select_first`` over n branches
    returning branch i."""
    branches = [Var(f"m{j}") for j in range(1, n + 1)]
    guards = [bool_term(j == i) for j in range(1, n)]
    nf, steps = measure_beta(select_first(guards, branches))
    if nf != branches[i - 1]:
        raise RuntimeError("selection returned the wrong branch")
    return steps
