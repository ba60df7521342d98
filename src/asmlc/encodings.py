"""Canonical lambda encodings: booleans, tuples and projections,
naturals and branch selectors, with the measured cost of projection and
selection.

Costs are measured by the counting engine under the strict
one-redex-per-step convention, with no constant in the terms, so every
step is a beta step.
"""
from __future__ import annotations

from typing import Optional

from .engine import STATUS_NORMAL, advance_term
from .terms import Abs, App, Term, Var, app, lam
from .lambda_f import FALSE_TERM, TRUE_TERM, bool_term, match_bool

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
    """Head-flag naturals: zero carries True, successors prepend False."""
    if n < 0:
        raise ValueError("naturals only")
    t = tup(TRUE_TERM, FALSE_TERM)
    for _ in range(n):
        t = tup(FALSE_TERM, t)
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


def case_n(n: int) -> Term:
    """Branch selector: applied to n branch terms then n booleans whose
    first True sits at position i, leftmost reduction returns branch i.

    Cost is 4n beta steps for every firing position: 2n to load the
    arguments, 2 per skipped False, 2 to select, and an identity chain
    of length 2(n-i) inside branch i equalizes the remainder.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ys = [f"y{j}" for j in range(1, n + 1)]
    zs = [f"z{j}" for j in range(1, n + 1)]
    body = I_TERM  # dummy else-arm of the last test
    for j in range(n, 0, -1):
        body = app(Var(zs[j - 1]), identity_chain(2 * (n - j), Var(ys[j - 1])), body)
    return lam(ys + zs, body)


def measure_beta(t: Term, max_steps: int = 100_000) -> tuple[Term, int]:
    """Leftmost-normalize and return (normal form, beta count)."""
    nf, beta, _, status = advance_term(t, {}, max_steps)
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


def case_cost(n: int, i: int) -> int:
    """The measured beta count of case_n firing at position i."""
    branches = [Var(f"m{j}") for j in range(1, n + 1)]
    flags = [bool_term(j == i) for j in range(1, n + 1)]
    nf, steps = measure_beta(app(case_n(n), *branches, *flags))
    if nf != branches[i - 1]:
        raise RuntimeError("case selector returned the wrong branch")
    return steps
