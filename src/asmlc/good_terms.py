"""Good terms: abstraction-free compositions of constants over variables
and codes, as lambda terms, with their semantics and exact F-reduction
cost.

Reducing a good term whose variables carry codes performs one F-step
per constant node whose arguments reach codes — and since every node's
arguments do once the leaves are codes, the leftmost cost is exactly
the node count, independent of the substituted values.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .lambda_f import FSignature, UndefinedApplication, code_term, match_bool, match_code
from .reduction import Status, substitute
from .terms import BOOL, Code, Const, Term, Value, Var, spine
from . import lambda_f


def const_count(t: Term, inputs: frozenset = frozenset()) -> int:
    """Number of constant nodes: the exact F-cost of full reduction.
    A node whose variables are all in ``inputs``, one at least, is left
    out: binding the inputs folds it first (``combinators.instantiate``)."""
    head, args = spine(t)
    if type(head) is not Const:
        return 0
    return (not t.fv or not t.fv <= inputs) + sum(const_count(a, inputs) for a in args)


def semantics(t: Term, sig: FSignature, valuation: dict[str, Value]) -> Optional[Value]:
    """Evaluate the composition; None when a partial function misses.
    Raises ValueError on a constant applied to the wrong number of
    arguments or to a value of the wrong datatype, and on an unknown
    constant."""
    if isinstance(t, Var):
        return valuation[t.name]
    if isinstance(t, Code):
        return t.value
    head, args = spine(t)
    if type(head) is not Const:
        b = match_bool(t)
        if b is None:
            raise ValueError(f"not a good term: {t!r}")
        return Value(BOOL, b)
    f = sig.get(head.symbol)
    if f is None:
        raise ValueError(f"unknown constant {head.symbol}")
    if len(args) != f.arity:
        raise ValueError(f"{head.symbol} expects {f.arity} arguments")
    vals = []
    for a, dt in zip(args, f.arg_datatypes):
        v = semantics(a, sig, valuation)
        if v is None:
            return None
        if v.datatype != dt:
            raise ValueError(f"datatype mismatch under {head.symbol}")
        vals.append(v)
    try:
        return f.apply(tuple(vals))
    except UndefinedApplication:
        return None


def reduce_cost(t: Term, sig: FSignature, valuations: Iterable[dict[str, Value]]) -> int:
    """Measure the F-cost of leftmost reduction of t[codes/variables]
    across valuations where the semantics is defined.

    Asserts: zero beta steps, result equals the semantics, and the same
    F-count on every valuation; returns that count.
    """
    costs = set()
    for val in valuations:
        expected = semantics(t, sig, val)
        if expected is None:
            raise ValueError("reduce_cost requires a defined valuation")
        closed = t
        for name in t.fv:
            closed = substitute(closed, name, code_term(val[name]))
        r = lambda_f.reduce_leftmost_f(closed, sig, 10_000)
        if r.status is not Status.NORMAL:
            raise RuntimeError("good-term reduction did not normalize")
        if r.trace.beta_count != 0:
            raise RuntimeError("good-term reduction used a beta step")
        if match_code(r.term, expected.datatype) != expected:
            raise RuntimeError("good-term reduction disagrees with semantics")
        costs.add(r.trace.f_count)
    if len(costs) != 1:
        raise RuntimeError(f"F-cost not value-independent: {sorted(costs)}")
    return costs.pop()
