"""Good terms: abstraction-free composition trees of constants over
variables and codes, with their semantics and exact F-reduction cost.

Reducing a good term whose variables carry codes performs one F-step
per constant node whose arguments reach codes — and since every node's
arguments do once the leaves are codes, the leftmost cost is exactly
the node count, independent of the substituted values.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .lambda_f import FSignature, UndefinedApplication, code_term, match_code
from .records import Frozen
from .reduction import Status
from .terms import Const, Term, Value, Var, app
from . import lambda_f


class GoodTerm(Frozen):
    __slots__ = ()


class GVar(GoodTerm):
    __slots__ = __match_args__ = ("name", "datatype")

    def __init__(self, name: str, datatype: str):
        _gvar_name(self, name)
        _gvar_datatype(self, datatype)


class GCode(GoodTerm):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: Value):
        _gcode_value(self, value)


class GApp(GoodTerm):
    __slots__ = __match_args__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple[GoodTerm, ...] = ()):
        _gapp_symbol(self, symbol)
        _gapp_args(self, args)


_gvar_name, _gvar_datatype = GVar.name.__set__, GVar.datatype.__set__
_gcode_value = GCode.value.__set__
_gapp_symbol, _gapp_args = GApp.symbol.__set__, GApp.args.__set__


def check_good(t: GoodTerm, sig: FSignature) -> str:
    """Check arities and datatype composition; return the datatype."""
    if isinstance(t, GVar):
        return t.datatype
    if isinstance(t, GCode):
        return t.value.datatype
    f = sig.get(t.symbol)
    if f is None:
        raise ValueError(f"unknown constant {t.symbol}")
    if len(t.args) != f.arity:
        raise ValueError(f"{t.symbol} expects {f.arity} arguments")
    for a, dt in zip(t.args, f.arg_datatypes):
        if check_good(a, sig) != dt:
            raise ValueError(f"datatype mismatch under {t.symbol}")
    return f.result_datatype


def to_term(t: GoodTerm) -> Term:
    if isinstance(t, GVar):
        return Var(t.name)
    if isinstance(t, GCode):
        return code_term(t.value)
    return app(Const(t.symbol), *(to_term(a) for a in t.args))


def const_count(t: GoodTerm, inputs: frozenset = frozenset()) -> int:
    """Number of constant nodes: the exact F-cost of full reduction.
    A node whose variables are all in ``inputs``, one at least, is left
    out: binding the inputs folds it first (``combinators.instantiate``)."""
    if not isinstance(t, GApp):
        return 0
    names = {v.name for v in variables(t)} if inputs else ()
    return (not names or not names <= inputs) + sum(const_count(a, inputs) for a in t.args)


def variables(t: GoodTerm) -> list[GVar]:
    """Variable leaves in left-to-right order, without duplicates."""
    seen: dict[str, GVar] = {}

    def walk(s: GoodTerm):
        if isinstance(s, GVar):
            if s.name not in seen:
                seen[s.name] = s
        elif isinstance(s, GApp):
            for a in s.args:
                walk(a)

    walk(t)
    return list(seen.values())


def semantics(t: GoodTerm, sig: FSignature, valuation: dict[str, Value]) -> Optional[Value]:
    """Evaluate the composition; None when a partial function misses."""
    if isinstance(t, GVar):
        v = valuation[t.name]
        if v.datatype != t.datatype:
            raise ValueError(f"valuation for {t.name} has wrong datatype")
        return v
    if isinstance(t, GCode):
        return t.value
    f = sig.functions[t.symbol]
    vals = []
    for a in t.args:
        v = semantics(a, sig, valuation)
        if v is None:
            return None
        vals.append(v)
    try:
        return f.apply(tuple(vals))
    except UndefinedApplication:
        return None


def substitute_codes(t: GoodTerm, valuation: dict[str, Value]) -> Term:
    """The lambda term t[codes/variables]."""
    if isinstance(t, GVar):
        return code_term(valuation[t.name])
    if isinstance(t, GCode):
        return code_term(t.value)
    return app(Const(t.symbol), *(substitute_codes(a, valuation) for a in t.args))


def reduce_cost(t: GoodTerm, sig: FSignature, valuations: Iterable[dict[str, Value]]) -> int:
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
        r = lambda_f.reduce_leftmost_f(substitute_codes(t, val), sig, 10_000)
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
