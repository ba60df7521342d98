"""Benign constants over datatypes: codes, signatures, and difference
lists.

A constant applied to exactly arity-many codes of the declared datatypes
is an F-redex and contracts in one step to the code of the semantic
result.  Codes of the Boolean datatype are the lambda booleans
``\\x y.x`` / ``\\x y.y`` so that guard results can drive beta selection;
codes of every other datatype are opaque Code nodes.  The counting
engine (``engine``) contracts F-redexes under a signature.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .asm import BUILTINS, CONNECTIVES
from .records import Fields
from .terms import BOOL, Abs, Code, Term, Unknown, Value, Var, lam

TRUE_TERM: Term = lam(["x", "y"], Var("x"))
FALSE_TERM: Term = lam(["x", "y"], Var("y"))
# The abstract Boolean, ``\x y.?``: shaped like the lambda booleans, so
# that applying it is a beta redex, where the engine stops with a fork
# instead of contracting it.  One node stands for every unknown Boolean,
# as every fork is resolved on its own.
UNKNOWN_BOOL: Term = lam(["x", "y"], Unknown(BOOL))


def bool_term(b: bool) -> Term:
    return TRUE_TERM if b else FALSE_TERM


def match_bool(t: Term) -> Optional[bool]:
    """Decode a lambda boolean (up to alpha), or None."""
    if isinstance(t, Abs) and isinstance(t.body, Abs):
        v = t.body.body
        if isinstance(v, Var):
            if v.name == t.body.binder:
                return False
            if v.name == t.binder:
                return True
    return None


def code_term(value: Value) -> Term:
    """The code of a datatype element (lambda boolean for Bool)."""
    if value.datatype == BOOL:
        return bool_term(bool(value.payload))
    return Code(value)


def match_code(t: Term, datatype: str) -> Optional[Value]:
    """Decode the code of an element of ``datatype``, or None."""
    if datatype == BOOL:
        b = match_bool(t)
        return None if b is None else Value(BOOL, b)
    if isinstance(t, Code) and t.value.datatype == datatype:
        return t.value
    return None


class UndefinedApplication(Exception):
    """A partial semantic function has no value on these arguments."""

    def __init__(self, symbol: str, args: tuple):
        super().__init__(f"{symbol} undefined on {args!r}")
        self.symbol = symbol
        self.args = args


class FFunction(NamedTuple):
    """One semantic function.  The engine reads its fields by index on
    every constant head it meets (``engine._Reducer``), so their order
    is part of the engine's contract: arity, argument datatypes, result
    datatype, function."""

    arity: int
    arg_datatypes: tuple[str, ...]
    result_datatype: str
    fn: Callable  # payload args -> payload, or None when undefined
    name: str

    def apply(self, args: tuple[Value, ...]) -> Value:
        out = self.fn(*(a.payload for a in args))
        if out is None:
            raise UndefinedApplication(self.name, tuple(a.payload for a in args))
        return Value(self.result_datatype, out)


class FSignature(Fields):
    """A family of semantic functions indexed by constant name."""

    __match_args__ = ("functions",)

    def __init__(self, functions: Optional[dict[str, FFunction]] = None):
        self.functions = {} if functions is None else functions

    def add(self, name, arg_datatypes, result_datatype, fn) -> FFunction:
        if name in self.functions:
            raise ValueError(f"duplicate function {name}")
        arg_datatypes = tuple(arg_datatypes)
        f = FFunction(len(arg_datatypes), arg_datatypes, result_datatype, fn, name)
        self.functions[name] = f
        return f

    def get(self, name: str) -> Optional[FFunction]:
        return self.functions.get(name)


def standard_bool_signature() -> FSignature:
    """The Boolean connectives over the Boolean datatype."""
    sig = FSignature()
    for name, arity in CONNECTIVES.items():
        sig.add(name, (BOOL,) * arity, BOOL, BUILTINS[name])
    return sig


# ---------------------------------------------------------------------------
# Delta lists: finite-difference state for dynamic functions.


class DeltaType(NamedTuple):
    """One tuple type epsilon = (arg datatypes..., result datatype) with
    its list datatype and the five operation names."""

    name: str
    arg_datatypes: tuple[str, ...]
    result_datatype: str

    @property
    def list_datatype(self) -> str:
        return f"L_{self.name}"

    def op_name(self, op: str) -> str:
        return f"{op}_{self.name}"


def delta_semantics(op: str, args: tuple):
    """Pure semantics of the five delta-list operations.

    ``seq`` is a tuple of (m+1)-tuples; ``V`` returns None (undefined)
    unless the sequence is functional and the key is present.
    """
    if op == "F":
        (seq,) = args
        keys = [t[:-1] for t in seq]
        return len(keys) == len(set(keys))
    if op == "B":
        seq, key = args
        return any(t[:-1] == key for t in seq)
    if op == "V":
        seq, key = args
        if not delta_semantics("F", (seq,)) or not delta_semantics("B", (seq, key)):
            return None
        for t in seq:
            if t[:-1] == key:
                return t[-1]
    if op == "Add":
        seq, tup = args
        return seq + (tup,)
    if op == "Del":
        seq, tup = args
        return tuple(t for t in seq if t != tup)
    if op not in ("F", "B", "V", "Add", "Del"):
        raise ValueError(f"unknown delta operation {op}")


def install_delta(sig: FSignature, d: DeltaType, totalize_default) -> None:
    """Register the five delta constants for ``d`` into ``sig``.

    V returns ``totalize_default`` where it is undefined: the compiler
    guards every lookup, so that value never matters.
    """
    L = d.list_datatype
    m = len(d.arg_datatypes)

    def f_fn(seq):
        return delta_semantics("F", (seq,))

    def b_fn(seq, *key):
        return delta_semantics("B", (seq, tuple(key)))

    def v_fn(seq, *key):
        out = delta_semantics("V", (seq, tuple(key)))
        return totalize_default if out is None else out

    def add_fn(seq, *tup):
        return delta_semantics("Add", (seq, tuple(tup)))

    def del_fn(seq, *tup):
        return delta_semantics("Del", (seq, tuple(tup)))

    sig.add(d.op_name("F"), (L,), BOOL, f_fn)
    sig.add(d.op_name("B"), (L,) + d.arg_datatypes, BOOL, b_fn)
    sig.add(d.op_name("V"), (L,) + d.arg_datatypes, d.result_datatype, v_fn)
    sig.add(d.op_name("Add"), (L,) + d.arg_datatypes + (d.result_datatype,), L, add_fn)
    sig.add(d.op_name("Del"), (L,) + d.arg_datatypes + (d.result_datatype,), L, del_fn)
