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

from .asm import BUILTINS
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


def add_connectives(sig: FSignature) -> FSignature:
    """Add to ``sig`` the Boolean connectives it lacks: the all-Bool
    builtins of ``asm.BUILTINS`` with arguments (not, and, or), so that
    ``true`` and ``false`` stay inert constants."""
    for name, b in BUILTINS.items():
        if b.all_bool and b.arity and sig.get(name) is None:
            sig.add(name, *b.profile(BOOL), b.fn)
    return sig


def standard_bool_signature() -> FSignature:
    """The Boolean connectives over the Boolean datatype."""
    return add_connectives(FSignature())


# ---------------------------------------------------------------------------
# Delta lists: finite-difference state for dynamic functions.


class DeltaType(NamedTuple):
    """One tuple type epsilon = (arg datatypes..., result datatype) with
    its list datatype and the four operation names."""

    name: str
    arg_datatypes: tuple[str, ...]
    result_datatype: str

    @property
    def list_datatype(self) -> str:
        return f"L_{self.name}"

    def op_name(self, op: str) -> str:
        return f"{op}_{self.name}"


# The four delta-list operations.  A list is a tuple of (m+1)-tuples,
# keys first, value last.


def delta_f(seq) -> bool:
    """F: whether ``seq`` is functional, no key occurring twice."""
    keys = [t[:-1] for t in seq]
    return len(keys) == len(set(keys))


def delta_b(seq, *key) -> bool:
    """B: whether ``seq`` holds ``key``."""
    return any(t[:-1] == key for t in seq)


def delta_get(seq, *key_default):
    """Get: the value at the key (every argument but the last), or the
    default (the last) unless ``seq`` is functional and holds the key."""
    key = key_default[:-1]
    if delta_f(seq):
        for t in seq:
            if t[:-1] == key:
                return t[-1]
    return key_default[-1]


def delta_set(seq, *tup):
    """Set: ``seq`` without the entries keyed like ``tup``, with ``tup``
    appended."""
    key = tup[:-1]
    return tuple(t for t in seq if t[:-1] != key) + (tup,)


def install_delta(sig: FSignature, d: DeltaType) -> None:
    """Register the four delta constants for ``d`` into ``sig``.  Get
    and Set take the key and then a value: Get's default, which the
    compiler passes the init term, and the value Set stores."""
    L = d.list_datatype
    tup = d.arg_datatypes + (d.result_datatype,)
    sig.add(d.op_name("F"), (L,), BOOL, delta_f)
    sig.add(d.op_name("B"), (L,) + d.arg_datatypes, BOOL, delta_b)
    sig.add(d.op_name("Get"), (L,) + tup, d.result_datatype, delta_get)
    sig.add(d.op_name("Set"), (L,) + tup, L, delta_set)
