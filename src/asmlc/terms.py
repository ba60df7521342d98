"""Untyped lambda terms with constants and opaque value codes.

Term nodes are ``records.Frozen`` nodes: assigning to or deleting any
attribute raises ``dataclasses.FrozenInstanceError``, and equality,
hashing and ``repr`` are those of frozen dataclasses over the fields.
Each node also carries three facts, computed once when it is built from
its children's facts and kept out of equality, hashing and ``repr``:

- ``fv``: the frozenset of its free variables;
- ``beta``: whether it contains a beta redex;
- ``const``: whether it contains a ``Const`` node.

Only ``Code`` caches its structural hash, ``hash((value,))``, in a
``_hash`` slot on first use.  The keys of the engine's round memo are a
round's slot codes, and a ``Code`` payload (a delta list can be long)
is then hashed once per node, however many rounds share it.  ``App``
and ``Abs`` hash their fields on every call: the round memo is keyed by
slot codes, never by theta or a start term, so the only ones hashed
there are the lambda booleans of Bool slots, three nodes each, and a
cache slot would cost every node 8 bytes.  The cache is a value, not a
field: it is kept out of equality, ``repr`` and pickling (string hashes
differ between processes), and like the fields it cannot be assigned
or deleted.

Alpha-equivalence is decided through a canonical renaming of binders
(position-indexed), so canonical terms can be hashed and compared
structurally.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

from .records import Frozen


BOOL = "Bool"

_EMPTY: frozenset = frozenset()


class Value(NamedTuple):
    """A datatype element: a tag plus a hashable payload.

    Payloads are booleans, ints, symbol strings, constructor pairs
    ``(name, (sub, ...))`` or tuples thereof (delta lists are tuples of
    tuples).
    """

    datatype: str
    payload: object


class Term(Frozen):
    """Base of the node classes.  Constructors write their slots through
    the slot descriptors bound once per class below."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "fv")
    __match_args__ = ("name",)
    beta = const = False

    def __init__(self, name: str):
        _var_name(self, name)
        _var_fv(self, frozenset((name,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))


class Abs(Term):
    __slots__ = ("binder", "body", "fv", "beta", "const")
    __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: Term):
        _abs_binder(self, binder)
        _abs_body(self, body)
        fv = body.fv
        if binder in fv:
            fv = fv - {binder} or _EMPTY
        _abs_fv(self, fv)
        _abs_beta(self, body.beta)
        _abs_const(self, body.const)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.binder, self.body) == (other.binder, other.body)
        return NotImplemented

    def __hash__(self):
        return hash((self.binder, self.body))


class App(Term):
    __slots__ = ("fun", "arg", "fv", "beta", "const")
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        _app_fun(self, fun)
        _app_arg(self, arg)
        a = fun.fv
        b = arg.fv
        _app_fv(self, a | b if a and b else a or b)
        _app_beta(self, fun.beta or arg.beta or fun.__class__ is Abs)
        _app_const(self, fun.const or arg.const)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.fun, self.arg) == (other.fun, other.arg)
        return NotImplemented

    def __hash__(self):
        return hash((self.fun, self.arg))


class Const(Term):
    __slots__ = ("symbol",)
    __match_args__ = ("symbol",)
    fv = _EMPTY
    beta = False
    const = True

    def __init__(self, symbol: str):
        _const_symbol(self, symbol)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.symbol == other.symbol
        return NotImplemented

    def __hash__(self):
        return hash((self.symbol,))


class Code(Term):
    """Opaque code of a datatype element: never a redex, never entered
    by substitution.  Booleans have no Code nodes: their codes are the
    lambda booleans, so that guard results can select branches."""

    __slots__ = ("value", "_hash")
    __match_args__ = ("value",)
    fv = _EMPTY
    beta = const = False

    def __init__(self, value: Value):
        if value.datatype == BOOL:
            raise ValueError("Boolean values must be lambda booleans, not Code nodes")
        _code_value(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.value,))
            _code_hash(self, h)
            return h


class Unknown(Term):
    """Abstract code: some element of ``datatype``, which one unknown.
    Only the certificate of a compiled term (``combinators.certify``)
    builds these, Booleans included; like a Code it is closed and holds
    no redex."""

    __slots__ = ("datatype",)
    __match_args__ = ("datatype",)
    fv = _EMPTY
    beta = const = False

    def __init__(self, datatype: str):
        _unknown_datatype(self, datatype)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.datatype == other.datatype
        return NotImplemented

    def __hash__(self):
        return hash((self.datatype,))


_var_name, _var_fv = Var.name.__set__, Var.fv.__set__
_abs_binder, _abs_body = Abs.binder.__set__, Abs.body.__set__
_abs_fv, _abs_beta, _abs_const = Abs.fv.__set__, Abs.beta.__set__, Abs.const.__set__
_app_fun, _app_arg = App.fun.__set__, App.arg.__set__
_app_fv, _app_beta, _app_const = App.fv.__set__, App.beta.__set__, App.const.__set__
_const_symbol = Const.symbol.__set__
_code_value, _code_hash = Code.value.__set__, Code._hash.__set__
_unknown_datatype = Unknown.datatype.__set__


def lam(binders, body: Term) -> Term:
    """Right-nested abstraction over a list of binder names."""
    for name in reversed(list(binders)):
        body = Abs(name, body)
    return body


def app(fun: Term, *args: Term) -> Term:
    """Left-nested application."""
    for a in args:
        fun = App(fun, a)
    return fun


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Unwind left-nested applications into (head, arguments)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def subterms(t: Term) -> Iterator[Term]:
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Abs):
            stack.append(s.body)
        elif isinstance(s, App):
            stack.append(s.arg)
            stack.append(s.fun)


def canonical(t: Term) -> Term:
    """Rename all binders to position-indexed names.

    Two terms are alpha-equal iff their canonical forms are structurally
    equal.  Free variables keep their names.
    """
    counter = [0]

    def walk(s: Term, env: dict[str, str]) -> Term:
        if isinstance(s, Var):
            return Var(env.get(s.name, s.name))
        if isinstance(s, Abs):
            fresh = "%" + str(counter[0])
            counter[0] += 1
            inner = dict(env)
            inner[s.binder] = fresh
            return Abs(fresh, walk(s.body, inner))
        if isinstance(s, App):
            return App(walk(s.fun, env), walk(s.arg, env))
        return s

    return walk(t, {})


def alpha_eq(s: Term, t: Term) -> bool:
    return canonical(s) == canonical(t)


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))
