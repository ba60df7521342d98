"""Untyped lambda terms with constants and opaque value codes.

Term trees are immutable; all helpers below are pure.  Alpha-equivalence
is decided through a canonical renaming of binders (position-indexed),
so canonical terms can be hashed and compared structurally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple


BOOL = "Bool"


class Value(NamedTuple):
    """A datatype element: a tag plus a hashable payload.

    Payloads are booleans, ints, symbol strings, constructor pairs
    ``(name, (sub, ...))`` or tuples thereof (delta lists are tuples of
    tuples).
    """

    datatype: str
    payload: object


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Abs(Term):
    binder: str
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Const(Term):
    symbol: str


@dataclass(frozen=True, slots=True)
class Code(Term):
    """Opaque code of a datatype element: never a redex, never entered
    by substitution.  Booleans have no Code nodes: their codes are the
    lambda booleans, so that guard results can select branches."""

    value: Value

    def __post_init__(self):
        if self.value.datatype == BOOL:
            raise ValueError("Boolean values must be lambda booleans, not Code nodes")


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


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Abs):
        return free_vars(t.body) - {t.binder}
    if isinstance(t, App):
        return free_vars(t.fun) | free_vars(t.arg)
    return frozenset()


def is_closed(t: Term) -> bool:
    return not free_vars(t)


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
