"""Beta reduction: redex addressing, substitution, the leftmost beta
redex, and the step records of a traced reduction.

Step granularity is strict: one step contracts exactly one redex.  The
traced driver is ``lambda_f.reduce_leftmost_f``; with a signature that
holds no function it is leftmost beta reduction.  It takes a step
budget, and divergence is a reported outcome.
"""
from __future__ import annotations

import sys
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .records import Frozen
from .terms import Abs, App, Term, Var

sys.setrecursionlimit(100_000)

# An address is a path of child selectors from the root.
Addr = tuple[str, ...]


class ReductionError(Exception):
    pass


class NotARedex(ReductionError):
    def __init__(self, at: Addr):
        super().__init__(f"no redex at address {at!r}")
        self.at = at


class Status(Enum):
    NORMAL = "normal"
    BUDGET = "budget-exhausted"
    UNDEFINED = "undefined-application"


class Step(NamedTuple):
    kind: str  # "beta" | "f"
    address: Addr
    after: Term


class Trace(Frozen):
    """A ``Frozen`` node rather than a record: its length is its number
    of steps, which a ``NamedTuple``'s cannot be."""

    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: tuple[Step, ...]):
        _trace_steps(self, steps)

    @property
    def beta_count(self) -> int:
        return sum(1 for s in self.steps if s.kind == "beta")

    @property
    def f_count(self) -> int:
        return sum(1 for s in self.steps if s.kind == "f")

    def __len__(self) -> int:
        return len(self.steps)


_trace_steps = Trace.steps.__set__


class ReduceResult(NamedTuple):
    term: Term
    trace: Trace
    status: Status


def subterm_at(t: Term, at: Addr) -> Term:
    for sel in at:
        if sel == "fun" and isinstance(t, App):
            t = t.fun
        elif sel == "arg" and isinstance(t, App):
            t = t.arg
        elif sel == "body" and isinstance(t, Abs):
            t = t.body
        else:
            raise ReductionError(f"bad address step {sel!r} at {t!r}")
    return t


def replace_at(t: Term, at: Addr, new: Term) -> Term:
    if not at:
        return new
    sel, rest = at[0], at[1:]
    if sel == "fun" and isinstance(t, App):
        return App(replace_at(t.fun, rest, new), t.arg)
    if sel == "arg" and isinstance(t, App):
        return App(t.fun, replace_at(t.arg, rest, new))
    if sel == "body" and isinstance(t, Abs):
        return Abs(t.binder, replace_at(t.body, rest, new))
    raise ReductionError(f"bad address step {sel!r} at {t!r}")


def is_beta_redex(t: Term) -> bool:
    return isinstance(t, App) and isinstance(t.fun, Abs)


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    """The first ``base$k`` (k = 0, 1, ...) not in ``avoid``, where
    ``base`` drops any ``$k`` suffix.  Renaming a binder to it is
    deterministic: it depends only on the terms involved."""
    base = base.split("$")[0]
    k = 0
    while f"{base}${k}" in avoid:
        k += 1
    return f"{base}${k}"


def substitute(body: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution body[replacement/var]."""
    repl_free = replacement.fv

    def walk(t: Term) -> Term:
        if isinstance(t, Var):
            return replacement if t.name == var else t
        if isinstance(t, App):
            return App(walk(t.fun), walk(t.arg))
        if isinstance(t, Abs):
            if t.binder == var or var not in t.body.fv:
                return t
            if t.binder in repl_free:
                fresh = fresh_name(t.binder, t.body.fv | repl_free)
                renamed = substitute(t.body, t.binder, Var(fresh))
                return Abs(fresh, walk(renamed))
            return Abs(t.binder, walk(t.body))
        return t

    return walk(body)


def beta_redex_addresses(t: Term) -> Iterator[Addr]:
    """Beta-redex addresses in prefix order (fun before arg)."""
    stack: list[tuple[Term, Addr]] = [(t, ())]
    while stack:
        s, at = stack.pop()
        if is_beta_redex(s):
            yield at
        if isinstance(s, App):
            stack.append((s.arg, at + ("arg",)))
            stack.append((s.fun, at + ("fun",)))
        elif isinstance(s, Abs):
            stack.append((s.body, at + ("body",)))


def leftmost_redex(t: Term) -> Optional[Addr]:
    """Address of the leftmost beta redex (prefix order), or None."""
    for at in beta_redex_addresses(t):
        return at
    return None


def beta_step(t: Term, at: Addr) -> Term:
    redex = subterm_at(t, at)
    if not is_beta_redex(redex):
        raise NotARedex(at)
    contracted = substitute(redex.fun.body, redex.fun.binder, redex.arg)
    return replace_at(t, at, contracted)

