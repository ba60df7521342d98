"""The traced reducer: F-first leftmost reduction one redex at a time,
with the address and kind of every step.  It is the oracle the counting
engine (``asmlc.engine``) is tested against, step for step.

Step granularity is strict: one step contracts exactly one redex.  The
traced driver is ``reduce_leftmost_f``; with a signature that holds no
function it is leftmost beta reduction.  It takes a step budget, and
divergence is a reported outcome.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple, Optional

from asmlc.engine import fresh_name
from asmlc.lambda_f import FFunction, FSignature, UndefinedApplication, code_term, match_code
from asmlc.records import Frozen
from asmlc.terms import Abs, App, Const, Term, Value, Var, spine

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


def _f_redex_here(t: Term, sig: FSignature) -> Optional[tuple[FFunction, tuple[Value, ...]]]:
    head, args = spine(t)
    if not isinstance(head, Const):
        return None
    f = sig.get(head.symbol)
    if f is None or len(args) != f.arity:
        return None
    vals = []
    for a, dt in zip(args, f.arg_datatypes):
        v = match_code(a, dt)
        if v is None:
            return None
        vals.append(v)
    return f, tuple(vals)


def f_redexes(t: Term, sig: FSignature) -> Iterator[Addr]:
    """F-redex addresses in prefix order.  Distinct F-redexes are
    disjoint subterms.  The tests check ``engine.scan``, the residency
    check of the combinator builder, against it."""
    stack: list[tuple[Term, Addr]] = [(t, ())]
    while stack:
        s, at = stack.pop()
        if _f_redex_here(s, sig) is not None:
            yield at
            continue  # arguments are codes: nothing below can be a redex
        if isinstance(s, App):
            stack.append((s.arg, at + ("arg",)))
            stack.append((s.fun, at + ("fun",)))
        elif isinstance(s, Abs):
            stack.append((s.body, at + ("body",)))


def holds_f_redex(t: Term, sig: FSignature, seen: dict) -> bool:
    """Whether ``t`` holds an F-redex, by ``_f_redex_here`` at each of
    its nodes: ``bool(list(f_redexes(t, sig)))`` without the addresses.
    ``seen`` memoizes the answer by ``id``, with the node so no ``id``
    is reused, and may be shared by calls under one ``sig``: a set of
    terms that share subterms, as the nodes of an engine memo do, then
    costs one test per distinct node, where ``f_redexes`` walks each
    term's whole subtree again."""
    hit = seen.get(id(t))
    if hit is not None:
        return hit[1]
    if _f_redex_here(t, sig) is not None:
        out = True
    elif isinstance(t, App):
        out = holds_f_redex(t.fun, sig, seen) or holds_f_redex(t.arg, sig, seen)
    elif isinstance(t, Abs):
        out = holds_f_redex(t.body, sig, seen)
    else:
        out = False
    seen[id(t)] = (t, out)
    return out


def leftmost_f_redex(t: Term, sig: FSignature) -> Optional[Addr]:
    """Address of the leftmost F-redex (prefix order), or None."""
    return next(f_redexes(t, sig), None)


def f_step(t: Term, at: Addr, sig: FSignature) -> Term:
    """Contract the F-redex at ``at``; raises UndefinedApplication when
    the semantic function has no value there."""
    redex = subterm_at(t, at)
    hit = _f_redex_here(redex, sig)
    if hit is None:
        raise ReductionError(f"no F-redex at {at!r}")
    f, vals = hit
    return replace_at(t, at, code_term(f.apply(vals)))


def is_normal_form(t: Term, sig: FSignature) -> bool:
    return leftmost_redex(t) is None and leftmost_f_redex(t, sig) is None


def reduce_leftmost_f(t: Term, sig: FSignature, max_steps: int) -> ReduceResult:
    """F-first leftmost reduction with a full double-decorated trace.

    Contracts the leftmost F-redex if one exists anywhere in the term,
    else the leftmost beta redex.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    steps: list[Step] = []
    for _ in range(max_steps):
        at = leftmost_f_redex(t, sig)
        if at is not None:
            try:
                t = f_step(t, at, sig)
            except UndefinedApplication:
                return ReduceResult(t, Trace(tuple(steps)), Status.UNDEFINED)
            steps.append(Step("f", at, t))
            continue
        at = leftmost_redex(t)
        if at is None:
            return ReduceResult(t, Trace(tuple(steps)), Status.NORMAL)
        t = beta_step(t, at)
        steps.append(Step("beta", at, t))
    status = Status.NORMAL if is_normal_form(t, sig) else Status.BUDGET
    return ReduceResult(t, Trace(tuple(steps)), status)
