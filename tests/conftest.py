"""Shared random generators for terms, programs, and states, the loader
of the bundled machines, the concrete probe blocks that cross-check
the compiler's abstract certificate, and two oracles: the semantics and
measured F-cost of constant compositions, and bounded confluence."""
from __future__ import annotations

import functools
import random
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

import pytest

from asmlc.asm import (
    FailI,
    HaltI,
    If,
    InitRule,
    Machine,
    Par,
    Program,
    Skip,
    State,
    Symbol,
    TApp,
    Update,
    Vocabulary,
    run_from_state,
)
from asmlc.combinators import blocks, decode_state
from asmlc.compiler import CompiledMachine, slot_values_for_state
from asmlc.engine import STATUS_NORMAL, STATUS_RAN
from asmlc.lambda_f import (
    FSignature,
    UndefinedApplication,
    code_term,
    match_bool,
    match_code,
)
from asmlc.sourcefmt import SourceMachine, parse_source
from asmlc.terms import (
    BOOL,
    Abs,
    App,
    Code,
    Const,
    Term,
    Value,
    Var,
    app,
    canonical,
    spine,
    term_size,
)

from traced import (
    ReductionError,
    Status,
    beta_redex_addresses,
    beta_step,
    reduce_leftmost_f,
    substitute,
)

MACHINES = Path(__file__).resolve().parent.parent / "machines"


@functools.cache
def bundled(name: str) -> SourceMachine:
    """``machines/<name>.asm``, parsed once per session."""
    return parse_source((MACHINES / f"{name}.asm").read_text(encoding="utf-8"))


HALVES = Path(__file__).resolve().parent / "halves.asm"


@functools.cache
def halves(clash: bool = False) -> SourceMachine:
    """``tests/halves.asm``, parsed once per session: a difference-list
    slot read in a guard and in a right-hand side over a partial init
    rule, and written twice in one clause with equal values.  With
    ``clash`` the second write adds 1, not 2, so the two values differ
    and the step clashes."""
    source = HALVES.read_text(encoding="utf-8")
    if clash:
        source = source.replace("plus(f(i), 2)", "plus(f(i), 1)")
    return parse_source(source)


# Inputs to compile each bundled machine at, and its (K, L) there.
BUNDLED_COSTS = {"euclid": ({"a0": 1, "b0": 1}, (8, 7)),
                 "doubling": ({"stop": 4}, (8, 11)),
                 "fail": ({}, (3, 0)),
                 "clash": ({}, (3, 0))}


def machine_probes(machine: Machine, state: State, slots) -> list[dict]:
    """Probe valuations, slot name to code value, of the states of a
    4-step run of the machine itself: concrete starts from which a test
    measures blocks, to cross-check the compiler's abstract certificate
    (``combinators.certify``) against plain measurement."""
    s0 = machine.initial_state(state)
    r = run_from_state(s0, machine.program, 4)
    return [{s.name: v for s, v in zip(slots, slot_values_for_state(slots, st, s0))}
            for st in r.trajectory]


class Block(NamedTuple):
    """One concrete block: the term at its end, its exact cost, and
    whether the end is a new state or an exit normal form."""

    term: Term
    beta_count: int
    f_count: int
    kind: str  # "state" | "exit"
    values: Optional[tuple]  # decoded slots when kind == "state"


def measure_block(start: Term, theta: Term, slots, sig: FSignature, theta_free=None,
                  max_steps: int = 100_000) -> Block:
    """The one path of ``combinators.blocks`` from a concrete start.
    Raises RuntimeError when the block does not complete within
    ``max_steps``."""
    ((_, t, beta, f, status),), _ = blocks(start, theta, slots, sig, theta_free, max_steps)
    if status == STATUS_RAN:
        raise RuntimeError("block did not complete within the step budget")
    if status == STATUS_NORMAL:
        return Block(t, beta, f, "exit", None)
    return Block(t, beta, f, "state", decode_state(t, theta, slots))


def probe_blocks(cm: CompiledMachine, probes) -> list[tuple[Term, Block]]:
    """One concrete block of ``cm``'s theta from each probe valuation,
    each with the term it starts from."""
    out = []
    for val in probes:
        start = app(cm.theta, *(code_term(val[s.name]) for s in cm.slots))
        out.append((start, measure_block(start, cm.theta, cm.slots, cm.sig)))
    return out


# ---------------------------------------------------------------------------
# Oracles: the semantics and measured F-cost of constant compositions
# over variables and codes (lambda terms with no abstraction), and
# bounded exhaustive confluence.


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
        r = reduce_leftmost_f(closed, sig, 10_000)
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


class ConfluenceInconclusive(ReductionError):
    """Raised when the bounded enumerator hits its blowup guard."""


def check_confluence_bounded(
    t: Term, depth: int, size_cap: int = 2000, state_cap: int = 20000
) -> bool:
    """Enumerate all beta reduction sequences from ``t`` up to ``depth``
    and check that all normal forms reached are alpha-equal.

    Raises ConfluenceInconclusive on blowup.
    """
    frontier = {canonical(t)}
    seen = set(frontier)
    normal_forms: set[Term] = set()
    for _ in range(depth):
        nxt: set[Term] = set()
        for s in frontier:
            addrs = list(beta_redex_addresses(s))
            if not addrs:
                normal_forms.add(s)
                continue
            for at in addrs:
                r = canonical(beta_step(s, at))
                if term_size(r) > size_cap:
                    raise ConfluenceInconclusive("term size cap exceeded")
                if r not in seen:
                    seen.add(r)
                    nxt.add(r)
            if len(seen) > state_cap:
                raise ConfluenceInconclusive("state cap exceeded")
        frontier = nxt
        if not frontier:
            break
    for s in frontier:
        if not list(beta_redex_addresses(s)):
            normal_forms.add(s)
    return len(normal_forms) <= 1


def random_term(rng: random.Random, size: int, pool=("a", "b", "c")) -> Term:
    """A random lambda term with at most ``size`` nodes; free variables
    are drawn from ``pool``."""
    if size <= 1:
        return Var(rng.choice(pool))
    if rng.random() < 0.45:
        left = rng.randint(1, size - 1)
        return App(random_term(rng, left, pool), random_term(rng, size - left, pool))
    binder = rng.choice(pool)
    return Abs(binder, random_term(rng, size - 1, pool))


def random_closed_term(rng: random.Random, size: int) -> Term:
    """A random closed term: close a random term by abstracting over its
    variable pool."""
    t = random_term(rng, size)
    for v in ("c", "b", "a"):
        t = Abs(v, t)
    return t


# ---------------------------------------------------------------------------
# Random machine programs over a fixed two-counter vocabulary.
# Guard statics (lt, le, eq_Nat) are total on the carrier, so the guard
# normal form and the original program agree in every state.

MAX_NAT = 4


def counter_vocabulary() -> Vocabulary:
    symbols = {
        "zero": Symbol("zero", "static", (), "Nat"),
        "one": Symbol("one", "static", (), "Nat"),
        "two": Symbol("two", "static", (), "Nat"),
        "lt": Symbol("lt", "static", ("Nat", "Nat"), "Bool"),
        "le": Symbol("le", "static", ("Nat", "Nat"), "Bool"),
        "eq_Nat": Symbol("eq_Nat", "static", ("Nat", "Nat"), "Bool"),
        "and": Symbol("and", "static", ("Bool", "Bool"), "Bool"),
        "or": Symbol("or", "static", ("Bool", "Bool"), "Bool"),
        "not": Symbol("not", "static", ("Bool",), "Bool"),
        "p": Symbol("p", "dynamic", (), "Nat", is_output=True),
        "q": Symbol("q", "dynamic", (), "Nat"),
    }
    return Vocabulary(("Bool", "Nat"), symbols)


def counter_state(voc: Vocabulary, p: int, q: int) -> State:
    statics = {
        "zero": lambda: 0,
        "one": lambda: 1,
        "two": lambda: 2,
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "eq_Nat": lambda a, b: a == b,
        "and": lambda a, b: a and b,
        "or": lambda a, b: a or b,
        "not": lambda a: not a,
    }
    return State(voc, {"Bool": (True, False), "Nat": tuple(range(MAX_NAT + 1))},
                 statics, {"p": {(): p}, "q": {(): q}})


_NAT_TERMS = [TApp("zero"), TApp("one"), TApp("two"), TApp("p"), TApp("q")]


def random_condition(rng: random.Random, depth: int) -> TApp:
    if depth > 0 and rng.random() < 0.4:
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            return TApp("not", (random_condition(rng, depth - 1),))
        return TApp(op, (random_condition(rng, depth - 1),
                         random_condition(rng, depth - 1)))
    op = rng.choice(["lt", "le", "eq_Nat"])
    return TApp(op, (rng.choice(_NAT_TERMS), rng.choice(_NAT_TERMS)))


def random_program(rng: random.Random, depth: int) -> Program:
    """A random program of conditional nesting depth at most ``depth``."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        kind = rng.randrange(5)
        if kind == 0:
            return Skip()
        if kind == 1:
            return HaltI()
        if kind == 2:
            return FailI()
        return Update(rng.choice(["p", "q"]), (), rng.choice(_NAT_TERMS))
    if roll < 0.75:
        orelse = random_program(rng, depth - 1) if rng.random() < 0.5 else Skip()
        return If(random_condition(rng, 1), random_program(rng, depth - 1), orelse)
    n = rng.randint(2, 3)
    return Par(tuple(random_program(rng, depth - 1) for _ in range(n)))


# The seeded stream of random counter machines that lockstep, the
# certificate memo check and the random-1108 record of
# ``benchmarks/bench.py``'s ``cost`` section all read, the first
# RANDOM_PROGRAMS of it, none left out.
RANDOM_SEED, RANDOM_PROGRAMS = 1108, 120


def random_machines() -> Iterable[Machine]:
    """The stream's machines over ``counter_vocabulary()``: programs of
    depth 2-4, each slot initialised to zero, one or two."""
    rng = random.Random(RANDOM_SEED)
    voc = counter_vocabulary()
    for _ in range(RANDOM_PROGRAMS):
        prog = random_program(rng, rng.randint(2, 4))
        init = {s: InitRule((), TApp(rng.choice(("zero", "one", "two")))) for s in ("p", "q")}
        yield Machine(voc, prog, init)


def counter_family(n: int) -> tuple[Machine, State]:
    """A machine with n cyclic counters updated in parallel; exits when
    the first counter returns to zero."""
    names = [f"c{i}" for i in range(1, n + 1)]
    symbols = {
        "zero": Symbol("zero", "static", (), "Nat"),
        "inc": Symbol("inc", "static", ("Nat",), "Nat"),
        "eq_Nat": Symbol("eq_Nat", "static", ("Nat", "Nat"), "Bool"),
        "and": Symbol("and", "static", ("Bool", "Bool"), "Bool"),
        "or": Symbol("or", "static", ("Bool", "Bool"), "Bool"),
        "not": Symbol("not", "static", ("Bool",), "Bool"),
    }
    for i, c in enumerate(names):
        symbols[c] = Symbol(c, "dynamic", (), "Nat", is_output=(i == 0))
    voc = Vocabulary(("Bool", "Nat"), symbols)
    cond = TApp("eq_Nat", (TApp(names[0]), TApp("zero")))
    prog = Par((
        If(TApp("not", (cond,)),
           Par(tuple(Update(c, (), TApp("inc", (TApp(c),))) for c in names))),
        If(cond, HaltI()),
    ))
    init = {c: InitRule((), TApp("one")) for c in names}
    symbols["one"] = Symbol("one", "static", (), "Nat")
    statics = {
        "zero": lambda: 0, "one": lambda: 1,
        "inc": lambda a: (a + 1) % 4,
        "eq_Nat": lambda a, b: a == b,
        "and": lambda a, b: a and b, "or": lambda a, b: a or b,
        "not": lambda a: not a,
    }
    state = State(voc, {"Bool": (True, False), "Nat": (0, 1, 2, 3)},
                  statics, {})
    return Machine(voc, prog, init), state


def wide(m: int) -> tuple[Machine, State]:
    """"wide-m": a ``par`` of m independent ``if eq_Nat(c, i) then
    c := succ(c)`` over one Nat slot.  Its normal form has 2^m clauses,
    so (K, L) and the certificate's paths grow as 2^m."""
    rules = "".join(f"    if eq_Nat(c, {i}) then c := succ(c)\n" for i in range(1, m + 1))
    sm = parse_source("sort Nat = 0..20\nstatic succ : Nat -> Nat = builtin succ\n"
                      "dynamic c : -> Nat output\ninit c = 0\n"
                      f"program:\n  par {{\n{rules}  }}\n")
    return sm.machine(), sm.state()


@pytest.fixture
def rng():
    return random.Random(20260824)
