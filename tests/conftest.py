"""Shared random generators for terms, programs, and states, the loader
of the bundled machines, and the concrete probe blocks that cross-check
the compiler's abstract certificate."""
from __future__ import annotations

import functools
import random
from pathlib import Path
from typing import NamedTuple, Optional

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
from asmlc.lambda_f import FSignature, code_term
from asmlc.sourcefmt import SourceMachine, parse_source
from asmlc.terms import Abs, App, Term, Var, app

MACHINES = Path(__file__).resolve().parent.parent / "machines"


@functools.cache
def bundled(name: str) -> SourceMachine:
    """``machines/<name>.asm``, parsed once per session."""
    return parse_source((MACHINES / f"{name}.asm").read_text(encoding="utf-8"))


# Inputs to compile each bundled machine at, and its (K, L) there.
BUNDLED_COSTS = {"euclid": ({"a0": 1, "b0": 1}, (8, 7)),
                 "doubling": ({"stop": 4}, (8, 15)),
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


@pytest.fixture
def rng():
    return random.Random(20260824)
