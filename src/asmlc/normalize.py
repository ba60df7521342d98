"""Program normalization: flatten any program into a parallel block of
guarded instruction lists with mutually exclusive guards, preserving
runs exactly.

Construction: collect the distinct conditions C1..Cm occurring in the
program, enumerate all sign assignments, and give each assignment the
instructions whose path conditions it satisfies.  Guards built this way
are full conjunctions of +/-Ci, hence pairwise exclusive; assignments
with no instructions are dropped (they contribute nothing).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .asm import (
    FailI,
    HaltI,
    If,
    Par,
    Program,
    State,
    TApp,
    TypedTerm,
    Update,
    run_from_state,
)

Literal = tuple[TypedTerm, bool]  # (condition, expected truth value)
Instruction = Program  # Update | HaltI | FailI


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]
    instructions: tuple[Instruction, ...]


@dataclass(frozen=True)
class GuardedProgram:
    conditions: tuple[TypedTerm, ...]
    clauses: tuple[Clause, ...]


def _collect(p: Program, path: tuple[tuple[int, bool], ...], conds: list[TypedTerm],
             out: list):
    """Place every instruction under its path of (condition index,
    sign) pairs.  Conditions are told apart by equality, never hashed:
    hashing a term walks all of it."""
    if isinstance(p, (Update, HaltI, FailI)):
        out.append((path, p))
    elif isinstance(p, If):
        try:
            i = conds.index(p.cond)
        except ValueError:
            i = len(conds)
            conds.append(p.cond)
        _collect(p.then, path + ((i, True),), conds, out)
        _collect(p.orelse, path + ((i, False),), conds, out)
    elif isinstance(p, Par):
        for b in p.blocks:
            _collect(b, path, conds, out)


def normalize(p: Program) -> GuardedProgram:
    conds: list[TypedTerm] = []
    placed: list[tuple[tuple[tuple[int, bool], ...], Instruction]] = []
    _collect(p, (), conds, placed)
    clauses: list[Clause] = []
    for signs in product((True, False), repeat=len(conds)):
        instrs = []
        for path, ins in placed:
            if all(signs[i] == want for i, want in path):
                if ins not in instrs:
                    instrs.append(ins)
        if instrs:
            literals = tuple(zip(conds, signs))
            clauses.append(Clause(literals, tuple(instrs)))
    return GuardedProgram(tuple(conds), tuple(clauses))


def guard_term(literals: tuple[Literal, ...], and_sym: str = "and",
               not_sym: str = "not") -> Optional[TypedTerm]:
    """The guard as one Boolean term; None for the empty conjunction."""
    parts = [c if want else TApp(not_sym, (c,)) for c, want in literals]
    if not parts:
        return None
    t = parts[0]
    for q in parts[1:]:
        t = TApp(and_sym, (t, q))
    return t


def to_program(gp: GuardedProgram, and_sym: str = "and", not_sym: str = "not") -> Program:
    """Re-materialize the guarded form as an ordinary program.

    Each guard is ``==`` to ``guard_term(cl.literals)``, but the guards
    form one DAG: one ``not`` node per negated condition and one ``and``
    node per distinct literal prefix, so clauses that share a prefix
    share its node and ``successor`` evaluates it once per step."""
    negated: dict[int, TypedTerm] = {}  # id(condition) -> not(condition)
    conj: dict[tuple[int, int], TypedTerm] = {}  # (id(prefix), id(literal)) -> and
    blocks = []
    for cl in gp.clauses:
        g = None
        for c, want in cl.literals:
            lit = c
            if not want:
                lit = negated.get(id(c))
                if lit is None:
                    lit = negated[id(c)] = TApp(not_sym, (c,))
            if g is None:
                g = lit
                continue
            key = (id(g), id(lit))
            node = conj.get(key)
            if node is None:
                node = conj[key] = TApp(and_sym, (g, lit))
            g = node
        body: Program = Par(cl.instructions)
        blocks.append(body if g is None else If(g, body))
    return Par(tuple(blocks))


def run_signature(s: State, p: Program, max_steps: int):
    """Everything observable about a run, for equivalence checking."""
    r = run_from_state(s, p, max_steps)
    return (
        r.kind,
        r.steps,
        tuple(st.digest() for st in r.trajectory),
        r.outcome.reason,
        tuple(sorted(r.outcome.outputs.items())) if r.outcome.outputs else None,
    )


def check_equivalence(p: Program, q: Program, states: list[State], max_steps: int = 200) -> bool:
    """Full-run equality (trajectory, outcome, outputs, failure reason)
    from each sampled state."""
    return all(
        run_signature(s, p, max_steps) == run_signature(s, q, max_steps)
        for s in states
    )


def true_guard_count(s: State, gp: GuardedProgram) -> int:
    from .asm import eval_ground

    n = 0
    for cl in gp.clauses:
        vals = [eval_ground(s, c) for c, _ in cl.literals]
        if all(v == want for v, (_, want) in zip(vals, cl.literals)):
            n += 1
    return n
