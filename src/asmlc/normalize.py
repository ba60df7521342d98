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

from itertools import product
from typing import NamedTuple

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


class Clause(NamedTuple):
    literals: tuple[Literal, ...]
    instructions: tuple[Instruction, ...]


class GuardedProgram(NamedTuple):
    conditions: tuple[TypedTerm, ...]
    clauses: tuple[Clause, ...]


def _collect(p: Program, path: tuple[tuple[int, bool], ...], conds: list[TypedTerm],
             out: list):
    """Place every instruction under its path of (condition index,
    sign) pairs.  Conditions are told apart by an equality scan, never
    hashed, since hashing a term walks all of it; nor by ``list.index``,
    whose miss builds the missing term's ``repr`` for its error."""
    if isinstance(p, (Update, HaltI, FailI)):
        out.append((path, p))
    elif isinstance(p, If):
        cond = p.cond
        for i, c in enumerate(conds):
            if c is cond or c == cond:
                break
        else:
            i = len(conds)
            conds.append(cond)
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


def to_program(gp: GuardedProgram) -> Program:
    """Re-materialize the guarded form as an ordinary program.

    Each guard equals the left-nested ``and`` of its clause's literals,
    a negative literal as ``not`` of its condition, but the guards form
    one DAG: one ``not`` node per negated condition and one ``and``
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
                    lit = negated[id(c)] = TApp("not", (c,))
            if g is None:
                g = lit
                continue
            key = (id(g), id(lit))
            node = conj.get(key)
            if node is None:
                node = conj[key] = TApp("and", (g, lit))
            g = node
        body: Program = Par(cl.instructions)
        blocks.append(body if g is None else If(g, body))
    return Par(tuple(blocks))


def run_signature(s: State, p: Program, max_steps: int):
    """Everything observable about a run, for equivalence checking.
    Trajectory states compare by their dynamic tables: two states are
    equal when they map the same names to equal tables, whatever order
    the entries were written in."""
    r = run_from_state(s, p, max_steps)
    return (
        r.kind,
        r.steps,
        tuple(st.dynamics for st in r.trajectory),
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
