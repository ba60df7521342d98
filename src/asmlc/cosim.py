"""Lockstep verification: run the machine and its compiled term side by
side, advancing the term by exactly K+L reductions per machine step and
comparing decoded snapshots slot by slot; plus the decoration audit
comparing published reduction counts against measured ones.  A round
that ends on no decodable term is diagnosed by the certificate's block
driver (``combinators.blocks``) from the round's start.
"""
from __future__ import annotations

from typing import NamedTuple

from .asm import Machine, State, run
from .combinators import blocks, curry_fixpoint
from .compiler import CompiledMachine, DecodeError, decode_result, delta_as_map
from .encodings import (
    PRED,
    SUCC,
    TRUE_TERM,
    ZERO_TEST,
    measure_beta,
    nat,
    projection_cost,
    selection_cost,
)
from .engine import STATUS_RAN, STATUS_UNDEFINED, advance_term
from .lambda_f import FSignature, UndefinedApplication
from .terms import Abs, App, Term, Var, alpha_eq, app


class RoundRecord(NamedTuple):
    index: int
    beta_count: int
    f_count: int
    kind: str  # "running" | "success" | "fail" | "clash" | "undecodable" | "undefined"
    match: bool
    note: str = ""


class LockstepReport(NamedTuple):
    K: int
    L: int
    rounds: tuple[RoundRecord, ...]
    asm_outcome: str
    term_outcome: str
    verdict: str  # "pass" | "fail" | "inconclusive"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


_EXIT_OF = {"halt": "success", "implicit-halt": "success",
            "fail": "fail", "clash": "clash"}

# A failed round's diagnostic block run stops after this many rounds' budget.
_NOTE_ROUNDS = 4


def _slot_diff(what: str, decoded, tables: dict, initial: State) -> str:
    """The first slot where the decoded codes and the machine's tables
    disagree, described after ``what``, or "" when they agree.
    ``decoded`` holds (slot, code) pairs.  A plain slot agrees when its
    payload is the machine's value; a difference-list slot must be a
    functional list, and agrees as a map over the initial table
    (grid-free: both sides are finite tables)."""
    for slot, got in decoded:
        name, table = slot.name, tables[slot.name]
        if slot.delta is None:
            want = table.get(())
            if got.datatype == slot.datatype and got.payload == want:
                continue
            got = got.payload
        else:
            want = table
            diff = delta_as_map(got)
            if len(diff) != len(got.payload):
                return f"{what} {name} holds a non-functional list {got.payload!r}"
            got = dict(initial.dynamics[name])
            got.update(diff)
            if got == want:
                continue
        return f"{what} {name} is {got!r} in the term, {want!r} in the machine"
    return ""


def _block_note(t: Term, cm: CompiledMachine) -> str:
    """What the block from ``t`` costs (``combinators.blocks``), against
    (K, L).  The run is cut at a few rounds' budget, so a term that
    never reaches a boundary costs no more than that to diagnose."""
    limit = _NOTE_ROUNDS * (cm.K + cm.L)
    try:
        ((_, _, beta, f, status),), _ = blocks(t, cm.theta, cm.slots, cm.sig,
                                               cm.theta_free, limit)
    except UndefinedApplication as exc:
        return f"no block boundary from the round's start ({exc})"
    if status == STATUS_RAN:
        return f"no block boundary within {limit} steps of the round's start"
    got = (beta, f)
    if got == (cm.K, cm.L):
        return f"the block takes (beta, F) = {got} as budgeted"
    return f"counts off: the block takes (beta, F) = {got}, want {(cm.K, cm.L)}"


def _slot_args(t: Term, k: int) -> tuple:
    """The last ``k`` arguments of ``t``, last first: for theta applied
    to slot codes, the codes that ``combinators.decode_state`` peels off
    theta, and a round's key in the round memo."""
    args = []
    for _ in range(k):
        args.append(t.arg)
        t = t.fun
    return tuple(args)


def lockstep(machine: Machine, cm: CompiledMachine, state: State,
             max_steps: int = 10_000) -> LockstepReport:
    """One round per machine step; the final round must land on the
    exit normal form within the same (K, L) budget.  A failed round
    says why in its note: the step counts are off, the decoded state or
    outputs differ from the machine's (the first slot that differs),
    the term cannot be decoded (with what the block from the round's
    start costs, run through ``combinators.blocks`` as the certificate
    is), or a partial function was applied outside its domain (kind
    "undefined").  A failed round makes the verdict "fail", even in a
    run cut at ``max_steps``; a cut run whose rounds all match is
    "inconclusive".

    Every round advances through the compiled machine's round memo
    (``engine.advance_term``), keyed by the round's start slot
    arguments (``_slot_args``): under one instance theta is fixed, so a
    round whose slot arguments an earlier round of any run under ``cm``
    started from is looked up, not reduced again.  Each distinct round
    is decoded once too: its entry keeps the decoded result and the next
    round's key, so a repeated round costs one lookup on k small codes.
    Its counts and result are those of the reduction, and every round's
    state is still compared with the machine's.  The rounds run
    ``cm.with_inputs(state)``."""
    cm = cm.with_inputs(state)
    result = run(machine, state, max_steps)
    initial = result.trajectory[0]
    K, L = cm.K, cm.L
    t = cm.term_of(initial)
    rounds: list[RoundRecord] = []
    ok = True

    expected = [("running", s) for s in result.trajectory[1:]]
    if result.kind == "diverged":
        verdict_hint = "inconclusive"
    else:
        expected.append((_EXIT_OF[result.kind], None))
        verdict_hint = None

    memo, k = cm.round_memo, cm.k
    key = _slot_args(t, k)
    for i, (want_kind, want_state) in enumerate(expected, start=1):
        start = t
        entry = advance_term(start, cm.sig, K + L, cm.theta_free, memo, key)
        t, beta, f, status = entry[:4]
        if status == STATUS_UNDEFINED:
            rounds.append(RoundRecord(i, beta, f, "undefined", False,
                                      f"undefined application after (beta, F) = {(beta, f)}"))
            ok = False
            break
        if len(entry) == 4:  # a new round: decode it once, for every run
            try:
                d = decode_result(t, cm)
            except DecodeError:
                d = None
            after = _slot_args(t, k) if d is not None and d.kind == "running" else None
            entry = memo[key] = (*entry, d, after)
        d, key = entry[4:]
        if d is None:
            note = (f"undecodable term after (beta, F) = {(beta, f)}; "
                    + _block_note(start, cm))
            rounds.append(RoundRecord(i, beta, f, "undecodable", False, note))
            ok = False
            break
        if (beta, f) != (K, L):
            note = f"counts off: (beta, F) = {(beta, f)}, want {(K, L)}"
        elif d.kind != want_kind:
            note = f"outcome mismatch: the term reached {d.kind}, the machine {want_kind}"
        elif d.kind == "running":
            note = _slot_diff("state mismatch: slot", zip(cm.slots, d.values),
                              want_state.dynamics, initial)
        elif d.kind == "success":
            # the machine's outputs are the tables of the state it halted in
            note = _slot_diff("output mismatch:",
                              ((s, d.outputs[s.name]) for s in cm.slots
                               if s.name in d.outputs),
                              result.trajectory[-1].dynamics, initial)
        else:
            note = ""
        rounds.append(RoundRecord(i, beta, f, d.kind, not note, note))
        if note:
            ok = False
            break

    verdict = "fail" if not ok else (verdict_hint or "pass")
    term_outcome = rounds[-1].kind if rounds else "none"
    return LockstepReport(K, L, tuple(rounds), result.kind, term_outcome, verdict)


# ---------------------------------------------------------------------------
# Decoration audit


class AuditRow(NamedTuple):
    name: str
    parameters: str
    claimed: str
    measured: str
    match: bool
    note: str = ""


_CONVENTION_NOTE = ("published count uses a coarser step convention; "
                    "this engine counts one contracted redex per step")
_SELECTION_NOTE = ("theta selects in place, the last branch an untested "
                   "else-arm: 2(n-1)")


def decoration_audit() -> list[AuditRow]:
    rows: list[AuditRow] = []

    # Curry fixed point: one step to f applied to the fixpoint.
    f = Abs("v", App(Var("v"), Var("v")))
    theta = curry_fixpoint(f)
    t, beta, _, _ = advance_term(theta, FSignature(), 1)
    measured = beta if alpha_eq(t, App(f, theta)) else -1
    rows.append(AuditRow("curry-fixpoint", "", "1", str(measured), measured == 1))

    # Tuple projections: 1+k.
    for k in range(1, 6):
        costs = {projection_cost(k, i) for i in range(1, k + 1)}
        m = costs.pop() if len(costs) == 1 else -1
        rows.append(AuditRow("projection", f"k={k}", str(1 + k), str(m), m == 1 + k))

    # If-Then-Else dispatch on a Boolean.
    t = App(Abs("z", app(Var("z"), Var("m"), Var("n"))), TRUE_TERM)
    nf, steps = measure_beta(t)
    rows.append(AuditRow("if-then-else", "", "2", str(steps),
                         steps == 2, "" if steps == 2 else _CONVENTION_NOTE))

    # Branch selection, built by the helper theta uses: published 3n;
    # theta's selector costs 2(n-1) at every firing position.
    for n in range(1, 7):
        costs = {selection_cost(n, i) for i in range(1, n + 1)}
        m = costs.pop() if len(costs) == 1 else -1
        rows.append(AuditRow("case", f"n={n}", str(3 * n), str(m),
                             m == 3 * n, _SELECTION_NOTE if m != 3 * n else ""))

    # Naturals.
    for name, term, claimed in (
        ("zero-test-on-0", App(ZERO_TEST, nat(0)), 3),
        ("zero-test-on-succ", App(ZERO_TEST, nat(3)), 3),
        ("succ", App(SUCC, nat(2)), 3),
        ("pred", App(PRED, nat(3)), 3),
    ):
        _, steps = measure_beta(term)
        rows.append(AuditRow(name, "", str(claimed), str(steps),
                             steps == claimed,
                             "" if steps == claimed else _CONVENTION_NOTE))
    return rows


def render_audit(rows: list[AuditRow]) -> str:
    headers = ("construction", "parameters", "published", "measured", "match", "note")
    table = [headers] + [
        (r.name, r.parameters, r.claimed, r.measured,
         "yes" if r.match else "NO", r.note)
        for r in rows
    ]
    widths = [max(len(row[c]) for row in table) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
