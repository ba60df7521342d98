from dataclasses import replace

import pytest

from asmlc import cosim, engine
from asmlc.asm import If, Machine, Par, TApp, Update
from asmlc.compiler import compile_machine
from asmlc.cosim import _slot_diff, decoration_audit, lockstep, render_audit
from asmlc.engine import scan
from asmlc.lambda_f import FSignature, Value
from asmlc.sourcefmt import parse_source
from asmlc.terms import Abs, App, Var, lam

from conftest import bundled, counter_state, counter_vocabulary, random_machines


@pytest.fixture(scope="module")
def euclid_cm():
    sm = bundled("euclid")
    machine = sm.machine()
    return machine, compile_machine(machine, sm.state({"a0": 1, "b0": 1}))


def test_lockstep_gcd(euclid_cm):
    machine, cm = euclid_cm
    rep = lockstep(machine, cm, bundled("euclid").state({"a0": 36, "b0": 24}))
    assert rep.passed
    assert all(r.match for r in rep.rounds)
    assert all((r.beta_count, r.f_count) == (cm.K, cm.L) for r in rep.rounds)
    assert rep.rounds[-1].kind == "success"


def test_lockstep_small_grid(euclid_cm):
    machine, cm = euclid_cm
    for a in range(1, 8):
        for b in range(1, 8):
            assert lockstep(machine, cm, bundled("euclid").state({"a0": a, "b0": b})).passed


def _count_runs_and_decodes(monkeypatch) -> dict:
    """Count the engine runs (``engine._advance``) and the decodes
    (``decode_result`` as ``cosim`` binds it) of what follows."""
    counts = {"runs": 0, "decodes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "_advance", counted("runs", engine._advance))
    monkeypatch.setattr(cosim, "decode_result", counted("decodes", cosim.decode_result))
    return counts


def test_round_memo_reduces_each_distinct_round_once(monkeypatch):
    """euclid over the 12x12 grid under one compile, twice: every report
    equals that of a fresh compile for its case; the first pass reduces
    and decodes 156 distinct rounds for its 482 rounds, the second
    none."""
    sm = bundled("euclid")
    machine = sm.machine()
    cases = [sm.state({"a0": a, "b0": b}) for a in range(1, 13) for b in range(1, 13)]
    fresh = [lockstep(machine, compile_machine(machine, s), s).rounds for s in cases]
    cm = compile_machine(machine, sm.state({"a0": 1, "b0": 1}))
    counts = _count_runs_and_decodes(monkeypatch)
    for want in (156, 0):
        counts.update(runs=0, decodes=0)
        got = [lockstep(machine, cm, s).rounds for s in cases]
        assert got == fresh
        assert sum(map(len, got)) == 482
        assert counts == {"runs": want, "decodes": want}
    assert len(cm.round_memo) == 156


# A Bool slot read only through init: one instance serves every input
# pair, and its round keys hold lambda booleans.
BLINK = """\
sort Nat = 0..6
static succ : Nat -> Nat = builtin succ
static lt : Nat Nat -> Bool = builtin lt
input n0 : Nat
input on0 : Bool
dynamic on : -> Bool output
dynamic n : -> Nat output
init on = on0
init n = n0
program:
  if lt(n, 5) then
    par {
      on := not(on)
      n := succ(n)
    }
"""


def test_round_memo_keys_bool_slots_by_their_lambda_terms(monkeypatch):
    """A machine with a Bool slot passes lockstep over its input grid
    through a warm round memo, with the reports of fresh compiles: keys
    compare lambda booleans by ``==``, not as decoded values, so each
    entry answers only for its own start term."""
    sm = parse_source(BLINK)
    machine = sm.machine()
    cases = [sm.state({"n0": n, "on0": on}) for n in range(7) for on in (False, True)]
    fresh = [lockstep(machine, compile_machine(machine, s), s) for s in cases]
    assert all(rep.passed for rep in fresh)
    cm = compile_machine(machine, cases[0])
    assert [s.datatype for s in cm.slots] == ["Bool", "Nat"]
    assert [lockstep(machine, cm, s) for s in cases] == fresh
    counts = _count_runs_and_decodes(monkeypatch)
    assert [lockstep(machine, cm, s) for s in cases] == fresh
    assert counts == {"runs": 0, "decodes": 0}
    assert all(type(key[-1]) is Abs for key in cm.round_memo)


def test_replaced_combinator_starts_with_an_empty_memo(euclid_cm):
    """A compiled machine derived by dataclasses.replace from a warm one,
    with another budget or another signature, starts with an empty round
    memo and reports what the same replacement of a cold compile
    reports."""
    machine, cm = euclid_cm
    sm = bundled("euclid")
    state = sm.state({"a0": 6, "b0": 4})
    assert lockstep(machine, cm, state).passed and cm.round_memo
    functions = dict(cm.sig.functions)
    functions["rem"] = functions["rem"]._replace(fn=lambda a, b: None)
    undefined_rem = FSignature(functions)

    def budget(c):
        return replace(c, K=c.K + 1)

    def signature(c):
        return replace(c, sig=undefined_rem)

    for derive in (budget, signature):
        warm = derive(cm)
        assert warm.round_memo == {} and warm.round_memo is not cm.round_memo
        cold = derive(compile_machine(machine, sm.state({"a0": 1, "b0": 1})))
        rep = lockstep(machine, warm, state)
        assert not rep.passed
        assert rep == lockstep(machine, cold, state)


def test_random_programs_lockstep():
    """The machines of the seeded random stream (``random_machines``:
    the 120 of ``benchmarks/bench_cost.py``'s random-1108 record, whose
    largest compiles to (K, L) = (104, 4021)), each compiled at its
    minima and at (K_min+1, L_min+1), which pads through the discard
    binding: each certificate has one path per kept branch, no run
    fails, and a run is inconclusive only when the machine diverged and
    every round matched.  The test must stay under 2 s."""
    state = counter_state(counter_vocabulary(), 0, 0)
    verdicts = {"pass": 0, "inconclusive": 0}
    for machine in random_machines():
        least = compile_machine(machine, state)
        padded = compile_machine(machine, state, least.K + 1, least.L + 1)
        for cm in (least, padded):
            # one abstract path per branch theta keeps
            assert cm.certificate.paths == len(cm.branches)
            rep = lockstep(machine, cm, state, max_steps=30)
            assert rep.verdict != "fail", (machine.program, cm.K, cm.L, rep.rounds[-1])
            # the rerun reads its rounds from the memo the first run filled
            assert lockstep(machine, cm, state, max_steps=30) == rep
            if rep.verdict == "inconclusive":
                assert rep.asm_outcome == "diverged"
                assert all(r.match for r in rep.rounds)
            verdicts[rep.verdict] += 1
    assert verdicts["pass"] > verdicts["inconclusive"] > 0


def test_lockstep_fail_and_clash():
    for kind in ("fail", "clash"):
        sm = bundled(kind)
        machine, state = sm.machine(), sm.state({})
        cm = compile_machine(machine, state)
        rep = lockstep(machine, cm, state)
        assert rep.passed
        assert len(rep.rounds) == 1
        assert rep.rounds[0].kind == kind


def test_lockstep_delta_machine():
    sm = bundled("doubling")
    machine, state = sm.machine(), sm.state({"stop": 4})
    cm = compile_machine(machine, state)
    rep = lockstep(machine, cm, state)
    assert rep.passed
    assert rep.rounds[-1].kind == "success"


def test_lockstep_detects_wrong_constants():
    # a deliberately mis-budgeted run must be flagged, not passed
    sm = bundled("euclid")
    machine = sm.machine()
    cm = compile_machine(machine, sm.state({"a0": 1, "b0": 1}))
    bad = replace(cm, K=cm.K + 1)
    rep = lockstep(machine, bad, sm.state({"a0": 6, "b0": 4}))
    assert not rep.passed
    last = rep.rounds[-1]
    assert not last.match and last.kind == "undecodable"
    # the note names the block's real cost and the wrong budget
    assert f"({cm.K}, {cm.L})" in last.note and f"({cm.K + 1}, {cm.L})" in last.note


def test_lockstep_cut_run_with_a_failed_round_fails():
    # the machine is cut at max_steps, but round 1 already failed: a
    # failed round decides the verdict, not the cut
    sm = bundled("doubling")
    machine, state = sm.machine(), sm.state({"stop": 4})
    cm = compile_machine(machine, state)
    bad = replace(cm, K=cm.K + 1)
    rep = lockstep(machine, bad, state, max_steps=2)
    assert rep.asm_outcome == "diverged"
    assert rep.verdict == "fail"
    last = rep.rounds[-1]
    assert (last.index, last.kind, last.match) == (1, "undecodable", False)


def test_lockstep_reports_state_mismatch(euclid_cm):
    machine, cm = euclid_cm
    program = If(TApp("lt", (TApp("zero"), TApp("b"))), Par((
        Update("a", (), TApp("a")),  # the compiled machine sets a := b
        Update("b", (), TApp("rem", (TApp("a"), TApp("b")))),
    )))
    other = Machine(machine.voc, program, machine.init)
    rep = lockstep(other, cm, bundled("euclid").state({"a0": 6, "b0": 4}))
    assert not rep.passed
    last = rep.rounds[-1]
    assert (last.index, last.kind, last.match) == (1, "running", False)
    assert "slot a" in last.note and "4" in last.note and "6" in last.note


def test_one_slot_comparison_for_states_and_outputs():
    """Decoded states and decoded outputs go through one slot comparison:
    a plain slot by its payload, a difference-list slot as a map over
    the initial table, which must come from a functional list; so a
    non-functional output list is reported as a state's is."""
    sm = bundled("doubling")
    machine, state = sm.machine(), sm.state({"stop": 4})
    cm = compile_machine(machine, state)
    initial = machine.initial_state(state)
    f, i = cm.slots
    tables = initial.dynamics
    same = ((f, Value("L_f", ())), (i, Value("Nat", 0)))
    moved = ((f, Value("L_f", ((1, 2),))), (i, Value("Nat", 0)))
    twice = ((f, Value("L_f", ((1, 2), (1, 3)))), (i, Value("Nat", 0)))
    for what in ("state mismatch: slot", "output mismatch:"):
        assert _slot_diff(what, same, tables, initial) == ""
        assert _slot_diff(what, ((i, Value("Nat", 3)),), tables, initial) == (
            f"{what} i is 3 in the term, 0 in the machine")
        merged = dict(tables["f"])
        merged[(1,)] = 2
        assert _slot_diff(what, moved, tables, initial) == (
            f"{what} f is {merged!r} in the term, {tables['f']!r} in the machine")
        assert _slot_diff(what, twice, tables, initial) == (
            f"{what} f holds a non-functional list ((1, 2), (1, 3))")


def test_lockstep_reports_undefined_application(euclid_cm):
    machine, cm = euclid_cm
    functions = dict(cm.sig.functions)
    functions["rem"] = functions["rem"]._replace(fn=lambda a, b: None)
    bad = replace(cm, sig=FSignature(functions))
    rep = lockstep(machine, bad, bundled("euclid").state({"a0": 6, "b0": 4}))
    assert rep.verdict == "fail"
    last = rep.rounds[-1]
    assert (last.index, last.kind, last.match) == (1, "undefined", False)
    assert "undefined" in last.note


def test_lockstep_note_bounds_the_block_search(euclid_cm):
    # a theta that never returns to a block boundary: the note's search
    # stops after a few rounds' budget instead of the certifier's default
    machine, cm = euclid_cm
    omega = App(lam(["z"], App(Var("z"), Var("z"))), lam(["z"], App(Var("z"), Var("z"))))
    looping = lam([f"s{i}" for i in range(len(cm.slots))], omega)
    bad = replace(cm, theta=looping, theta_free=scan(looping, cm.sig)[1])
    rep = lockstep(machine, bad, bundled("euclid").state({"a0": 6, "b0": 4}))
    last = rep.rounds[-1]
    assert (last.index, last.kind, last.match) == (1, "undecodable", False)
    assert f"no block boundary within {4 * (cm.K + cm.L)} steps" in last.note


def test_audit_exact_rows():
    rows = {r.name: r for r in decoration_audit() if r.parameters == ""}
    assert rows["curry-fixpoint"].match
    by_name = [r for r in decoration_audit() if r.name == "projection"]
    assert by_name and all(r.match for r in by_name)


def test_audit_case_rows_measure_thetas_selector():
    # published 3n; theta's in-place selector costs 2(n-1), and the note
    # says why
    rows = [r for r in decoration_audit() if r.name == "case"]
    assert [r.parameters for r in rows] == [f"n={n}" for n in range(1, 7)]
    for n, r in enumerate(rows, 1):
        assert (r.claimed, r.measured, r.match) == (str(3 * n), str(2 * (n - 1)), False)
        assert "in place" in r.note and "else-arm" in r.note


def test_audit_convention_rows_carry_note():
    for r in decoration_audit():
        if not r.match:
            assert r.note  # every mismatch is explained


def test_render_audit_is_deterministic():
    a = render_audit(decoration_audit())
    b = render_audit(decoration_audit())
    assert a == b
    assert a.splitlines()[0].startswith("construction")
