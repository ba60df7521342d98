"""Acceptance gate: twelve end-to-end criteria, one test each.

Each test prints a single PASS line with its measured quantities; the
stated time budgets are asserted, not just reported.
"""
import math
import random
import time

import pytest

from asmlc.asm import run
from asmlc.combinators import curry_fixpoint
from asmlc.compiler import (
    compile_machine,
    decode_result,
    delta_as_map,
    slot_values_for_state,
)
from asmlc.cosim import decoration_audit, lockstep
from asmlc.encodings import match_nat, projection_cost
from asmlc.engine import STATUS_NORMAL, advance_term
from asmlc.lambda_f import FSignature
from asmlc.normalize import check_equivalence, normalize, to_program
from asmlc.terms import App, alpha_eq

from conftest import (
    ConfluenceInconclusive,
    bundled,
    check_confluence_bounded,
    counter_family,
    counter_state,
    counter_vocabulary,
    machine_probes,
    probe_blocks,
    random_closed_term,
    random_program,
    random_term,
    reduce_cost,
    semantics,
)
from traced import f_redexes, reduce_leftmost_f


def test_01_interpreter_gcd_grid():
    """gcd machine equals math.gcd on the full 1..50 square in < 5s."""
    sm = bundled("euclid")
    machine = sm.machine()
    t0 = time.perf_counter()
    for a in range(1, 51):
        for b in range(1, 51):
            r = run(machine, sm.state({"a0": a, "b0": b}), 1000)
            assert r.kind == "implicit-halt"
            assert r.outcome.outputs["a"] == math.gcd(a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS: 2500 gcd runs match math.gcd in {elapsed:.2f}s (< 5s)")


def test_02_lockstep_gcd_grid():
    """Every machine step is exactly (K, L) reductions of the compiled
    term over the full 1..20 square, in < 60s."""
    sm = bundled("euclid")
    machine = sm.machine()
    cm = compile_machine(machine, sm.state({"a0": 1, "b0": 1}))
    t0 = time.perf_counter()
    for a in range(1, 21):
        for b in range(1, 21):
            rep = lockstep(machine, cm, sm.state({"a0": a, "b0": b}))
            assert rep.passed, (a, b, rep)
            assert all((r.beta_count, r.f_count) == (cm.K, cm.L)
                       for r in rep.rounds)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS: 400 trajectories in lockstep at ({cm.K}, {cm.L}) "
          f"in {elapsed:.2f}s (< 60s)")


def test_03_fail_and_clash_exit_codes():
    """Failing and clashing machines reach their numeric exit codes as
    normal forms within a single block."""
    results = {}
    for want_kind, want_code in (("fail", 2), ("clash", 3)):
        sm = bundled(want_kind)
        machine, state = sm.machine(), sm.state({})
        cm = compile_machine(machine, state)
        t, beta, f, status = advance_term(cm.initial_term(state), cm.sig,
                                          cm.K + cm.L)
        assert (beta, f) == (cm.K, cm.L)
        assert status == STATUS_NORMAL
        d = decode_result(t, cm)
        assert d.kind == want_kind
        assert match_nat(t) == want_code  # the exit IS the numeral
        results[want_kind] = (cm.K, cm.L)
    print(f"\nPASS: fail -> numeral 2 at {results['fail']}, "
          f"clash -> numeral 3 at {results['clash']}, each in one block")


def test_04_delta_fidelity_lockstep():
    """The tabulating machine stays in lockstep and its difference list
    merges to exactly the machine's final table, in < 60s."""
    t0 = time.perf_counter()
    sm = bundled("doubling")
    machine, state = sm.machine(), sm.state({"stop": 4})
    cm = compile_machine(machine, state)
    rep = lockstep(machine, cm, state)
    assert rep.passed

    # explicit fidelity check on the decoded final output
    t = cm.initial_term(state)
    for _ in range(len(rep.rounds)):
        t, *_ = advance_term(t, cm.sig, cm.K + cm.L)
    d = decode_result(t, cm)
    assert d.kind == "success"
    delta = delta_as_map(d.outputs["f"])
    merged = dict(machine.initial_state(state).dynamics["f"])
    merged.update(delta)
    asm_final = run(machine, state, 100).outcome.outputs["f"]
    assert merged == asm_final
    assert len(delta) == len(d.outputs["f"].payload)  # functional list
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS: difference list merges to the machine table "
          f"({len(delta)} entries) at ({cm.K}, {cm.L}) in {elapsed:.2f}s")


def test_05_padding_exact_or_refused():
    """Theta's padding, through compile_machine on euclid (a value first
    slot) and doubling (a difference-list first slot): for K' in 0..5
    and L' in 0..4, a compile at (K_min+K', L_min+L') holds no resident
    F-redex and takes exactly that budget from every probe, and the
    traced reducer agrees on the first; it is refused exactly when
    K' = 0 < L'."""
    checked = refused = 0
    for name, inputs in (("euclid", {"a0": 6, "b0": 4}), ("doubling", {"stop": 4})):
        sm = bundled(name)
        machine, state = sm.machine(), sm.state(inputs)
        base = compile_machine(machine, state)
        probes = machine_probes(machine, state, base.slots)
        for dk in range(6):
            for dl in range(5):
                K, L = base.K + dk, base.L + dl
                if dk == 0 < dl:
                    with pytest.raises(ValueError, match=f"least K for L={L} is {K + 1}$"):
                        compile_machine(machine, state, K, L)
                    refused += 1
                    continue
                cm = compile_machine(machine, state, K, L)
                assert (cm.K, cm.L) == (K, L)
                assert list(f_redexes(cm.theta, cm.sig)) == [], (name, dk, dl)
                blocks = probe_blocks(cm, probes)
                for _, b in blocks:
                    assert (b.beta_count, b.f_count) == (K, L), (name, dk, dl)
                r = reduce_leftmost_f(blocks[0][0], cm.sig, K + L)
                assert (r.trace.beta_count, r.trace.f_count) == (K, L)
                assert decode_result(r.term, cm).kind == "running"
                checked += 1
    assert (checked, refused) == (52, 8)
    print(f"\nPASS: {checked} padded compiles exact on every probe, "
          f"{refused} F-padding requests at K_min refused")


def test_06_fixpoint_single_step():
    """The fixpoint combinator applied to 25 random closed terms reaches
    f(fixpoint) in exactly one leftmost step."""
    rng = random.Random(1106)
    for _ in range(25):
        f = random_closed_term(rng, rng.randint(1, 10))
        theta = curry_fixpoint(f)
        r = reduce_leftmost_f(theta, FSignature(), 1)
        assert r.trace.beta_count == 1
        assert alpha_eq(r.term, App(f, theta))
    print("\nPASS: 25 random closed fixpoints unfold in exactly 1 step")


def test_07_projection_costs():
    """Extracting any component of a k-tuple costs exactly 1 + k steps
    for k up to 5."""
    for k in range(1, 6):
        for i in range(1, k + 1):
            assert projection_cost(k, i) == 1 + k
    print("\nPASS: all projections for k <= 5 cost exactly 1 + k")


def test_08_normalizer_run_equivalence():
    """100 random programs (conditional depth <= 4) agree with their
    guarded normal forms on 20 states each: 100%."""
    rng = random.Random(1108)
    voc = counter_vocabulary()
    states = [counter_state(voc, rng.randrange(5), rng.randrange(5))
              for _ in range(20)]
    agreed = 0
    for _ in range(100):
        prog = random_program(rng, 4)
        if check_equivalence(prog, to_program(normalize(prog)), states):
            agreed += 1
    assert agreed == 100
    print(f"\nPASS: {agreed}/100 random programs equivalent to their "
          "guarded normal forms on 20 states")


def test_09_bounded_confluence():
    """200 random terms of size <= 12: all reduction sequences to depth
    6 rejoin (no confluence counterexample)."""
    rng = random.Random(1109)
    conclusive = 0
    for _ in range(200):
        t = random_term(rng, rng.randint(1, 12))
        try:
            assert check_confluence_bounded(t, depth=6)
            conclusive += 1
        except ConfluenceInconclusive:
            pass  # blowup guard hit; still no counterexample
    assert conclusive >= 150
    print(f"\nPASS: no confluence counterexample in 200 terms "
          f"({conclusive} fully conclusive)")


def _corpus_good_terms():
    """Guards and update entries from the two compiled examples,
    paired with >= 3 defined valuations each."""
    out = []
    for name, bindings in (("euclid", {"a0": 9, "b0": 6}), ("doubling", {"stop": 4})):
        sm = bundled(name)
        machine, state = sm.machine(), sm.state(bindings)
        cm = compile_machine(machine, state)
        r = run(machine, state, 100)
        s0 = machine.initial_state(state)
        # the terms read the inputs too, bound to the state's values
        inputs = {s.name: v for s, v in zip(cm.inputs, cm.binding)}
        valuations = []
        for st in r.trajectory:
            vals = slot_values_for_state(cm.slots, st, s0)
            valuations.append({**inputs, **{s.name: v for s, v in zip(cm.slots, vals)}})
        terms = []
        for b in cm.branches:
            terms.append(b.guard)
            if hasattr(b, "updates"):
                terms.extend(b.updates)
        out.append((cm, terms, valuations))
    return out


def test_10_good_term_cost_value_independence():
    """Every compiled guard/update term reduces with the same F-cost on
    at least 3 distinct valuations (cost depends on the term, not the
    state)."""
    total = 0
    for cm, terms, valuations in _corpus_good_terms():
        for g in terms:
            if not g.fv:
                continue  # ground terms were folded to codes
            defined = [v for v in valuations
                       if semantics(g, cm.sig, v) is not None]
            assert len(defined) >= 3
            # reduce_cost raises unless the cost is a single number
            reduce_cost(g, cm.sig, defined[:5])
            total += 1
    assert total > 0
    print(f"\nPASS: {total} corpus terms have valuation-independent "
          "F-cost (>= 3 valuations each)")


def test_11_decoration_audit():
    """Fixpoint and projection counts match exactly; the remaining
    published counts are recorded with an explanatory note where the
    step convention differs."""
    rows = decoration_audit()
    by_name = {}
    for r in rows:
        by_name.setdefault(r.name, []).append(r)
    assert all(r.match for r in by_name["curry-fixpoint"])
    assert all(r.match for r in by_name["projection"])
    # theta's selector: 2(n-1) against the published 3n, with its note
    for n, r in enumerate(by_name["case"], 1):
        assert r.measured == str(2 * (n - 1)) and "else-arm" in r.note
    for name in ("if-then-else", "case", "zero-test-on-0",
                 "zero-test-on-succ", "succ", "pred"):
        assert name in by_name  # recorded
        for r in by_name[name]:
            assert r.match or r.note  # mismatches carry the note
    print(f"\nPASS: audit has {len(rows)} rows; fixpoint/projection "
          "exact, convention rows annotated")


def test_12_step_budget_growth_curve():
    """The minimal beta budget K_min grows monotonically with machine
    size and stays within a quadratic envelope."""
    curve = []
    for n in range(1, 6):
        machine, state = counter_family(n)
        cm = compile_machine(machine, state)
        size = n  # dynamic symbols; guards/updates grow linearly with n
        curve.append((size, cm.K_min))
        # sanity: the family actually runs and stays in lockstep
        assert lockstep(machine, cm, state).passed
    kmins = [k for _, k in curve]
    assert kmins == sorted(kmins)  # monotone nondecreasing
    # quadratic envelope anchored at the smallest instance
    c = kmins[0]
    for size, k in curve:
        assert k <= c * size * size
    print(f"\nPASS: K_min curve {curve} is monotone and within "
          f"{c} * size^2")
