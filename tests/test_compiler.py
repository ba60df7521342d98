import itertools
import math
import random

import pytest

from asmlc import asm, compiler
from asmlc.cli import main
from asmlc.compiler import (
    Translator,
    compile_machine,
    decode_result,
    delta_as_map,
    gand,
    gnot,
    gor,
)
from asmlc.combinators import const_count, static_f_work
from asmlc.cosim import lockstep
from asmlc.engine import advance_term, scan
from asmlc.lambda_f import BOOL, FALSE_TERM, TRUE_TERM, Value, standard_bool_signature
from asmlc.sourcefmt import parse_source
from asmlc.terms import App, Const, Var, app, term_size

from conftest import (
    BUNDLED_COSTS,
    MACHINES,
    bundled,
    counter_family,
    halves,
    machine_probes,
    probe_blocks,
    semantics,
)
from traced import f_redexes


@pytest.fixture(scope="module")
def euclid():
    sm = bundled("euclid")
    machine = sm.machine()
    return machine, compile_machine(machine, sm.state({"a0": 1, "b0": 1}))


def _run_compiled(cm, state, max_rounds=200):
    t = cm.initial_term(state)
    for _ in range(max_rounds):
        t, beta, f, _ = advance_term(t, cm.sig, cm.K + cm.L)
        d = decode_result(t, cm)
        if d.kind != "running":
            return d, (beta, f)
    raise AssertionError("no exit within the round budget")


def test_slots_in_declaration_order(euclid):
    machine, cm = euclid
    assert [s.name for s in cm.slots] == ["a", "b"]
    assert all(s.delta is None for s in cm.slots)


def test_manifest_contents(euclid):
    _, cm = euclid
    m = cm.manifest()
    assert m["K"] == cm.K and m["L"] == cm.L
    assert m["exit_codes"] == {"success": 1, "fail": 2, "clash": 3}
    assert m["guard_order"] == ["fail", "halt", "clause-0"]
    assert len(m["cost"]["F_branches"]) == m["branches"] == 3
    assert m["cost"]["F_branches"] == [4, 2, 1]


def test_compiled_gcd_matches_math_oracle(euclid):
    machine, cm = euclid
    for a, b in ((4, 6), (9, 9), (35, 21), (17, 5), (60, 48)):
        d, _ = _run_compiled(cm, bundled("euclid").state({"a0": a, "b0": b}))
        assert d.kind == "success"
        assert d.outputs["a"].payload == math.gcd(a, b)


def test_success_exit_in_exact_final_block(euclid):
    machine, cm = euclid
    d, counts = _run_compiled(cm, bundled("euclid").state({"a0": 8, "b0": 6}))
    assert d.kind == "success"
    assert counts == (cm.K, cm.L)  # the exit lands inside one block


def test_fail_machine_compiles_to_fail_code():
    sm = bundled("fail")
    state = sm.state({})
    cm = compile_machine(sm.machine(), state)
    d, counts = _run_compiled(cm, state)
    assert d.kind == "fail"
    assert counts == (cm.K, cm.L)


def test_clash_machine_compiles_to_clash_code():
    sm = bundled("clash")
    state = sm.state({})
    cm = compile_machine(sm.machine(), state)
    d, counts = _run_compiled(cm, state)
    assert d.kind == "clash"
    assert counts == (cm.K, cm.L)


def test_delta_machine_tabulates():
    sm = bundled("doubling")
    state = sm.state({"stop": 4})
    cm = compile_machine(sm.machine(), state)
    d, _ = _run_compiled(cm, state)
    assert d.kind == "success"
    delta = delta_as_map(d.outputs["f"])
    # every write is recorded, including f(0) := 0 which matches the
    # init table (the difference list is not minimized)
    assert delta == {(i,): 2 * i for i in range(4)}


def test_headroom_requests_exact():
    sm = bundled("euclid")
    machine, state = sm.machine(), sm.state({"a0": 1, "b0": 1})
    base = compile_machine(machine, state)
    cm = compile_machine(machine, state, K=base.K + 3, L=base.L + 2)
    assert (cm.K, cm.L) == (base.K + 3, base.L + 2)
    base_cost = base.manifest()["cost"]
    moved = {k for k, v in cm.manifest()["cost"].items() if v != base_cost[k]}
    assert moved == {"pad_K", "pad_L"}
    d, counts = _run_compiled(cm, sm.state({"a0": 10, "b0": 4}))
    assert d.kind == "success" and counts == (cm.K, cm.L)


def test_decode_running_state(euclid):
    machine, cm = euclid
    state = bundled("euclid").state({"a0": 6, "b0": 4})
    t, beta, f, _ = advance_term(cm.initial_term(state), cm.sig, cm.K + cm.L)
    d = decode_result(t, cm)
    assert d.kind == "running"
    assert [v.payload for v in d.values] == [4, 2]  # (a, b) after one step


def _bundled_case(name: str):
    sm = bundled(name)
    return sm.machine(), sm.state(BUNDLED_COSTS[name][0])


FORMULA_CASES = {
    **{name: (lambda name=name: _bundled_case(name), kl)
       for name, (_, kl) in BUNDLED_COSTS.items()},
    **{f"counter-{n}": (lambda n=n: counter_family(n), None) for n in range(1, 6)},
    "halves": (lambda: (halves().machine(), halves().state({"start": 0})), None),
}


@pytest.mark.parametrize("name", list(FORMULA_CASES))
def test_cost_formula_equals_measurement(name):
    """K_min = k + 2n and L_min = N, a default compile's certificate
    has one path per branch, the compiled theta measures exactly that
    on its probes, and the manifest's parts sum to it."""
    make, want = FORMULA_CASES[name]
    machine, state = make()
    c = compile_machine(machine, state)
    assert c.K_min == c.k + 2 * len(c.branches)
    assert c.L_min == static_f_work(c.branches)
    assert (c.K, c.L) == (c.K_min, c.L_min)
    if want is not None:
        assert (c.K_min, c.L_min) == want
    assert c.certificate.paths == len(c.branches)
    for _, b in probe_blocks(c, machine_probes(machine, state, c.slots)):
        assert (b.beta_count, b.f_count) == (c.K_min, c.L_min)
    cost = c.manifest()["cost"]
    assert cost["unfold"] + cost["load"] + cost["select"] + cost["pad_K"] == c.K
    assert sum(cost["F_branches"]) + cost["pad_L"] == c.L


def test_compile_runs_no_machine_step(monkeypatch, capsys):
    """``asmlc compile`` on every bundled machine, and compiling
    ``counter_family(1..5)``, call no interpreter step: the certificate
    is abstract, and only the initial state is built.  A machine run
    counts its steps."""
    calls = []
    successor = asm.successor
    monkeypatch.setattr(asm, "successor", lambda s, p: calls.append(1) or successor(s, p))
    for path in sorted(MACHINES.glob("*.asm")):
        assert main(["compile", str(path), "--term"]) == 0
    cases = [counter_family(n) for n in range(1, 6)]
    for machine, state in cases:
        compile_machine(machine, state)
    capsys.readouterr()
    assert calls == []
    machine, state = cases[0]
    asm.run(machine, state, 3)
    assert calls


def test_compile_tabulates_no_initial_dynamics(monkeypatch):
    """Compiling a bundled machine evaluates the init rules of its
    dynamic constants alone, to refuse an undefined one; it tabulates
    no dynamic function over its carrier."""
    def refuse(*args):
        raise AssertionError("compile tabulated the initial dynamics")

    monkeypatch.setattr(asm, "initial_dynamics", refuse)
    for name, (inputs, cost) in BUNDLED_COSTS.items():
        sm = bundled(name)
        cm = compile_machine(sm.machine(), sm.state(inputs))
        assert (cm.K, cm.L) == cost


def test_compile_enumerates_no_bool_builtin(monkeypatch):
    """Only a static that may be partial is checked over its argument
    grid: the injected eq_Nat, the connectives and lt are total by
    ``asm.Builtin``'s contract, so a compile enumerates succ's 301
    arguments and the two literals' one each, not eq_Nat's and lt's
    301² each."""
    sm = parse_source(
        "sort Nat = 0..300\n"
        "static succ : Nat -> Nat = builtin succ\n"
        "static lt : Nat Nat -> Bool = builtin lt\n"
        "input n : Nat\n"
        "dynamic i : -> Nat output\n"
        "init i = 0\n"
        "program:\n"
        "  if lt(i, n) then i := succ(i) else par { i := 1  halt }\n")
    grid = compiler._carrier_grid
    yielded = 0

    def counted(*args):
        nonlocal yielded
        for t in grid(*args):
            yielded += 1
            yield t

    monkeypatch.setattr(compiler, "_carrier_grid", counted)
    compile_machine(sm.machine(), sm.state({"n": 3}))
    assert yielded == 303


def _bool_pair(rng: random.Random, names, depth: int):
    """A random Boolean good term over ``names``, built twice: from bare
    constant applications, and through gand/gor/gnot.  The right operand of a binary
    node is often the left one or its negation, so that the identities
    get something to fire on."""
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.choice([TRUE_TERM, FALSE_TERM, *(Var(n) for n in names)])
        return leaf, leaf
    a_raw, a = _bool_pair(rng, names, depth - 1)
    op = rng.choice(["and", "or", "not"])
    if op == "not":
        return App(Const("not"), a_raw), gnot(a)
    roll = rng.random()
    if roll < 0.25:
        b_raw, b = a_raw, a
    elif roll < 0.5:
        b_raw, b = App(Const("not"), a_raw), gnot(a)
    else:
        b_raw, b = _bool_pair(rng, names, depth - 1)
    return app(Const(op), a_raw, b_raw), (gand if op == "and" else gor)(a, b)


def test_boolean_algebra_keeps_semantics():
    sig = standard_bool_signature()
    rng = random.Random(20261018)
    saved = 0
    for i in range(400):
        names = ["x", "y", "z"][:2 + i % 2]
        raw, simple = _bool_pair(rng, names, 4)
        assert const_count(simple) <= const_count(raw)
        saved += const_count(raw) - const_count(simple)
        for bits in itertools.product((True, False), repeat=len(names)):
            val = {n: Value(BOOL, b) for n, b in zip(names, bits)}
            assert semantics(simple, sig, val) == semantics(raw, sig, val)
    assert saved > 0


def test_boolean_identities():
    a = app(Const("lt"), Var("x"), Var("y"))
    assert gand(a, gnot(a)) == gand(gnot(a), a) == FALSE_TERM
    assert gor(a, gnot(a)) == gor(gnot(a), a) == TRUE_TERM
    assert gand(a, a) == gor(a, a) == a
    assert gnot(gnot(a)) == a


def test_every_compiled_branch_can_fire():
    # no guard folds to false, and none but the last folds to true
    cases = [_bundled_case(name) for name in BUNDLED_COSTS]
    cases += [counter_family(n) for n in range(1, 6)]
    for machine, state in cases:
        branches = compile_machine(machine, state).branches
        assert all(b.guard != FALSE_TERM for b in branches)
        assert all(b.guard != TRUE_TERM for b in branches[:-1])
        assert branches[-1].guard == TRUE_TERM  # the else-arm


# Two updates of c with one value: the clash guard folds to false only
# once the equality of the two values is folded to a code.
EQUAL_WRITES = """\
sort Nat = 0..4
static zero : -> Nat = builtin zero
static succ : Nat -> Nat = builtin succ
dynamic c : -> Nat output
init c = zero
program:
  if eq_Nat(c, 0) then
    par {
      c := succ(zero)
      c := 1
    }
"""


def test_equal_writes_leave_out_the_clash_branch():
    sm = parse_source(EQUAL_WRITES)
    state = sm.state({})
    cm = compile_machine(sm.machine(), state)
    assert cm.manifest()["guard_order"] == ["halt", "clause-0"]
    d, counts = _run_compiled(cm, state)
    assert d.kind == "success" and d.outputs["c"].payload == 1
    assert counts == (cm.K, cm.L)


def test_doubling_budget_same_at_every_stop():
    sm = bundled("doubling")
    shapes = set()
    for stop in range(1, 9):
        cm = compile_machine(sm.machine(), sm.state({"stop": stop}))
        shapes.add((cm.K, cm.L, term_size(cm.theta)))
    assert shapes == {(*BUNDLED_COSTS["doubling"][1], 219)}


def test_a_compile_translates_each_source_term_once(monkeypatch):
    """The normal form repeats each condition in many clause guards, and
    the fail and clash guards read the updates again; a compile still
    translates each source term once.  Doubling's compile asks 26 times
    for the translation of one of 13 terms with no ``env``."""
    translate = Translator._translate
    asked, done = [], []

    def spy(self, t, env):
        if env is None:
            done.append(id(t))
        return translate(self, t, env)

    def ask(self, t, env=None):
        if env is None:
            asked.append(id(t))
        return value_and_def(self, t, env)

    value_and_def = Translator.value_and_def
    monkeypatch.setattr(Translator, "_translate", spy)
    monkeypatch.setattr(Translator, "value_and_def", ask)
    sm = bundled("doubling")
    compile_machine(sm.machine(), sm.state({}))
    assert sorted(done) == sorted(set(asked))
    assert (len(asked), len(done)) == (26, 13)


def test_one_theta_binds_every_stop():
    """Doubling's theta is built with ``stop`` free.  Its instance for
    each stop is the theta that a compile at that stop returns, with a
    memo that holds ``scan``'s and only F-free nodes, and lockstep binds
    its own state's stop.  euclid's theta reads no input, so it has one
    instance."""
    sm = bundled("doubling")
    machine = sm.machine()
    cm = compile_machine(machine, sm.state({}))
    assert [s.name for s in cm.inputs] == ["stop"]
    assert cm.template.fv == {"stop"} and not cm.theta.fv
    for stop in range(0, 9):
        state = sm.state({"stop": stop})
        inst = cm.with_inputs(state)
        assert inst.theta == compile_machine(machine, state).theta
        # the memo starts from the compiled record's, so it holds more
        # than scan's: the template's nodes, which no input reaches
        assert scan(inst.theta, inst.sig)[1].keys() <= inst.theta_free.keys()
        assert all(not list(f_redexes(node, inst.sig)) for node in inst.theta_free.values())
        assert inst.with_inputs(state) is inst
        assert (inst.K, inst.L) == (cm.K, cm.L)
        assert lockstep(machine, cm, state).passed
    assert cm.with_inputs(sm.state({"stop": 0})) is cm
    sm = bundled("euclid")
    cm = compile_machine(sm.machine(), sm.state({"a0": 1, "b0": 1}))
    assert cm.inputs == () and cm.template is cm.theta
    assert cm.with_inputs(sm.state({"a0": 6, "b0": 4})) is cm


def test_initial_term_binds_the_inputs_of_its_state():
    """``initial_term`` starts theta bound to its own state's inputs,
    not to those of the compile: doubling compiled at stop 3 and started
    at stop 5 takes 6 rounds of (K, L) to success, and its difference
    list merges to the table the machine halts with."""
    sm = bundled("doubling")
    machine = sm.machine()
    cm = compile_machine(machine, sm.state({"stop": 3}))
    state = sm.state({"stop": 5})
    inst = cm.with_inputs(state)
    t = cm.initial_term(state)
    for rounds in range(1, 10):
        t, beta, f, _ = advance_term(t, cm.sig, cm.K + cm.L)
        assert (beta, f) == (cm.K, cm.L)
        d = decode_result(t, inst)
        if d.kind != "running":
            break
    assert (d.kind, rounds) == ("success", 6)
    merged = dict(machine.initial_state(state).dynamics["f"])
    merged.update(delta_as_map(d.outputs["f"]))
    assert asm.run(machine, state, 10).outcome.outputs == {"f": merged}


# A Bool slot that the program reads as a guard and writes back negated,
# so the certificate carries an abstract Boolean across its boundary.
TOGGLE = """\
sort Nat = 0..9
static zero : -> Nat = builtin zero
static succ : Nat -> Nat = builtin succ
static lt : Nat Nat -> Bool = builtin lt
input stop : Nat
dynamic flag : -> Bool output
dynamic n : -> Nat output
dynamic seen : -> Nat output
init flag = lt(zero, zero)
init n = zero
init seen = zero
program:
  par {
    if lt(n, stop) then
      par {
        flag := not(flag)
        n := succ(n)
        if flag then
          seen := succ(seen)
      }
    if not(lt(n, stop)) then
      halt
  }
"""


def test_bool_slot_certifies_and_runs_in_lockstep():
    """A machine with a Bool slot, which theta tests as a guard, writes as a
    Bool value and pads over (its first slot), certifies with one path
    per branch and runs in lockstep at the minima and with padding."""
    sm = parse_source(TOGGLE)
    for stop in (0, 3, 4):
        state = sm.state({"stop": stop})
        least = compile_machine(sm.machine(), state)
        assert [s.datatype for s in least.slots] == [BOOL, "Nat", "Nat"]
        for cm in (least, compile_machine(sm.machine(), state, least.K + 2, least.L + 3)):
            assert cm.certificate.paths == len(cm.branches)
            rep = lockstep(sm.machine(), cm, state)
            assert rep.passed, rep.rounds[-1]
            assert len(rep.rounds) == stop + 1
