import math
from collections import Counter

import pytest

from asmlc.asm import (
    EvaluatedUpdate,
    FailI,
    HaltI,
    If,
    Outcome,
    Par,
    Skip,
    State,
    Symbol,
    TApp,
    TVar,
    Update,
    Vocabulary,
    check_program,
    detect_clash,
    eval_ground,
    initial_dynamics,
    program_symbols,
    run,
    successor,
)
from asmlc.normalize import normalize, to_program
from asmlc.machines import (
    clash_machine,
    doubling_machine,
    doubling_state,
    euclid_machine,
    euclid_state,
    fail_machine,
    small_state,
)

from conftest import counter_state, counter_vocabulary, random_program


def test_eval_ground_strict_none():
    voc = euclid_machine().voc
    s = euclid_state(6, 0)
    # rem is undefined at divisor 0; strictness propagates upward
    t = TApp("rem", (TApp("a0"), TApp("b0")))
    assert eval_ground(s, t) is None
    assert eval_ground(s, TApp("lt", (TApp("zero"), t))) is None
    assert eval_ground(s, TApp("a0")) == 6
    x = TVar("x1", "Nat")
    with pytest.raises(ValueError, match="unbound term variable x1"):
        eval_ground(s, TApp("lt", (x, TApp("zero"))))
    assert eval_ground(s, TApp("lt", (x, x)), {"x1": 3}) is False


def test_gcd_against_math_oracle_grid():
    # oracle: math.gcd, over the full 1..30 square
    machine = euclid_machine()
    for a in range(1, 31):
        for b in range(1, 31):
            r = run(machine, euclid_state(a, b), 500)
            assert r.kind == "implicit-halt"
            assert r.outcome.outputs["a"] == math.gcd(a, b)


def test_gcd_trajectory_matches_hand_simulation():
    # oracle: direct simultaneous-assignment simulation in Python
    machine = euclid_machine()
    r = run(machine, euclid_state(36, 24), 100)
    expect = []
    a, b = 36, 24
    expect.append((a, b))
    while b > 0:
        a, b = b, a % b
        expect.append((a, b))
    got = [(st.dynamics["a"][()], st.dynamics["b"][()]) for st in r.trajectory]
    assert got == expect


def test_fail_and_clash_outcomes():
    mf = fail_machine()
    rf = run(mf, small_state(mf), 10)
    assert rf.kind == "fail" and len(rf.trajectory) == 1

    mc = clash_machine()
    rc = run(mc, small_state(mc), 10)
    assert rc.kind == "clash" and len(rc.trajectory) == 1


def test_clash_detection_is_value_sensitive():
    # two writes of the same value to the same location do not clash
    voc = counter_vocabulary()
    s = counter_state(voc, 1, 1)
    prog = Par((Update("p", (), TApp("two")), Update("p", (), TApp("two"))))
    out = successor(s, prog)
    assert out.kind == "continue"
    prog2 = Par((Update("p", (), TApp("one")), Update("p", (), TApp("two"))))
    assert successor(s, prog2).kind == "clash"


def test_fail_takes_precedence_over_clash_and_halt():
    voc = counter_vocabulary()
    s = counter_state(voc, 1, 1)
    prog = Par((FailI(), HaltI(),
                Update("p", (), TApp("one")), Update("p", (), TApp("two"))))
    assert successor(s, prog).kind == "fail"
    prog2 = Par((HaltI(),
                 Update("p", (), TApp("one")), Update("p", (), TApp("two"))))
    assert successor(s, prog2).kind == "clash"


def test_undefined_update_argument_fails():
    # rem(a0, b0) with b0 = 0 is undefined: the step fails
    machine = euclid_machine()
    voc = machine.voc
    s = machine.initial_state(euclid_state(3, 0))
    prog = Update("a", (), TApp("rem", (TApp("a"), TApp("zero"))))
    assert successor(s, prog).kind == "fail"


def test_implicit_halt_when_no_update_active():
    voc = counter_vocabulary()
    s = counter_state(voc, 3, 0)
    prog = If(TApp("lt", (TApp("p"), TApp("zero"))),
              Update("p", (), TApp("zero")))
    assert successor(s, prog).kind == "implicit-halt"


def test_doubling_machine_tabulates():
    machine = doubling_machine(stop=4)
    r = run(machine, doubling_state(stop=4), 50)
    assert r.kind == "halt"
    f = r.outcome.outputs["f"]
    for i in range(4):
        assert f[(i,)] == 2 * i  # oracle: arithmetic
    # untouched entries keep their initialized value f(x) = x
    for i in range(4, 9):
        assert f[(i,)] == i


def test_initial_dynamics_from_init_rules():
    machine = doubling_machine()
    s0 = doubling_state()
    tables = initial_dynamics(machine.voc, s0, machine.init)
    assert tables["i"] == {(): 0}
    assert tables["f"] == {(i,): i for i in range(9)}


def test_program_symbols():
    machine = euclid_machine()
    assert set(program_symbols(machine.program)) == {"lt", "zero", "b", "a", "rem"}


def test_check_program_rejects_ill_sorted():
    voc = counter_vocabulary()
    with pytest.raises(ValueError):
        check_program(voc, Update("p", (), TApp("lt", (TApp("zero"), TApp("one")))))
    with pytest.raises(ValueError):
        check_program(voc, If(TApp("zero"), Skip()))


def test_random_programs_always_step_or_exit(rng):
    # every state yields exactly one of: continue, halt kinds, fail, clash
    voc = counter_vocabulary()
    for _ in range(60):
        prog = random_program(rng, 3)
        for p in range(3):
            for q in range(3):
                out = successor(counter_state(voc, p, q), prog)
                assert out.kind in ("continue", "halt", "implicit-halt",
                                    "fail", "clash")


# ---------------------------------------------------------------------------
# The two-walk step that successor replaced, kept as its oracle: one walk
# for halt/fail, one for the active updates, every condition evaluated
# again in each walk.


def _two_walk_active_updates(s, p):
    if isinstance(p, Update):
        return [p]
    if isinstance(p, If):
        c = eval_ground(s, p.cond)
        if c is True:
            return _two_walk_active_updates(s, p.then)
        if c is False:
            return _two_walk_active_updates(s, p.orelse)
        return []
    if isinstance(p, Par):
        out = []
        for b in p.blocks:
            out.extend(_two_walk_active_updates(s, b))
        return out
    return []


def _two_walk_halts_or_fails(s, p):
    if isinstance(p, HaltI):
        return True, False
    if isinstance(p, FailI):
        return False, True
    if isinstance(p, If):
        c = eval_ground(s, p.cond)
        if c is True:
            return _two_walk_halts_or_fails(s, p.then)
        if c is False:
            return _two_walk_halts_or_fails(s, p.orelse)
        return False, False
    if isinstance(p, Par):
        results = [_two_walk_halts_or_fails(s, b) for b in p.blocks]
        fails = any(f for _, f in results)
        halts = any(h for h, _ in results) and not fails
        return halts, fails
    return False, False


def _two_walk_evaluate_updates(s, updates):
    out = []
    for u in updates:
        argv = []
        bad = False
        for a in u.args:
            v = eval_ground(s, a)
            if v is None:
                bad = True
                break
            argv.append(v)
        rhs = eval_ground(s, u.rhs) if not bad else None
        if bad or rhs is None:
            return out, u
        out.append(EvaluatedUpdate(u.symbol, tuple(argv), rhs, u))
    return out, None


def _two_walk_outputs(s):
    out = {}
    for sym in s.voc.outputs():
        table = s.dynamics[sym.name]
        out[sym.name] = table.get(()) if sym.arity == 0 else dict(table)
    return out


def two_walk_successor(s, p):
    halts, fails = _two_walk_halts_or_fails(s, p)
    if fails:
        return Outcome("fail", reason="explicit-fail")
    active = _two_walk_active_updates(s, p)
    evaluated, bad = _two_walk_evaluate_updates(s, active)
    if bad is not None:
        return Outcome("fail", reason="undefined-evaluation")
    witness = detect_clash(evaluated)
    if witness is not None:
        w = tuple((u.symbol, u.args, u.value) for u in witness)
        return Outcome("clash", witness=w)
    if halts:
        return Outcome("halt", outputs=_two_walk_outputs(s))
    if not evaluated:
        return Outcome("implicit-halt", outputs=_two_walk_outputs(s))
    dynamics = {name: dict(table) for name, table in s.dynamics.items()}
    for u in evaluated:
        dynamics[u.symbol][u.args] = u.value
    return Outcome("continue", next_state=s.with_dynamics(dynamics))


# Two counters plus a partial static (rem, undefined at divisor 0, as in
# euclid) and a unary dynamic f that is undefined at 4, so conditions,
# update arguments and right-hand sides can all be undefined.


def partial_vocabulary() -> Vocabulary:
    voc = counter_vocabulary()
    symbols = dict(voc.symbols)
    symbols["rem"] = Symbol("rem", "static", ("Nat", "Nat"), "Nat")
    symbols["f"] = Symbol("f", "dynamic", ("Nat",), "Nat", is_output=True)
    return Vocabulary(voc.sorts, symbols)


def partial_state(voc: Vocabulary, p: int, q: int) -> State:
    s = counter_state(voc, p, q)
    statics = dict(s.statics, rem=lambda a, b: a % b if b != 0 else None)
    f = {(i,): (i + p) % 4 for i in range(4)}
    return State(voc, s.carriers, statics, {**s.dynamics, "f": f})


def _nat_term(rng, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.25:
        return TApp("rem", (_nat_term(rng, depth - 1), _nat_term(rng, depth - 1)))
    if depth > 0 and roll < 0.4:
        return TApp("f", (_nat_term(rng, depth - 1),))
    return TApp(rng.choice(["zero", "one", "two", "p", "q"]))


def _copy(t):
    """An equal term that shares no node with ``t``."""
    return TApp(t.head, tuple(_copy(a) for a in t.args))


def _condition(rng, pool):
    """A condition: the very object of an earlier one, an equal copy of
    one, or a new one."""
    roll = rng.random()
    if pool and roll < 0.25:
        return rng.choice(pool)
    if pool and roll < 0.5:
        return _copy(rng.choice(pool))
    if roll < 0.7:
        c = TApp(rng.choice(["lt", "le", "eq_Nat"]),
                 (_nat_term(rng, 1), _nat_term(rng, 1)))
    elif pool and roll < 0.85:
        c = TApp("not", (rng.choice(pool),))
    elif pool:
        c = TApp(rng.choice(["and", "or"]), (rng.choice(pool), _copy(rng.choice(pool))))
    else:
        c = TApp("lt", (_nat_term(rng, 2), TApp("two")))
    pool.append(c)
    return c


def _partial_program(rng, depth, pool):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        kind = rng.randrange(6)
        if kind == 0:
            return Skip()
        if kind == 1:
            return HaltI()
        if kind == 2:
            return FailI()
        if kind == 3:
            return Update("f", (_nat_term(rng, 1),), _nat_term(rng, 1))
        return Update(rng.choice(["p", "q"]), (), _nat_term(rng, 1))
    if roll < 0.7:
        orelse = _partial_program(rng, depth - 1, pool) if rng.random() < 0.5 else Skip()
        return If(_condition(rng, pool), _partial_program(rng, depth - 1, pool), orelse)
    n = rng.randint(2, 3)
    return Par(tuple(_partial_program(rng, depth - 1, pool) for _ in range(n)))


def _both(s, p):
    """(successor, oracle) outcomes, or the exception types they raise."""
    out = []
    for step in (successor, two_walk_successor):
        try:
            out.append(step(s, p))
        except ValueError as exc:
            out.append(type(exc))
    return out


def test_successor_matches_two_walk_oracle_on_edge_cases():
    voc = partial_vocabulary()
    states = [partial_state(voc, p, q) for p in range(5) for q in range(5)]
    p, q, zero, one, two = (TApp(n) for n in ("p", "q", "zero", "one", "two"))
    lt_pq = TApp("lt", (p, q))
    undefined = TApp("lt", (TApp("rem", (p, q)), two))  # undefined at q = 0
    progs = [
        # HaltI and FailI in sibling Par branches, in both orders
        Par((If(lt_pq, HaltI()), If(TApp("le", (p, q)), FailI()))),
        Par((FailI(), HaltI())),
        Par((HaltI(), Par((Skip(), FailI())))),
        Par((If(lt_pq, HaltI(), FailI()), Update("p", (), q))),
        # conditions that are undefined in some states
        If(undefined, FailI(), HaltI()),
        Par((If(undefined, Update("p", (), one)), If(TApp("not", (undefined,)), HaltI()))),
        # one condition object and an equal but distinct one
        Par((If(lt_pq, Update("p", (), q)), If(lt_pq, Update("q", (), p)),
             If(_copy(lt_pq), HaltI(), Update("p", (), two)))),
        # undefined update arguments and right-hand sides
        Update("f", (TApp("rem", (p, q)),), one),
        Update("f", (p,), TApp("f", (two,))),
        Par((Update("q", (), TApp("f", (q,))), Update("f", (TApp("rem", (q, p)),), zero))),
        # clashes, alone and with halt or an undefined update
        Par((Update("p", (), one), Update("p", (), two))),
        Par((HaltI(), Update("f", (p,), one), Update("f", (q,), two))),
        Par((Update("p", (), one), Update("p", (), two),
             Update("q", (), TApp("rem", (one, q))))),
        # an unbound variable raises in both where it is evaluated: in an
        # active condition, but not in an update after an undefined
        # argument or under an active fail
        If(lt_pq, If(TApp("lt", (TVar("x1", "Nat"), p)), HaltI())),
        Update("f", (TApp("rem", (p, q)),), TApp("rem", (TVar("x1", "Nat"), one))),
        Par((If(lt_pq, FailI()), Update("p", (), TVar("x1", "Nat")))),
    ]
    kinds = Counter()
    for prog in progs:
        for s in states:
            got, want = _both(s, prog)
            assert got == want, (prog, s.dynamics)
            kinds[want if isinstance(want, type) else (want.kind, want.reason)] += 1
    assert set(kinds) == {
        ("continue", None), ("halt", None), ("implicit-halt", None),
        ("fail", "explicit-fail"), ("fail", "undefined-evaluation"),
        ("clash", None), ValueError}


def test_successor_matches_two_walk_oracle_on_random_programs(rng):
    # Each program runs as written and as its guarded normal form, whose
    # guards share their literal prefixes.
    voc = partial_vocabulary()
    states = [partial_state(voc, p, q) for p in range(5) for q in range(5)]
    kinds = Counter()
    for _ in range(150):
        prog = _partial_program(rng, 3, [])
        for form in (prog, to_program(normalize(prog))):
            for s in states:
                got, want = _both(s, form)
                assert got == want, (form, s.dynamics)
                kinds[want.kind, want.reason] += 1
    assert set(kinds) == {
        ("continue", None), ("halt", None), ("implicit-halt", None),
        ("fail", "explicit-fail"), ("fail", "undefined-evaluation"),
        ("clash", None)}


def test_successor_evaluates_each_node_once(rng):
    # Every static application in the normal form runs at most once per
    # step: no more often than its distinct nodes occur in the program.
    voc = counter_vocabulary()
    for _ in range(20):
        nf = to_program(normalize(random_program(rng, 3)))
        nodes = Counter()
        seen = set()
        todo = [nf]
        while todo:
            x = todo.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, TApp):
                nodes[x.head] += 1
                todo.extend(x.args)
            elif isinstance(x, If):
                todo.extend((x.cond, x.then, x.orelse))
            elif isinstance(x, Par):
                todo.extend(x.blocks)
            elif isinstance(x, Update):
                todo.extend(x.args + (x.rhs,))
        s = counter_state(voc, rng.randrange(5), rng.randrange(5))
        calls = Counter()

        def counted(name, fn):
            def wrapped(*a):
                calls[name] += 1
                return fn(*a)
            return wrapped

        counting = State(voc, s.carriers,
                         {n: counted(n, fn) for n, fn in s.statics.items()},
                         s.dynamics)
        assert successor(counting, nf).kind == successor(s, nf).kind
        for name in ("lt", "le", "eq_Nat", "and", "or", "not"):
            # every guard is evaluated, each node of it once
            assert calls[name] == nodes[name], (name, calls[name], nodes[name])
        for name, n in calls.items():
            assert n <= nodes[name], (name, n, nodes[name])
