import random

import pytest

from asmlc import engine
from asmlc.compiler import compile_machine
from asmlc.engine import (
    _STATUS_FORK,
    STATUS_NORMAL,
    STATUS_RAN,
    STATUS_UNDEFINED,
    advance_term,
    scan,
)
from asmlc.lambda_f import (
    BOOL,
    FALSE_TERM,
    TRUE_TERM,
    UNKNOWN_BOOL,
    FSignature,
    Value,
    standard_bool_signature,
)
from asmlc.syntax import TermSyntaxError, parse_term
from asmlc.terms import Abs, App, Code, Const, Term, Unknown, Var, app, lam

from conftest import BUNDLED_COSTS, bundled, random_term
from traced import Status, f_redexes, reduce_leftmost_f

_STATUS = {Status.NORMAL: STATUS_NORMAL, Status.BUDGET: STATUS_RAN,
           Status.UNDEFINED: STATUS_UNDEFINED}


def _assert_agrees(t, sig, budget, memo_roots=()):
    """The engine and the traced reducer agree on the result term, down
    to the fresh binder names, the counts and the status: without a
    memo, and seeded with ``scan``'s memo of each of ``memo_roots``,
    nodes shared with ``t``."""
    slow = reduce_leftmost_f(t, sig, budget)
    for f_free in (None, *(scan(root, sig)[1] for root in memo_roots)):
        fast_t, beta, f, status = advance_term(t, sig, budget, f_free)
        assert (beta, f) == (slow.trace.beta_count, slow.trace.f_count)
        assert fast_t == slow.term
        assert status == _STATUS[slow.status]


def _nodes(t: Term) -> list[Term]:
    """Every node of ``t``, itself first."""
    out, todo = [], [t]
    while todo:
        node = todo.pop()
        out.append(node)
        if isinstance(node, App):
            todo += (node.arg, node.fun)
        elif isinstance(node, Abs):
            todo.append(node.body)
    return out


def test_bool_codes_rejected_in_tuples():
    """Boolean codes are the lambda booleans: no Code node carries one,
    whether built directly or parsed."""
    with pytest.raises(ValueError):
        Code(Value(BOOL, True))
    with pytest.raises(TermSyntaxError):
        parse_term("[Bool:True]")


def test_kernel_matches_traced_reducer_on_random_terms(rng):
    sig = standard_bool_signature()
    T, F = TRUE_TERM, FALSE_TERM
    atoms = [T, F, Const("not"), Const("and"), Const("or"),
             # over-applied constants: the prefix with arity arguments fires
             App(app(Const("and"), T, F), T),
             app(Const("not"), F, Var("a"), Var("b")),
             App(app(Const("or"), F, App(Const("not"), T)), F)]
    for i in range(160):
        t = random_term(rng, rng.randint(2, 10))
        if i % 2 == 0:  # splice in semantic material
            t = App(t, rng.choice(atoms))
            t = App(Abs("w", t), rng.choice(atoms))
        if i % 4 == 1:  # a constant whose arguments arrive by reduction
            t = app(Const(rng.choice(["and", "or"])), t, rng.choice(atoms), rng.choice(atoms))
        _assert_agrees(t, sig, rng.randint(0, 30), rng.sample(_nodes(t), 2))


def test_kernel_matches_traced_reducer_on_nullary_constants():
    sig = FSignature()
    sig.add("zero", (), "Nat", lambda: 0)
    sig.add("succ", ("Nat",), "Nat", lambda n: n + 1)
    for t in (Const("zero"),
              App(Const("succ"), Const("zero")),
              App(Abs("x", App(Const("succ"), Var("x"))), Const("zero")),
              Abs("y", app(Const("zero"), Var("y"), Const("zero")))):
        for budget in range(4):
            _assert_agrees(t, sig, budget)


def test_kernel_undefined_application():
    sig = FSignature()
    sig.add("half", ("Nat",), "Nat", lambda n: n // 2 if n % 2 == 0 else None)
    t = App(Abs("x", App(Const("half"), Var("x"))), Code(Value("Nat", 3)))
    for budget, want in ((0, STATUS_RAN), (1, STATUS_RAN), (2, STATUS_UNDEFINED)):
        out, beta, f, status = advance_term(t, sig, budget)
        assert status == want
        assert (beta, f) == (min(budget, 1), 0)
    assert out == App(Const("half"), Code(Value("Nat", 3)))  # the term before the step
    _assert_agrees(t, sig, 2)


def test_substitution_keeps_closed_subterms():
    """A closed argument is shared, not copied, and a closed body is
    returned as is."""
    big = app(Const("c"), *(Abs("v", Var("v")) for _ in range(5)))
    t = App(Abs("x", app(Var("x"), Var("x"), big)), big)
    out, beta, f, status = advance_term(t, FSignature(), 1)
    assert (beta, f, status) == (1, 0, STATUS_NORMAL)
    assert out.fun.fun is big and out.arg is big


def _nat_sig() -> FSignature:
    sig = standard_bool_signature()
    sig.add("zero", (), "Nat", lambda: 0)
    sig.add("succ", ("Nat",), "Nat", lambda n: n + 1)
    sig.add("half", ("Nat",), "Nat", lambda n: n // 2 if n % 2 == 0 else None)
    sig.add("plus", ("Nat", "Nat"), "Nat", lambda a, b: a + b)
    sig.add("eq", ("Nat", "Nat"), BOOL, lambda a, b: a == b)
    sig.add("lt", ("Nat", "Nat"), BOOL, lambda a, b: a < b)
    return sig


def _n(n: int) -> Code:
    return Code(Value("Nat", n))


_x, _y, _z = Var("x"), Var("y"), Var("z")
_succ, _half, _plus, _eq = Const("succ"), Const("half"), Const("plus"), Const("eq")

# Terms whose F-phases the engine contracts in one pass, each reduced at
# every budget from 0 to 25 against the traced reducer.
F_PHASE_TERMS = {
    # succ fires, then half is undefined: the phase stops after one F-step
    "undefined-mid-phase": app(_plus, App(_succ, _n(1)), App(_half, _n(3))),
    # half is undefined only on the code its argument's firing makes
    "undefined-at-ancestor": App(_half, App(_succ, _n(2))),
    # one beta, then a phase of three F-steps that most budgets cut
    "budget-inside-phase": App(Abs("x", app(_plus, App(_succ, _x), App(_succ, _x))), _n(1)),
    # each firing completes the application above it, down to a selection
    "created-at-ancestor": app(_eq, app(_plus, App(_succ, Const("zero")), App(_half, _n(4))),
                               _n(3), Var("a"), Var("b")),
    # the prefix with arity arguments fires, the rest stay applied
    "over-applied": app(Const("and"), TRUE_TERM, App(Const("not"), FALSE_TERM), Var("a"), Var("b")),
    # the head fires before the redex in its extra argument
    "over-applied-extra-redex": app(_succ, _n(1), App(_succ, _n(2))),
    # the head fires before its extra argument turns out undefined
    "over-applied-undefined-extra": app(_half, _n(2), App(_half, _n(3))),
    "nullary": Abs("y", app(Const("zero"), _y, App(_succ, Const("zero")))),
    # a beta step turns an argument into a code, completing succ
    "beta-in-argument": App(_succ, App(Abs("x", _x), App(_succ, _n(1)))),
    # a beta step moves a constant into head position
    "beta-in-head": app(Abs("f", App(Var("f"), App(_succ, _n(1)))), _half),
    # phases between the beta steps of a two-slot load
    "two-phases": app(lam(["x", "y"], app(_plus, App(_succ, _x), app(_plus, _y, _y))),
                      App(_succ, _n(0)), App(_half, _n(2))),
    # head runs, which the engine contracts in one substitution and one
    # F-phase when no budget or undefined firing stops that phase:
    # three binders over closed arguments
    "run-closed": app(lam(["x", "y", "z"], app(_plus, App(_succ, _x), app(_plus, _y, _z))),
                      _n(1), App(_succ, _n(2)), _n(3)),
    # an open argument ends the run; its step renames the binder z
    # around it, and not the inner one, under which y is not free
    "run-open-argument": app(lam(["x", "y", "z"], app(Var("f"), app(_plus, _x, _y), _z,
                                                      Abs("z", App(_succ, _x)))),
                             _n(1), Var("z"), _n(2)),
    # a repeated binder ends the run; the inner x binds the second
    # argument, and an abstraction in the body binds x again
    "run-repeated-binder": app(lam(["x", "x", "y"], app(Var("f"), app(_plus, App(_succ, _x), _y),
                                                        Abs("x", app(_plus, _x, _y)))),
                               App(_succ, _n(0)), _n(2), _n(3)),
    # half is undefined on the first argument, inside the run's one phase
    "run-undefined-inside": app(lam(["x", "y"], app(_plus, App(_half, _x), App(_succ, _y))),
                                _n(3), _n(1)),
    # a run under an abstraction whose binder is free in the run's body
    "run-under-abstraction": Abs("q", app(lam(["x", "y"], app(Var("q"), App(_succ, _x), _y)),
                                          _n(1), App(_succ, _n(2)))),
}


@pytest.mark.parametrize("name", sorted(F_PHASE_TERMS))
def test_kernel_matches_traced_reducer_at_every_budget(name):
    sig = _nat_sig()
    t = F_PHASE_TERMS[name]
    for budget in range(26):
        _assert_agrees(t, sig, budget, _nodes(t))


def test_undefined_mid_phase_reports_the_term_before_it():
    out, beta, f, status = advance_term(F_PHASE_TERMS["undefined-mid-phase"],
                                        _nat_sig(), 25)
    assert (beta, f, status) == (0, 1, STATUS_UNDEFINED)
    assert out == app(_plus, _n(2), App(_half, _n(3)))


_ARITY = {"zero": 0, "succ": 1, "half": 1, "plus": 2, "eq": 2, "not": 1, "and": 2}


def random_f_term(rng: random.Random, depth: int) -> Term:
    """A random term rich in F-work: constant applications (sometimes
    over-applied) nested under beta redexes and abstractions, over
    codes, booleans and the variables a, b, c."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return rng.choice([_n(rng.randrange(4)), TRUE_TERM, FALSE_TERM, Const("zero"),
                           Var(rng.choice("abc")), Const(rng.choice(list(_ARITY)))])
    if roll < 0.6:
        c = rng.choice(list(_ARITY))
        n = _ARITY[c] + (rng.random() < 0.15)
        return app(Const(c), *(random_f_term(rng, depth - 1) for _ in range(n)))
    if roll < 0.85:
        return App(Abs(rng.choice("abc"), random_f_term(rng, depth - 1)),
                   random_f_term(rng, depth - 1))
    return Abs(rng.choice("abc"), random_f_term(rng, depth - 1))


def test_kernel_matches_traced_reducer_on_random_f_phases(rng):
    sig = _nat_sig()
    for _ in range(120):
        t = random_f_term(rng, rng.randint(2, 5))
        roots = [rng.choice(_nodes(t))]
        for budget in range(26):
            _assert_agrees(t, sig, budget, roots)


@pytest.mark.parametrize("name", ["doubling", "euclid"])
def test_kernel_with_theta_memo_matches_traced_reducer(name):
    """Rounds from theta applied to codes, seeded with the compiled
    machine's memo of theta, agree with the traced reducer at every
    budget up to two rounds."""
    sm = bundled(name)
    inputs, _ = BUNDLED_COSTS[name]
    cm = compile_machine(sm.machine(), sm.state(inputs))
    t = cm.initial_term(sm.state(inputs))
    for budget in range(2 * (cm.K + cm.L) + 1):
        slow = reduce_leftmost_f(t, cm.sig, budget)
        got = advance_term(t, cm.sig, budget, cm.theta_free)
        assert got == (slow.term, slow.trace.beta_count, slow.trace.f_count,
                       _STATUS[slow.status])


def test_round_builds_no_beta_step_past_its_budget(monkeypatch):
    """One euclid round of K + L steps contracts exactly its K beta
    redexes, in head runs: the round ends on the budget before it builds
    the next one, and no run is contracted and then discarded."""
    sm = bundled("euclid")
    inputs, _ = BUNDLED_COSTS["euclid"]
    cm = compile_machine(sm.machine(), sm.state(inputs))
    t = cm.initial_term(sm.state(inputs))
    runs = []
    beta_step = engine._beta_step

    def counted(s, most=1):
        out = beta_step(s, most)
        runs.append(out[1])
        return out

    monkeypatch.setattr(engine, "_beta_step", counted)
    assert advance_term(t, cm.sig, cm.K + cm.L, cm.theta_free)[1:] == (cm.K, cm.L, STATUS_RAN)
    assert sum(runs) == cm.K
    assert len(runs) < cm.K


def test_scan_finds_what_the_traced_search_finds(rng):
    sig = _nat_sig()
    for _ in range(300):
        t = random_f_term(rng, rng.randint(1, 5))
        resident, f_free = scan(t, sig)
        assert resident == bool(list(f_redexes(t, sig)))
        # the search stops at the first redex and memoizes none of the
        # nodes that hold it, which later calls would then skip
        assert all(not list(f_redexes(node, sig)) for node in f_free.values())
    # a ground guard, which the combinator builder refuses as a resident
    # F-redex, and the same guard over a slot variable
    ground = app(Const("lt"), Code(Value("Nat", 0)), Code(Value("Nat", 1)))
    over_slot = app(Const("lt"), Var("c"), Code(Value("Nat", 1)))
    assert scan(Abs("c", app(ground, Var("c"), Var("c"))), sig)[0]
    resident, f_free = scan(Abs("c", app(over_slot, Var("c"), Var("c"))), sig)
    assert not resident
    assert all(not list(f_redexes(node, sig)) for node in f_free.values())
    # an undefined application is resident too
    assert scan(Abs("c", App(_half, _n(3))), sig)[0]


def test_abstract_codes_fire_without_calling_the_function():
    """A constant applied to codes, one at least abstract, fires as one
    F-step to an abstract code of its result datatype, and never calls
    its function; a wrong datatype or an argument that is no code keeps
    it from firing."""
    def boom(*args):
        raise AssertionError("an abstract firing called the function")

    sig = FSignature()
    sig.add("plus", ("Nat", "Nat"), "Nat", boom)
    sig.add("lt", ("Nat", "Nat"), BOOL, boom)
    sig.add("and", (BOOL, BOOL), BOOL, boom)
    u = Unknown("Nat")
    t = app(Const("and"), app(Const("lt"), u, _n(1)),
            app(Const("lt"), app(Const("plus"), _n(2), u), u))
    assert advance_term(t, sig, 10) == (UNKNOWN_BOOL, 0, 4, STATUS_NORMAL)
    assert advance_term(app(Const("and"), TRUE_TERM, UNKNOWN_BOOL), sig, 10) == (
        UNKNOWN_BOOL, 0, 1, STATUS_NORMAL)
    assert advance_term(app(Const("plus"), u, _n(1)), sig, 10)[1:] == (0, 1, STATUS_NORMAL)
    # the budget stops an abstract firing like a concrete one
    assert advance_term(t, sig, 2)[1:] == (0, 2, STATUS_RAN)
    for stuck in (app(Const("plus"), Unknown("Int"), _n(1)),
                  app(Const("plus"), u, Abs("y", Var("y"))),
                  app(Const("and"), UNKNOWN_BOOL, u)):
        assert advance_term(stuck, sig, 10) == (stuck, 0, 0, STATUS_NORMAL)


def test_loop_forks_before_applying_the_abstract_boolean():
    """The loop stops with a fork, before the beta step, where the
    leftmost redex applies the abstract Boolean, wherever it sits; a
    bare abstract Boolean is normal."""
    pick = app(UNKNOWN_BOOL, Var("a"), Var("b"))
    cases = [(pick, pick, 0), (App(Var("f"), pick), App(Var("f"), pick), 0),
             (Abs("z", pick), Abs("z", pick), 0),
             # the identity applied to the pick is the leftmost redex
             (App(Abs("v", Var("v")), pick), pick, 1),
             # a head run ends where its next abstraction is the abstract Boolean
             (app(Abs("v", UNKNOWN_BOOL), TRUE_TERM, _n(1), _n(2)),
              app(UNKNOWN_BOOL, _n(1), _n(2)), 1)]
    for t, stop, beta in cases:
        assert engine._advance(t, FSignature(), 5) == (stop, beta, 0, _STATUS_FORK)
    assert advance_term(App(Var("f"), UNKNOWN_BOOL), FSignature(), 5)[1:] == (
        0, 0, STATUS_NORMAL)


@pytest.mark.parametrize("name", ["euclid", "doubling"])
def test_fire_is_tried_only_on_closed_prefixes(name, monkeypatch):
    """A compile and a lockstep run never try to fire a constant whose
    arguments hold a free variable, and every try fires."""
    tried, fired = [], []
    fire = engine._Reducer._fire

    def counted(self, head, entry, args):
        tried.append(all(not a.fv for a in args))
        out = fire(self, head, entry, args)
        fired.append(out is not None)
        return out

    monkeypatch.setattr(engine._Reducer, "_fire", counted)
    sm = bundled(name)
    inputs, _ = BUNDLED_COSTS[name]
    cm = compile_machine(sm.machine(), sm.state(inputs))
    t = cm.initial_term(sm.state(inputs))
    for _ in range(3):
        t = advance_term(t, cm.sig, cm.K + cm.L, cm.theta_free)[0]
    assert tried and all(tried)
    assert all(fired)
