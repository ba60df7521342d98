import itertools

import pytest

from asmlc.lambda_f import (
    BOOL,
    TRUE_TERM,
    FSignature,
    Value,
    code_term,
    match_code,
)
from asmlc.asm import FailI, HaltI, If, Par, Skip, TApp, TVar, Update
from asmlc.combinators import const_count
from asmlc.compiler import Translator, lower_signature, make_slots
from asmlc.terms import App, Code, Const, Var, app

from conftest import bundled, reduce_cost, semantics
from traced import Status, reduce_leftmost_f, substitute


@pytest.fixture
def sig():
    sig = FSignature()
    sig.add("lt", ("Nat", "Nat"), BOOL, lambda a, b: a < b)
    sig.add("plus", ("Nat", "Nat"), "Nat", lambda a, b: a + b)
    sig.add("not", (BOOL,), BOOL, lambda a: not a)
    sig.add("half", ("Nat",), "Nat", lambda n: n // 2 if n % 2 == 0 else None)
    return sig


def _lt_term():
    return app(Const("lt"), app(Const("plus"), Var("x"), Code(Value("Nat", 1))), Var("y"))


def test_semantics_checks_arity_and_datatypes(sig):
    val = {"x": Value("Nat", 0), "y": Value("Nat", 2)}
    assert semantics(_lt_term(), sig, val) == Value(BOOL, True)
    with pytest.raises(ValueError, match="lt expects 2 arguments"):
        semantics(App(Const("lt"), Var("x")), sig, val)
    with pytest.raises(ValueError, match="datatype mismatch under not"):
        semantics(App(Const("not"), Var("x")), sig, val)
    with pytest.raises(ValueError, match="unknown constant minus"):
        semantics(app(Const("minus"), Var("x"), Var("y")), sig, val)


def test_semantics_matches_python_oracle(sig):
    t = _lt_term()
    for x, y in itertools.product(range(4), repeat=2):
        v = semantics(t, sig, {"x": Value("Nat", x), "y": Value("Nat", y)})
        assert v == Value(BOOL, x + 1 < y)


def test_semantics_none_on_partial_miss(sig):
    t = App(Const("half"), Var("x"))
    assert semantics(t, sig, {"x": Value("Nat", 3)}) is None
    assert semantics(t, sig, {"x": Value("Nat", 4)}) == Value("Nat", 2)


def test_const_count_is_f_cost(sig):
    t = _lt_term()
    assert const_count(t) == 2
    for x, y in itertools.product(range(3), repeat=2):
        val = {"x": Value("Nat", x), "y": Value("Nat", y)}
        closed = substitute(substitute(t, "x", code_term(val["x"])), "y", code_term(val["y"]))
        r = reduce_leftmost_f(closed, sig, 100)
        assert r.status is Status.NORMAL
        assert r.trace.beta_count == 0
        assert r.trace.f_count == const_count(t)
        assert match_code(r.term, BOOL) == semantics(t, sig, val)


def test_const_count_leaves_out_nodes_over_inputs_alone():
    x, stop = Var("x"), Var("stop")
    one = Code(Value("Nat", 1))
    t = app(Const("lt"), x, app(Const("plus"), stop, one))
    assert const_count(t) == 2
    assert const_count(t, frozenset({"stop"})) == 1
    assert const_count(t, frozenset({"x", "stop"})) == 0
    # a node over codes alone still counts
    assert const_count(app(Const("plus"), one, one), frozenset({"stop"})) == 1


def test_reduce_cost_value_independent(sig):
    t = _lt_term()
    vals = [{"x": Value("Nat", x), "y": Value("Nat", y)}
            for x, y in ((0, 0), (1, 3), (2, 1), (3, 3))]
    assert reduce_cost(t, sig, vals) == const_count(t)


def test_translator_turns_dynamic_constants_into_variables():
    sm = bundled("euclid")
    machine = sm.machine()
    slots = make_slots(machine.voc)
    sig, partials = lower_signature(machine.voc, sm.state({}), slots)
    tr = Translator(machine.voc, machine.init, {s.name: s for s in slots}, partials, sig)
    g, defined = tr.value_and_def(TApp("lt", (TApp("zero"), TApp("b"))))
    # dynamic constants become variables; variable-free static leaves
    # fold to their codes; lt and zero are total, so no guard is needed
    assert g == app(Const("lt"), Code(Value("Nat", 0)), Var("b"))
    assert defined == TRUE_TERM


def test_nodes_of_different_classes_with_the_same_fields_are_unequal():
    v = Value("Nat", 1)
    groups = [
        (Var("a"), TVar("a", "Nat")),
        (Const("zero"), TApp("zero")),
        (App(Const("f"), Var("a")), TApp("f", (TVar("a", "Nat"),))),
        (Code(v), v),
        (Skip(), HaltI(), FailI()),
    ]
    for group in groups:
        for a, b in itertools.permutations(group, 2):
            assert a != b and not a == b
        assert len(set(group)) == len(group)


def test_nodes_differing_in_one_field_are_unequal():
    """Equality and hash read every field, in nodes of one, two and
    three fields alike."""
    zero, one = TApp("zero"), TApp("1")
    pairs = [
        (TVar("a", "Nat"), TVar("b", "Nat")),
        (TVar("a", "Nat"), TVar("a", "Bool")),
        (TApp("f", (zero,)), TApp("g", (zero,))),
        (TApp("f", (zero,)), TApp("f", (one,))),
        (Update("p", (), zero), Update("q", (), zero)),
        (Update("p", (zero,), zero), Update("p", (one,), zero)),
        (Update("p", (), zero), Update("p", (), one)),
        (If(zero, Skip()), If(one, Skip())),
        (If(zero, Skip()), If(zero, HaltI())),
        (If(zero, Skip()), If(zero, Skip(), FailI())),
        (Par((Skip(),)), Par((HaltI(),))),
        (Var("a"), Var("b")),
        (App(Const("f"), Var("a")), App(Const("f"), Var("b"))),
        (Code(Value("Nat", 1)), Code(Value("Nat", 2))),
    ]
    for a, b in pairs:
        assert a != b and not a == b
        assert len({a, b}) == 2
