import pytest

from asmlc.engine import (
    STATUS_NORMAL,
    STATUS_RAN,
    STATUS_UNDEFINED,
    advance_term,
    signature_table,
)
from asmlc.lambda_f import (
    BOOL,
    FALSE_TERM,
    TRUE_TERM,
    FSignature,
    Value,
    reduce_leftmost_f,
    standard_bool_signature,
)
from asmlc.reduction import Status
from asmlc.syntax import TermSyntaxError, parse_term
from asmlc.terms import Abs, App, Code, Const, Var, app

from conftest import random_term

_STATUS = {Status.NORMAL: STATUS_NORMAL, Status.BUDGET: STATUS_RAN,
           Status.UNDEFINED: STATUS_UNDEFINED}


def _assert_agrees(t, sig, budget):
    """The engine and the traced reducer agree on the result term, down
    to the fresh binder names, the counts and the status."""
    slow = reduce_leftmost_f(t, sig, budget)
    fast_t, beta, f, status = advance_term(t, signature_table(sig), budget)
    assert (beta, f) == (slow.trace.beta_count, slow.trace.f_count)
    assert fast_t == slow.term
    assert status == _STATUS[slow.status]


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
        _assert_agrees(t, sig, rng.randint(0, 30))


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
        out, beta, f, status = advance_term(t, signature_table(sig), budget)
        assert status == want
        assert (beta, f) == (min(budget, 1), 0)
    assert out == App(Const("half"), Code(Value("Nat", 3)))  # the term before the step
    _assert_agrees(t, sig, 2)


def test_substitution_keeps_closed_subterms():
    """A closed argument is shared, not copied, and a closed body is
    returned as is."""
    big = app(Const("c"), *(Abs("v", Var("v")) for _ in range(5)))
    t = App(Abs("x", app(Var("x"), Var("x"), big)), big)
    out, beta, f, status = advance_term(t, {}, 1)
    assert (beta, f, status) == (1, 0, STATUS_NORMAL)
    assert out.fun.fun is big and out.arg is big
