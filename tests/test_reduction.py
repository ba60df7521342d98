import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmlc.lambda_f import FSignature
from asmlc.syntax import parse_term
from asmlc.terms import Abs, App, Var, alpha_eq, app, lam

from conftest import ConfluenceInconclusive, check_confluence_bounded, random_term
from traced import (
    Status,
    beta_redex_addresses,
    beta_step,
    is_beta_redex,
    leftmost_redex,
    reduce_leftmost_f,
    substitute,
    subterm_at,
)

I = Abs("x", Var("x"))
K = lam(["x", "y"], Var("x"))
S = lam(["x", "y", "z"], app(Var("x"), Var("z"), app(Var("y"), Var("z"))))
OMEGA = App(Abs("x", App(Var("x"), Var("x"))), Abs("x", App(Var("x"), Var("x"))))


def test_substitute_capture_avoiding():
    # (\y. x y)[y/x] must not capture: result is \y'. y y'
    t = Abs("y", App(Var("x"), Var("y")))
    r = substitute(t, "x", Var("y"))
    assert isinstance(r, Abs) and r.binder != "y"
    assert r.body == App(Var("y"), Var(r.binder))


def test_fresh_names_are_deterministic():
    # renaming picks the first free base$k, so the same reduction run
    # twice in one process gives equal terms, not just alpha-equal ones
    t = parse_term(r"(\x y. x y) (\z. y)")
    a = reduce_leftmost_f(t, FSignature(), 10)
    b = reduce_leftmost_f(t, FSignature(), 10)
    assert a.term == b.term == Abs("y$0", Var("y"))
    # the first free name: y$0 is taken by the replacement, y$1 by the body
    y0, y1, y2 = Var("y$0"), Var("y$1"), Var("y$2")
    r = substitute(Abs("y", app(Var("x"), Var("y"), y1)), "x", App(Var("y"), y0))
    assert r == Abs("y$2", app(Var("y"), y0, y2, y1))


def test_substitute_shadowing():
    t = Abs("x", Var("x"))
    assert substitute(t, "x", Var("z")) == t


def test_leftmost_order_is_prefix_order():
    # two redexes: one in function position, one in argument position
    inner = App(I, Var("u"))
    t = App(App(I, I), inner)
    addrs = list(beta_redex_addresses(t))
    assert addrs[0] == ("fun",)
    assert leftmost_redex(t) == ("fun",)
    assert subterm_at(t, addrs[0]) == App(I, I)


def test_one_redex_per_step_counting():
    # S K K x -> x in exactly 3 + 2 steps (oracle: hand reduction)
    t = app(S, K, K, Var("v"))
    r = reduce_leftmost_f(t, FSignature(), 100)
    assert r.status is Status.NORMAL
    assert r.term == Var("v")
    assert r.trace.beta_count == 5


def test_budget_exhaustion_on_divergent_term():
    r = reduce_leftmost_f(OMEGA, FSignature(), 25)
    assert r.status is Status.BUDGET
    assert r.trace.beta_count == 25
    assert alpha_eq(r.term, OMEGA)


def test_leftmost_escapes_argument_divergence():
    # K v Omega discards the divergent argument under leftmost reduction
    t = app(K, Var("v"), OMEGA)
    r = reduce_leftmost_f(t, FSignature(), 100)
    assert r.status is Status.NORMAL
    assert r.term == Var("v")


def test_beta_step_at_explicit_address():
    t = App(I, App(I, Var("u")))
    stepped = beta_step(t, ("arg",))
    assert stepped == App(I, Var("u"))


def test_is_beta_redex():
    assert is_beta_redex(App(I, Var("x")))
    assert not is_beta_redex(App(Var("x"), I))


def test_confluence_on_classic_examples():
    assert check_confluence_bounded(app(S, K, K, Var("v")), depth=6)
    assert check_confluence_bounded(App(K, App(I, Var("u"))), depth=6)


def test_confluence_inconclusive_on_blowup():
    # a term whose reducts keep growing past the size cap
    grower = App(Abs("x", app(Var("x"), Var("x"), Var("x"))),
                 Abs("x", app(Var("x"), Var("x"), Var("x"))))
    with pytest.raises(ConfluenceInconclusive):
        check_confluence_bounded(grower, depth=6, size_cap=30, state_cap=8)


@given(st.integers(min_value=1, max_value=10), st.integers())
@settings(max_examples=80, deadline=None)
def test_random_terms_confluent_bounded(size, seed):
    rng = random.Random(seed)
    t = random_term(rng, size)
    try:
        assert check_confluence_bounded(t, depth=5)
    except ConfluenceInconclusive:
        pass  # blowup guard: no counterexample found either
