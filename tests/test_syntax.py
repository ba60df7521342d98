import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmlc.syntax import TermSyntaxError, parse_term, print_term
from asmlc.terms import Abs, App, Code, Const, Value, Var, app, lam

from conftest import random_term


def test_parse_basics():
    assert parse_term("x") == Var("x")
    assert parse_term("#succ") == Const("succ")
    assert parse_term("[Nat:3]") == Code(Value("Nat", 3))
    assert parse_term(r"\x. x") == Abs("x", Var("x"))
    assert parse_term("f x y") == app(Var("f"), Var("x"), Var("y"))


def test_multi_binder_sugar():
    assert parse_term(r"\x y z. x") == lam(["x", "y", "z"], Var("x"))


def test_application_left_associative():
    t = parse_term("a b c")
    assert t == App(App(Var("a"), Var("b")), Var("c"))


def test_trailing_abstraction_extends_right():
    t = parse_term(r"f \x. x y")
    assert t == App(Var("f"), Abs("x", App(Var("x"), Var("y"))))


def test_parens_override():
    t = parse_term(r"f (\x. x) y")
    assert t == app(Var("f"), Abs("x", Var("x")), Var("y"))


def test_code_payload_literals():
    assert parse_term("[Nat:(1, 2)]") == Code(Value("Nat", (1, 2)))
    assert parse_term("[L_f:((0, 7), (2, 9))]") == Code(
        Value("L_f", ((0, 7), (2, 9))))


def test_syntax_errors():
    for bad in ("", "(x", r"\. x", "[Nat]", "[Nat:1 +]", ")"):
        with pytest.raises(TermSyntaxError):
            parse_term(bad)


def test_print_parse_roundtrip_random(rng):
    for _ in range(150):
        t = random_term(rng, rng.randint(1, 14))
        assert parse_term(print_term(t)) == t


@given(st.integers(min_value=1, max_value=14), st.integers())
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip_hypothesis(size, seed):
    t = random_term(random.Random(seed), size)
    assert parse_term(print_term(t)) == t


def test_roundtrip_with_constants_and_codes():
    t = app(Const("and"), Code(Value("Nat", 5)),
            Abs("x", App(Var("x"), Const("not"))))
    assert parse_term(print_term(t)) == t


def _recursive_print(t, prec=0):
    """The former recursive printer, kept as the oracle."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return "#" + t.symbol
    if isinstance(t, Code):
        return f"[{t.value.datatype}:{t.value.payload!r}]"
    if isinstance(t, Abs):
        binders = []
        while isinstance(t, Abs):
            binders.append(t.binder)
            t = t.body
        s = f"\\{' '.join(binders)}. {_recursive_print(t, 0)}"
        return f"({s})" if prec > 0 else s
    s = f"{_recursive_print(t.fun, 1)} {_recursive_print(t.arg, 2)}"
    return f"({s})" if prec > 1 else s


def test_print_matches_recursive_oracle(rng):
    leaves = (Const("succ"), Code(Value("Nat", 3)), Code(Value("Pair", (1, "a"))))
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 40))
        for u in (t, App(rng.choice(leaves), t), Abs("a", App(t, rng.choice(leaves)))):
            assert print_term(u) == _recursive_print(u)


def test_print_deep_left_spine():
    # deeper than the recursion limit the package sets (100k frames),
    # which the recursive printer spent one frame a level on; the CLI
    # tests print a right-nested numeral 200k deep
    left = Var("x")
    for _ in range(120_000):
        left = App(left, Var("y"))
    assert print_term(left) == "x" + " y" * 120_000
