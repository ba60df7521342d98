import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmlc.compiler import delta_as_map
from asmlc.lambda_f import (
    BOOL,
    FALSE_TERM,
    TRUE_TERM,
    DeltaType,
    FSignature,
    UndefinedApplication,
    Value,
    bool_term,
    code_term,
    delta_b,
    delta_f,
    delta_get,
    delta_set,
    install_delta,
    match_bool,
    match_code,
    standard_bool_signature,
)
from asmlc.terms import Abs, App, Code, Const, Var, app

from traced import Status, f_redexes, f_step, is_normal_form, leftmost_f_redex, reduce_leftmost_f


@pytest.fixture
def sig():
    return standard_bool_signature()


def test_bool_codes_are_lambda_booleans():
    assert bool_term(True) == TRUE_TERM
    assert match_bool(TRUE_TERM) is True
    assert match_bool(FALSE_TERM) is False
    assert match_bool(Abs("x", Var("x"))) is None
    assert code_term(Value(BOOL, True)) == TRUE_TERM
    assert match_code(FALSE_TERM, BOOL) == Value(BOOL, False)


def test_f_redex_detection_requires_full_arity_and_codes(sig):
    nt = Const("not")
    assert list(f_redexes(App(nt, TRUE_TERM), sig)) == [()]
    assert list(f_redexes(nt, sig)) == []  # under-applied
    assert list(f_redexes(App(nt, Var("x")), sig)) == []  # argument not a code
    # over-applied: the saturated prefix is still a redex
    over = app(Const("and"), TRUE_TERM, FALSE_TERM, TRUE_TERM)
    assert list(f_redexes(over, sig)) == [("fun",)]


def test_f_step_truth_tables(sig):
    # oracle: Python's own boolean operators over all argument pairs
    for a in (True, False):
        r = f_step(App(Const("not"), bool_term(a)), (), sig)
        assert match_bool(r) == (not a)
        for b in (True, False):
            for name, fn in (("and", lambda x, y: x and y),
                             ("or", lambda x, y: x or y)):
                t = app(Const(name), bool_term(a), bool_term(b))
                assert match_bool(f_step(t, (), sig)) == fn(a, b)


def test_f_first_strategy_prefers_f_over_earlier_beta(sig):
    # beta redex to the left of an F-redex: the F-redex still fires first
    t = App(App(Abs("x", Var("x")), Var("v")), App(Const("not"), TRUE_TERM))
    r = reduce_leftmost_f(t, sig, 1)
    assert r.trace.f_count == 1 and r.trace.beta_count == 0
    assert r.trace.steps[0].kind == "f"


def test_f_result_drives_beta_selection(sig):
    # (not true) m n: after the F-step the boolean selects the branch
    t = app(App(Const("not"), TRUE_TERM), Var("m"), Var("n"))
    r = reduce_leftmost_f(t, sig, 10)
    assert r.status is Status.NORMAL
    assert r.term == Var("n")
    assert (r.trace.beta_count, r.trace.f_count) == (2, 1)


def test_undefined_application_status():
    sig = FSignature()
    sig.add("half", ("Nat",), "Nat", lambda n: n // 2 if n % 2 == 0 else None)
    t = App(Const("half"), Code(Value("Nat", 3)))
    r = reduce_leftmost_f(t, sig, 10)
    assert r.status is Status.UNDEFINED
    with pytest.raises(UndefinedApplication):
        f_step(t, (), sig)


def test_normal_form_predicate(sig):
    assert is_normal_form(TRUE_TERM, sig)
    assert not is_normal_form(App(Const("not"), TRUE_TERM), sig)
    assert not is_normal_form(App(Abs("x", Var("x")), Var("y")), sig)
    assert leftmost_f_redex(TRUE_TERM, sig) is None


def test_leftmost_f_redex_prefix_order(sig):
    left = App(Const("not"), TRUE_TERM)
    right = App(Const("not"), FALSE_TERM)
    t = App(left, right)
    assert leftmost_f_redex(t, sig) == ("fun",)


def test_standard_signature_gives_semantics_to_the_connectives_only(sig):
    """``asmlc trace`` runs under this signature: ``#true`` and
    ``#false`` stay inert constants."""
    assert [(n, f.arity) for n, f in sig.functions.items()] == [
        ("not", 1), ("and", 2), ("or", 2)]


def test_delta_semantics_oracle():
    # oracle: the operations are plain association-list manipulations
    seq = ((0, 7), (2, 9))
    assert delta_f(seq) is True
    assert delta_f(seq + ((0, 1),)) is False
    assert delta_b(seq, 0) is True
    assert delta_b(seq, 1) is False
    assert delta_get(seq, 2, 4) == 9
    assert delta_get(seq, 1, 4) == 4
    assert delta_get(seq + ((2, 1),), 2, 4) == 4  # not functional
    assert delta_set(seq, 1, 8) == ((0, 7), (2, 9), (1, 8))
    assert delta_set(seq, 0, 8) == ((2, 9), (0, 8))
    assert delta_set(seq, 2, 9) == seq


@st.composite
def _functional_lists(draw):
    """A functional list over keys of one or two small components, in
    any order, with a key and a value to read and write at."""
    key = st.tuples(*[st.integers(0, 3)] * draw(st.integers(1, 2)))
    table = draw(st.dictionaries(key, st.integers(0, 3), max_size=6))
    seq = tuple(draw(st.permutations([k + (v,) for k, v in table.items()])))
    return seq, draw(key), draw(st.integers(0, 3))


@given(_functional_lists())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_set_and_get_on_functional_lists(case):
    """Set keeps a list functional, stores the value at the key, and
    builds the tuple that the Add-after-Del write it replaces built; Get
    reads the map the list stands for, with its default."""
    seq, key, v = case
    table = delta_as_map(Value("L_f", seq))
    got = delta_set(seq, *key, v)
    assert delta_f(got)
    assert delta_as_map(Value("L_f", got)) == {**table, key: v}
    # the write Set replaces: Del the visible entry, ite(B, V, init), then Add
    current = table.get(key, "init")
    assert got == tuple(t for t in seq if t != (*key, current)) + ((*key, v),)
    assert delta_get(seq, *key, v) == table.get(key, v)


def test_install_delta_and_reduce(sig):
    d = DeltaType("cell", ("Nat",), "Nat")
    install_delta(sig, d)
    empty = Code(Value(d.list_datatype, ()))
    t = app(Const(d.op_name("Set")), empty, Code(Value("Nat", 1)), Code(Value("Nat", 5)))
    r = reduce_leftmost_f(t, sig, 10)
    assert r.status is Status.NORMAL
    got = r.term
    for key, want in ((1, 5), (2, 0)):
        t2 = app(Const(d.op_name("Get")), got, Code(Value("Nat", key)), Code(Value("Nat", 0)))
        r2 = reduce_leftmost_f(t2, sig, 10)
        assert (r2.status, r2.trace.f_count) == (Status.NORMAL, 1)
        assert match_code(r2.term, "Nat") == Value("Nat", want)
