import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmlc.compiler import compile_machine
from asmlc.cosim import lockstep
from asmlc.terms import (
    Abs,
    App,
    Code,
    Const,
    Unknown,
    Value,
    Var,
    alpha_eq,
    app,
    canonical,
    lam,
    spine,
    subterms,
    term_size,
)

from conftest import bundled, random_closed_term, random_term


def test_constructors_and_helpers():
    t = lam(["x", "y"], app(Var("x"), Var("y"), Const("f")))
    assert isinstance(t, Abs) and isinstance(t.body, Abs)
    head, args = spine(t.body.body)
    assert head == Var("x") and args == [Var("y"), Const("f")]
    assert term_size(t) == 7


def test_free_vars_and_closedness():
    t = Abs("x", App(Var("x"), Var("y")))
    assert t.fv == {"y"}
    assert Abs("y", t).fv == frozenset()
    assert Const("f").fv == frozenset()
    assert Code(Value("Nat", 3)).fv == frozenset()


# Reference definitions of the node facts, by recursion over the fields.

def _ref_fv(t):
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Abs):
        return _ref_fv(t.body) - {t.binder}
    if isinstance(t, App):
        return _ref_fv(t.fun) | _ref_fv(t.arg)
    return set()


def _ref_beta(t):
    if isinstance(t, Abs):
        return _ref_beta(t.body)
    if isinstance(t, App):
        return isinstance(t.fun, Abs) or _ref_beta(t.fun) or _ref_beta(t.arg)
    return False


def _ref_const(t):
    if isinstance(t, Const):
        return True
    if isinstance(t, Abs):
        return _ref_const(t.body)
    if isinstance(t, App):
        return _ref_const(t.fun) or _ref_const(t.arg)
    return False


_ATOMS = (Const("f"), Const("g"), Code(Value("Nat", 2)), Code(Value("Sym", "s")))


def _splice(rng, t):
    """``t`` with some variable leaves replaced by constants and codes."""
    if isinstance(t, Var):
        return rng.choice(_ATOMS) if rng.random() < 0.3 else t
    if isinstance(t, Abs):
        return Abs(t.binder, _splice(rng, t.body))
    return App(_splice(rng, t.fun), _splice(rng, t.arg))


def test_node_facts_match_reference_definitions(rng):
    for i in range(300):
        t = random_term(rng, rng.randint(1, 14))
        if i % 3:
            t = _splice(rng, t)
        for s in subterms(t):
            assert s.fv == _ref_fv(s)
            assert s.beta is _ref_beta(s)
            assert s.const is _ref_const(s)


_FIELDS = [
    (Var("x"), ("name",)),
    (Abs("x", Var("x")), ("binder", "body")),
    (App(Var("x"), Const("f")), ("fun", "arg")),
    (Const("f"), ("symbol",)),
    (Code(Value("Nat", 1)), ("value",)),
    (Unknown("Nat"), ("datatype",)),
]


@pytest.mark.parametrize("node, fields", _FIELDS, ids=[type(n).__name__ for n, _ in _FIELDS])
def test_nodes_are_immutable(node, fields):
    for name in (*fields, "fv", "beta", "const", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, Var("y"))
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)


def _build():
    return App(Abs("x", app(Var("x"), Const("f"))), Code(Value("Nat", 3)))


def test_equality_hash_and_repr_are_structural():
    s, t = _build(), _build()
    assert s is not t and s == t and hash(s) == hash(t)
    assert len({s, t, canonical(s)}) == 2
    assert pickle.loads(pickle.dumps(s)) == s == copy.deepcopy(s)
    assert Var("x") != Const("x") and Const("x") != Var("x")
    assert Abs("x", Var("x")) != Abs("y", Var("y"))
    assert repr(App(Var("x"), Abs("y", Var("y")))) == (
        "App(fun=Var(name='x'), arg=Abs(binder='y', body=Var(name='y')))")
    assert repr(Code(Value("Nat", 3))) == (
        "Code(value=Value(datatype='Nat', payload=3))")
    assert Unknown("Nat") == Unknown("Nat") != Unknown("Bool")
    assert hash(Unknown("Nat")) == hash(Unknown("Nat"))
    assert repr(Unknown("Nat")) == "Unknown(datatype='Nat')"
    assert not (Unknown("Nat").fv or Unknown("Nat").beta or Unknown("Nat").const)


def test_cached_hash_is_the_structural_hash():
    s = _build()
    h = hash(s)
    assert s.arg._hash == hash(s.arg)
    assert not hasattr(s, "_hash") and not hasattr(s.fun, "_hash")  # only Code caches
    assert hash(s) == h == hash((s.fun, s.arg))
    fresh = _build()
    assert hash(fresh) == h == hash((fresh.fun, fresh.arg))
    assert hash(s.fun) == hash((s.fun.binder, s.fun.body))
    assert hash(s.arg) == hash((s.arg.value,)) == hash(fresh.arg)


@pytest.mark.parametrize("node", [_build(), _build().fun, _build().arg],
                         ids=["App", "Abs", "Code"])
def test_hash_cache_cannot_be_assigned_or_deleted(node):
    for _ in range(2):  # before and after the cache is filled
        with pytest.raises(FrozenInstanceError):
            node._hash = 0
        with pytest.raises(FrozenInstanceError):
            del node._hash
        hash(node)
    if type(node) is Code:
        assert node._hash == hash(node)
    else:  # App and Abs keep no cache
        assert not hasattr(node, "_hash")


def test_hash_cache_stays_out_of_pickling_and_repr():
    node = _build().arg
    h = hash(node)
    for copied in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
        with pytest.raises(AttributeError):
            copied._hash  # rebuilt, not copied
        assert copied == node and hash(copied) == h
    assert "_hash" not in repr(node)


def test_lockstep_hashes_no_app_or_abs(monkeypatch):
    """A lockstep of euclid and of doubling, each right after a fresh
    compile, hashes no App or Abs node: the round memo is keyed by each
    round's slot codes, never by theta or a start term."""

    def refuse(self):
        raise AssertionError(f"hashed {type(self).__name__}")

    for name, inputs in (("euclid", {"a0": 36, "b0": 24}), ("doubling", {"stop": 5})):
        sm = bundled(name)
        machine, state = sm.machine(), sm.state(inputs)
        cm = compile_machine(machine, state)
        with monkeypatch.context() as patch:
            for cls in (App, Abs):
                patch.setattr(cls, "__hash__", refuse)
            rep = lockstep(machine, cm, state)
        assert rep.passed
        assert len(cm.round_memo) == len(rep.rounds)


def test_alpha_equivalence():
    assert alpha_eq(Abs("x", Var("x")), Abs("y", Var("y")))
    assert not alpha_eq(Abs("x", Var("x")), Abs("x", Abs("y", Var("x"))))
    # free variables must match by name
    assert not alpha_eq(Var("x"), Var("y"))
    # binder shadowing
    a = Abs("x", Abs("x", Var("x")))
    b = Abs("y", Abs("z", Var("z")))
    c = Abs("y", Abs("z", Var("y")))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)


def test_canonical_is_alpha_invariant():
    rng = random.Random(7)
    for _ in range(50):
        t = random_closed_term(rng, rng.randint(1, 10))
        # rename every binder; canonical forms must collide exactly when
        # alpha-equal
        assert canonical(t) == canonical(_rename(t, {}))


def _rename(t, env, counter=[0]):
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Abs):
        counter[0] += 1
        fresh = f"r{counter[0]}"
        return Abs(fresh, _rename(t.body, {**env, t.binder: fresh}))
    if isinstance(t, App):
        return App(_rename(t.fun, env), _rename(t.arg, env))
    return t


def test_subterms_counts_nodes():
    rng = random.Random(3)
    for _ in range(20):
        t = random_term(rng, 8)
        assert len(list(subterms(t))) == term_size(t)


@given(st.integers(min_value=1, max_value=12), st.integers())
@settings(max_examples=60, deadline=None)
def test_canonical_roundtrip_random(size, seed):
    rng = random.Random(seed)
    t = random_term(rng, size)
    u = random_term(rng, size)
    assert alpha_eq(t, t)
    assert (canonical(t) == canonical(u)) == alpha_eq(t, u)
