import gc

import pytest

from asmlc.encodings import (
    PRED,
    SUCC,
    ZERO_TEST,
    identity_chain,
    match_nat,
    measure_beta,
    nat,
    proj,
    projection_cost,
    select_first,
    selection_cost,
    tup,
)
from asmlc.lambda_f import TRUE_TERM, FSignature, bool_term
from asmlc.terms import Abs, App, Var, app

from traced import Status, reduce_leftmost_f


def test_nat_roundtrip():
    for n in range(12):
        assert match_nat(nat(n)) == n
    assert match_nat(TRUE_TERM) is None


@pytest.mark.parametrize("enabled", [True, False])
def test_nat_restores_the_collector_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert match_nat(nat(30)) == 30
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_tuple_projection_semantics():
    xs = [Var(f"v{i}") for i in range(1, 5)]
    for i in range(1, 5):
        nf, _ = measure_beta(App(tup(*xs), proj(4, i)))
        assert nf == xs[i - 1]


def test_projection_cost_is_one_plus_k():
    for k in range(1, 6):
        for i in range(1, k + 1):
            assert projection_cost(k, i) == 1 + k


def test_identity_chain_cost():
    for n in range(5):
        nf, steps = measure_beta(identity_chain(n, Var("u")))
        assert nf == Var("u") and steps == n


def test_zero_test():
    # oracle: arithmetic on plain ints
    for n in range(5):
        nf, steps = measure_beta(app(App(ZERO_TEST, nat(n)), Var("y"), Var("z")))
        assert nf == (Var("y") if n == 0 else Var("z"))
    # cost is the same whether or not the argument is zero
    costs = {measure_beta(App(ZERO_TEST, nat(n)))[1] for n in range(5)}
    assert len(costs) == 1


def test_succ_pred():
    for n in range(6):
        nf, _ = measure_beta(App(SUCC, nat(n)))
        assert match_nat(nf) == n + 1
        nf, _ = measure_beta(App(PRED, nat(n + 1)))
        assert match_nat(nf) == n
    costs_s = {measure_beta(App(SUCC, nat(n)))[1] for n in range(5)}
    costs_p = {measure_beta(App(PRED, nat(n + 1)))[1] for n in range(5)}
    assert len(costs_s) == 1 and len(costs_p) == 1


def _marked(n, i, other):
    """select_first over n branches whose guards mark branch i: branch i
    is ``keep``, every other branch is ``other(j)``."""
    branches = [Var("keep") if j == i else other(j) for j in range(1, n + 1)]
    guards = [bool_term(j == i) for j in range(1, n)]
    return select_first(guards, branches)


def test_case_selects_marked_branch():
    for n in range(1, 7):
        for i in range(1, n + 1):
            nf, _ = measure_beta(_marked(n, i, lambda j: Var(f"m{j}")))
            assert nf == Var("keep")


def test_case_cost_uniform_2n_minus_2():
    for n in range(1, 7):
        costs = {selection_cost(n, i) for i in range(1, n + 1)}
        assert costs == {2 * (n - 1)}


def test_select_first_needs_one_guard_fewer_than_branches():
    with pytest.raises(ValueError):
        select_first([], [])
    with pytest.raises(ValueError):
        select_first([bool_term(True)], [Var("m")])


OMEGA = App(Abs("d", App(Var("d"), Var("d"))), Abs("d", App(Var("d"), Var("d"))))


def test_case_discarded_branches_never_fire():
    # every branch not selected is the divergent Omega: selection that
    # reduced one would run out of budget instead of reaching ``keep``
    for n in range(1, 7):
        for i in range(1, n + 1):
            r = reduce_leftmost_f(_marked(n, i, lambda j: OMEGA), FSignature(),
                                  2 * (n - 1) + 10)
            assert r.status is Status.NORMAL and r.term == Var("keep")
            assert r.trace.beta_count == 2 * (n - 1)
