from asmlc.encodings import (
    PRED,
    SUCC,
    ZERO_TEST,
    case_cost,
    case_n,
    identity_chain,
    match_nat,
    measure_beta,
    nat,
    proj,
    projection_cost,
    tup,
)
from asmlc.lambda_f import TRUE_TERM, FSignature, bool_term, reduce_leftmost_f
from asmlc.terms import App, Var, app


def test_nat_roundtrip():
    for n in range(12):
        assert match_nat(nat(n)) == n
    assert match_nat(TRUE_TERM) is None


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


def test_case_selects_marked_branch():
    for n in range(1, 6):
        for i in range(1, n + 1):
            branches = [Var(f"m{j}") for j in range(1, n + 1)]
            flags = [bool_term(j == i) for j in range(1, n + 1)]
            nf, _ = measure_beta(app(case_n(n), *branches, *flags))
            assert nf == branches[i - 1]


def test_case_cost_uniform_4n():
    for n in range(1, 7):
        costs = {case_cost(n, i) for i in range(1, n + 1)}
        assert costs == {4 * n}


def test_case_discarded_branches_never_fire():
    # a divergent term in a non-selected branch must not be touched
    omega = App(*(2 * [App(Var("d"), Var("d"))]))
    diverging = Var("boom")
    branches = [Var("keep"), diverging]
    flags = [bool_term(True), bool_term(False)]
    r = reduce_leftmost_f(app(case_n(2), *branches, *flags), FSignature(), 8 + 10)
    assert r.term == Var("keep")

