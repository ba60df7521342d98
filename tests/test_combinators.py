import pytest

from asmlc import combinators, engine
from asmlc.combinators import (
    ExitBranch,
    Slot,
    UpdateBranch,
    build_branch_combinator,
    certify,
    curry_fixpoint,
    decode_state,
    instantiate,
    static_f_work,
)
from asmlc.encodings import identity_chain
from asmlc.engine import scan
from asmlc.compiler import compile_machine
from asmlc.lambda_f import (
    BOOL,
    FALSE_TERM,
    TRUE_TERM,
    UNKNOWN_BOOL,
    FSignature,
    UndefinedApplication,
    Value,
    code_term,
    match_code,
    standard_bool_signature,
)
from asmlc.terms import Abs, App, Code, Const, Unknown, Var, alpha_eq, app, lam

from conftest import (
    BUNDLED_COSTS,
    Block,
    bundled,
    counter_state,
    counter_vocabulary,
    machine_probes,
    measure_block,
    random_closed_term,
    random_machines,
    wide,
)
from traced import (
    beta_step,
    f_redexes,
    f_step,
    holds_f_redex,
    leftmost_f_redex,
    leftmost_redex,
    reduce_leftmost_f,
)


def traced_block(t, theta, slots, sig, max_steps=100_000) -> Block:
    """Reference block loop: one traced F-first leftmost step at a time,
    decoding the boundary after every step."""
    beta = f = 0
    for _ in range(max_steps):
        at = leftmost_f_redex(t, sig)
        if at is not None:
            t = f_step(t, at, sig)
            f += 1
        else:
            at = leftmost_redex(t)
            if at is None:
                return Block(t, beta, f, "exit", None)
            t = beta_step(t, at)
            beta += 1
        vals = decode_state(t, theta, slots)
        if vals is not None:
            return Block(t, beta, f, "state", vals)
    raise RuntimeError("block did not complete within the step budget")


def block(t, theta, slots, sig) -> Block:
    """One block through ``combinators.blocks``, checked against the
    traced reference loop."""
    got = measure_block(t, theta, slots, sig)
    want = traced_block(t, theta, slots, sig)
    assert (got.kind, got.beta_count, got.f_count, got.values) == (
        want.kind, want.beta_count, want.f_count, want.values)
    assert alpha_eq(got.term, want.term)
    return got


def _assert_probes_agree(cc, probes):
    for val in probes:
        start = app(cc.theta, *(code_term(val[s.name]) for s in cc.slots))
        b = block(start, cc.theta, cc.slots, cc.sig)
        assert (b.beta_count, b.f_count) == (cc.K, cc.L)


@pytest.fixture
def nat_sig():
    sig = standard_bool_signature()
    sig.add("eq_Nat", ("Nat", "Nat"), BOOL, lambda a, b: a == b)
    sig.add("lt", ("Nat", "Nat"), BOOL, lambda a, b: a < b)
    sig.add("plus", ("Nat", "Nat"), "Nat", lambda a, b: a + b)
    return sig


def test_curry_fixpoint_single_step():
    f = Abs("v", App(Var("v"), Var("v")))
    theta = curry_fixpoint(f)
    r = reduce_leftmost_f(theta, FSignature(), 1)
    assert alpha_eq(r.term, App(f, theta))
    assert r.trace.beta_count == 1


def test_curry_fixpoint_random_closed(rng):
    for _ in range(15):
        f = random_closed_term(rng, rng.randint(1, 8))
        theta = curry_fixpoint(f)
        r = reduce_leftmost_f(theta, FSignature(), 1)
        assert alpha_eq(r.term, App(f, theta))


def _counter(nat_sig, **kw):
    # one slot, incremented by one on every step
    slots = [Slot("c", "Nat")]
    phi = app(Const("plus"), Var("c"), Code(Value("Nat", 1)))
    probes = [{"c": Value("Nat", i)} for i in range(3)]
    cc = build_branch_combinator([UpdateBranch(TRUE_TERM, (phi,))],
                                 slots, nat_sig, **kw)
    _assert_probes_agree(cc, probes)
    return cc, slots


def test_update_combinator_lockstep(nat_sig):
    cc, slots = _counter(nat_sig)
    t = App(cc.theta, code_term(Value("Nat", 0)))
    for i in range(1, 6):
        b = block(t, cc.theta, slots, nat_sig)
        assert b.kind == "state"
        assert b.values == (Value("Nat", i),)
        assert (b.beta_count, b.f_count) == (cc.K, cc.L)
        t = b.term


def test_static_f_work_counts_all_branches(nat_sig):
    guard = app(Const("lt"), Var("c"), Code(Value("Nat", 3)))
    phi = app(Const("plus"), Var("c"), Code(Value("Nat", 1)))
    branch = UpdateBranch(guard, (phi,))
    assert static_f_work([branch]) == 2  # lt and plus nodes


def test_requested_headroom_is_exact(nat_sig):
    cc0, slots = _counter(nat_sig)
    # F-padding spends one beta on its discard binding, so L above L_min
    # at K = K_min is refused
    with pytest.raises(ValueError, match=f"the least K for L={cc0.L_min + 3} "
                                         f"is {cc0.K_min + 1}"):
        _counter(nat_sig, K=cc0.K_min, L=cc0.L_min + 3)
    for dk, dl in ((0, 0), (2, 0), (1, 3), (4, 2)):
        cc, _ = _counter(nat_sig, K=cc0.K_min + dk, L=cc0.L_min + dl)
        assert (cc.K, cc.L) == (cc0.K_min + dk, cc0.L_min + dl)
        t = App(cc.theta, code_term(Value("Nat", 1)))
        b = block(t, cc.theta, slots, nat_sig)
        assert (b.beta_count, b.f_count) == (cc.K, cc.L)


def test_f_padding_needs_a_test_of_the_first_slot(nat_sig):
    # without eq_Nat there is no Boolean test of the slot to pad over
    sig = FSignature({name: f for name, f in nat_sig.functions.items() if name != "eq_Nat"})
    cc0, _ = _counter(sig)
    _counter(sig, K=cc0.K_min + 2)
    with pytest.raises(ValueError, match="Boolean test of the first slot"):
        _counter(sig, K=cc0.K_min + 1, L=cc0.L_min + 1)


def test_headroom_below_minimum_rejected(nat_sig):
    cc0, _ = _counter(nat_sig)
    with pytest.raises(ValueError):
        _counter(nat_sig, K=cc0.K_min - 1)


def test_cost_formula_cross_check_fires(nat_sig, monkeypatch):
    """A formula that disagrees with the measured theta is an error."""
    real = combinators.static_f_work
    monkeypatch.setattr(combinators, "static_f_work", lambda *a: real(*a) + 1)
    with pytest.raises(RuntimeError, match=r"\(K,L\)=\(3, 2\).*measures \(3, 1\)"):
        _counter(nat_sig)
    # a compile names the branch of the first path that is off
    sm = bundled("euclid")
    with pytest.raises(RuntimeError, match=r"measures \(8, 7\) on path \(true\), branch "):
        compile_machine(sm.machine(), sm.state({"a0": 6, "b0": 4}))


def test_conditional_combinator_exits(nat_sig):
    # count up to 3, then exit with the final value
    slots = [Slot("c", "Nat")]
    guard_run = app(Const("lt"), Var("c"), Code(Value("Nat", 3)))
    phi = app(Const("plus"), Var("c"), Code(Value("Nat", 1)))
    gamma = Var("c")
    probes = [{"c": Value("Nat", i)} for i in range(4)]
    cc = build_branch_combinator(
        [UpdateBranch(guard_run, (phi,)), ExitBranch(TRUE_TERM, (gamma,))],
        slots, nat_sig)
    _assert_probes_agree(cc, probes)
    t = App(cc.theta, code_term(Value("Nat", 0)))
    seen = []
    for _ in range(10):
        b = block(t, cc.theta, slots, nat_sig)
        assert (b.beta_count, b.f_count) == (cc.K, cc.L)
        if b.kind == "exit":
            break
        seen.append(b.values[0].payload)
        t = b.term
    assert seen == [1, 2, 3]
    assert b.kind == "exit"
    assert match_code(b.term, "Nat") == Value("Nat", 3)


def test_decode_state_rejects_partial_application(nat_sig):
    cc, slots = _counter(nat_sig)
    assert decode_state(cc.theta, cc.theta, slots) is None
    good = App(cc.theta, code_term(Value("Nat", 2)))
    assert decode_state(good, cc.theta, slots) == (Value("Nat", 2),)


def test_decode_state_accepts_abstract_codes_only_of_their_slot():
    """The block boundary: theta applied to one code per slot gives the
    slot values, an abstract code of the slot's datatype standing for
    itself; anything else gives None."""
    theta = _bool_slot_theta(0)
    slots = [Slot("c", "Nat"), Slot("b", BOOL)]
    two, nat_, bool_ = Code(Value("Nat", 2)), Unknown("Nat"), Unknown(BOOL)
    assert decode_state(app(theta, two, TRUE_TERM), theta, slots) == (
        Value("Nat", 2), Value(BOOL, True))
    for c, b in ((nat_, UNKNOWN_BOOL), (nat_, bool_), (two, UNKNOWN_BOOL), (nat_, FALSE_TERM)):
        assert decode_state(app(theta, c, b), theta, slots) == (
            match_code(c, "Nat") or c, match_code(b, BOOL) or b)
    for c, b in ((Unknown("Col"), TRUE_TERM), (UNKNOWN_BOOL, TRUE_TERM), (bool_, TRUE_TERM),
                 (two, nat_), (two, Unknown("Col")), (Code(Value("Col", 2)), TRUE_TERM),
                 (two, Code(Value("Nat", 1)))):
        assert decode_state(app(theta, c, b), theta, slots) is None
    # theta must be the head, under exactly one application per slot
    assert decode_state(app(_bool_slot_theta(1), two, TRUE_TERM), theta, slots) is None
    assert decode_state(App(theta, two), theta, slots) is None
    assert decode_state(app(theta, two, TRUE_TERM, TRUE_TERM), theta, slots) is None


def test_resident_f_redex_rejected(nat_sig):
    # a guard with a ground F-redex (constant applied to codes) must be
    # folded before building; the builder refuses otherwise
    slots = [Slot("c", "Nat")]
    bad_guard = app(Const("lt"), Code(Value("Nat", 0)), Code(Value("Nat", 1)))
    phi = Var("c")
    with pytest.raises(ValueError, match="resident F-redex"):
        build_branch_combinator([UpdateBranch(bad_guard, (phi,)),
                                 UpdateBranch(TRUE_TERM, (phi,))],
                                slots, nat_sig)


def test_inputs_stay_free_and_bind_uncounted(nat_sig):
    """Inputs named like theta's own binders w and d stay free in theta,
    padded over L as well.  N leaves out ``plus(w, d)``, which binding
    folds, so every binding of the inputs runs at the certified (K, L)."""
    slots = [Slot("c", "Nat")]
    c = Var("c")
    bound = app(Const("plus"), Var("w"), Var("d"))
    phi = app(Const("plus"), c, Code(Value("Nat", 1)))
    branches = [UpdateBranch(app(Const("lt"), c, bound), (phi,)), ExitBranch(TRUE_TERM, (c,))]
    inputs = [Slot("w", "Nat"), Slot("d", "Nat"), Slot("unread", "Nat")]
    least = build_branch_combinator(branches, slots, nat_sig, inputs=inputs)
    assert (least.K_min, least.L_min) == (5, 2)
    cc = build_branch_combinator(branches, slots, nat_sig, least.K + 1, least.L + 2, inputs)
    assert cc.theta.fv == {"w", "d"} and cc.theta is cc.template
    assert [s.name for s in cc.inputs] == ["w", "d"] and cc.binding == ()
    assert cc.certificate.paths == 2
    assert cc.cost()["F_branches"] == [2, 0]
    for w, d in ((0, 0), (1, 2), (3, 1)):
        theta, free = instantiate(cc.template, {"w": code_term(Value("Nat", w)),
                                                "d": code_term(Value("Nat", d))}, cc.sig,
                                  cc.theta_free)
        # the instance's memo starts from the template's
        assert not theta.fv and scan(theta, cc.sig)[1].keys() <= free.keys()
        assert cc.theta_free.keys() <= free.keys()
        assert all(not list(f_redexes(node, cc.sig)) for node in free.values())
        t = App(theta, code_term(Value("Nat", 0)))
        for _ in range(w + d + 1):
            b = block(t, theta, slots, nat_sig)
            assert (b.beta_count, b.f_count) == (cc.K, cc.L)
            t = b.term
        assert b.kind == "exit" and match_code(t, "Nat") == Value("Nat", w + d)


def test_last_guard_must_be_constant_true(nat_sig):
    # the last branch is the else-arm, so any other last guard is refused
    slots = [Slot("c", "Nat")]
    phi = Var("c")
    lt3 = app(Const("lt"), Var("c"), Code(Value("Nat", 3)))
    for last in (lt3, FALSE_TERM):
        with pytest.raises(ValueError, match="else-arm"):
            build_branch_combinator([UpdateBranch(TRUE_TERM, (phi,)),
                                     UpdateBranch(last, (phi,))],
                                    slots, nat_sig)


@pytest.mark.parametrize("name", ["euclid", "doubling"])
def test_block_matches_traced_block_on_machine_probes(name):
    """Concrete blocks through the engine are the traced loop's blocks
    and cost the certified (K, L) on probe states of the bundled
    machines."""
    sm = bundled(name)
    machine = sm.machine()
    state = sm.state({"euclid": {"a0": 6, "b0": 4}, "doubling": {"stop": 4}}[name])
    cm = compile_machine(machine, state)
    _assert_probes_agree(cm, machine_probes(machine, state, cm.slots))


def test_block_reraises_undefined_application(nat_sig):
    nat_sig.add("half", ("Nat",), "Nat", lambda n: n // 2 if n % 2 == 0 else None)
    slots = [Slot("c", "Nat")]
    phi = app(Const("half"), Var("c"))
    cc = build_branch_combinator([UpdateBranch(TRUE_TERM, (phi,))], slots, nat_sig)
    t = App(cc.theta, code_term(Value("Nat", 3)))
    with pytest.raises(UndefinedApplication) as info:
        measure_block(t, cc.theta, slots, cc.sig)
    assert (info.value.symbol, info.value.args) == ("half", (3,))


def test_certificate_has_one_path_per_branch(nat_sig):
    """Certifying the counter and the exit combinator takes one abstract
    path per branch, each the length of a block, and calls no function:
    a compile over functions that raise when called still certifies."""
    cc, _ = _counter(nat_sig)
    assert (cc.certificate.paths, cc.certificate.steps) == (1, cc.K + cc.L)

    def boom(*args):
        raise AssertionError("certification called a semantic function")

    sig = FSignature()
    for name, f in nat_sig.functions.items():
        sig.add(name, f.arg_datatypes, f.result_datatype, boom)
    slots = [Slot("c", "Nat")]
    guard_run = app(Const("lt"), Var("c"), Code(Value("Nat", 3)))
    phi = app(Const("plus"), Var("c"), Code(Value("Nat", 1)))
    cc = build_branch_combinator(
        [UpdateBranch(guard_run, (phi,), label="run"),
         ExitBranch(TRUE_TERM, (Var("c"),), label="exit")], slots, sig)
    assert cc.certificate.paths == 2
    # the two paths share the block up to the fork on the guard
    assert cc.K + cc.L < cc.certificate.steps < 2 * (cc.K + cc.L)


def _bool_slot_theta(m: int):
    """A hand-built theta over one Bool slot b that keeps b as it is:
    ``b (w TRUE) (I^m (w FALSE))``, so a block from b = false costs m
    more beta steps than one from b = true."""
    w, b = Var("w"), Var("b")
    body = app(b, App(w, TRUE_TERM), identity_chain(m, App(w, FALSE_TERM)))
    return curry_fixpoint(lam(["w", "b"], body))


def test_bool_dependent_cost_fails_certification():
    """A theta whose beta cost depends on a Bool slot fails its
    certificate, naming the path that is off and the branch it selects.
    The old probe set, the states of a short run from b = false,
    measures only the false path and would have passed it."""
    theta = _bool_slot_theta(1)
    slots = [Slot("b", BOOL)]
    sig = FSignature()
    theta_free = scan(theta, sig)[1]
    # unfold, load w and b, select: 5 beta steps, plus 1 on the false path
    t = App(theta, FALSE_TERM)
    for _ in range(5):
        b = measure_block(t, theta, slots, sig, theta_free)
        assert (b.kind, b.values, b.beta_count, b.f_count) == (
            "state", (Value(BOOL, False),), 6, 0)
        t = b.term
    with pytest.raises(RuntimeError, match=r"\(K,L\)=\(6, 0\) but theta measures "
                                           r"\(5, 0\) on path \(true\)$"):
        certify(theta, slots, (6, 0), sig, theta_free)
    with pytest.raises(RuntimeError, match=r"takes more than 5 steps on path \(false\), "
                                           r"branch keep-false$"):
        certify(theta, slots, (5, 0), sig, theta_free, ["keep-true", "keep-false"])
    # with no cost difference both paths hold
    even = _bool_slot_theta(0)
    cert = certify(even, slots, (5, 0), sig, scan(even, sig)[1])
    assert (cert.paths, cert.steps) == (2, 3 + 2 * 2)


def test_selection_off_the_head_is_refused():
    """A fork on an unknown Boolean that is not the head of the term is
    refused: rebuilding only the root spine could not resolve it."""
    w, b = Var("w"), Var("b")
    head = Code(Value("Nat", 0))
    theta = curry_fixpoint(lam(["w", "b"], App(head, app(b, App(w, TRUE_TERM),
                                                         App(w, FALSE_TERM)))))
    sig = FSignature()
    with pytest.raises(RuntimeError, match=r"off the head of the term on path \(\)$"):
        certify(theta, [Slot("b", BOOL)], (5, 0), sig, scan(theta, sig)[1])


def _concrete(t, done: dict):
    """``t`` with the abstract Boolean read as true and every other
    abstract code as a code of its datatype.  The traced search knows no
    abstract code, and the engine fires a constant on abstract codes
    exactly where it would fire on those codes, so the traced search of
    the result finds the redexes that the engine would fire in ``t``.
    ``done`` memoizes by ``id`` the nodes already read."""
    hit = done.get(id(t))
    if hit is not None:
        return hit[1]
    tp = type(t)
    if t is UNKNOWN_BOOL:
        out = TRUE_TERM
    elif tp is Unknown:
        out = Code(Value(t.datatype, 0))
    elif tp is App:
        out = App(_concrete(t.fun, done), _concrete(t.arg, done))
    elif tp is Abs:
        out = Abs(t.binder, _concrete(t.body, done))
    else:
        out = t
    done[id(t)] = (t, out)
    return out


def _certificate_memos(monkeypatch) -> list:
    """Each certificate's memos and signature, as the engine loop sees
    them: one list of (memo, sig) per ``certify`` call."""
    memos: list = []
    advance, certify_ = combinators._advance, combinators.certify

    def spy_certify(*args, **kw):
        memos.append([])
        return certify_(*args, **kw)

    def spy_advance(t, sig, max_steps, boundary=None, f_free=None):
        memos[-1].append((f_free, sig))
        return advance(t, sig, max_steps, boundary, f_free)

    monkeypatch.setattr(combinators, "certify", spy_certify)
    monkeypatch.setattr(combinators, "_advance", spy_advance)
    return memos


def test_certificate_paths_share_one_memo_of_f_free_nodes(monkeypatch):
    """Every path of a certificate fills and reads one memo, a copy of
    theta's, and after certification each node in it holds no F-redex
    by the traced search (as ``engine.scan``'s memo is checked), on the
    bundled machines and on every machine of the seeded random stream
    that ``test_random_programs_lockstep`` runs, at its minima and
    padded.  The memo's nodes share their subtrees, so the traced
    search answers each distinct node once (``holds_f_redex``): a
    search per node walks every node's whole subtree again, and over
    the memos of the 120 compiles at the minima that took 887 s."""
    memos = _certificate_memos(monkeypatch)
    compiles = [compile_machine(bundled(name).machine(), bundled(name).state(inputs))
                for name, (inputs, _) in BUNDLED_COSTS.items()]
    state = counter_state(counter_vocabulary(), 0, 0)
    for machine in random_machines():
        least = compile_machine(machine, state)
        compiles += [least, compile_machine(machine, state, least.K + 1, least.L + 1)]
    assert len(memos) == len(compiles)
    for cm, calls in zip(compiles, memos):
        assert len(calls) >= cm.certificate.paths
        (memo, sig), = {id(m): (m, sig) for m, sig in calls}.values()
        assert memo is not cm.theta_free
        done: dict = {}
        seen: dict = {}
        assert not any(holds_f_redex(_concrete(node, done), sig, seen) for node in memo.values())


def test_certificate_walks_each_fork_from_its_shared_prefix(monkeypatch):
    """Certifying wide-6 (65 paths) enters the engine's F-redex walk
    about 11,000 times.  When each fork started from theta's memo alone
    and re-walked the whole forked term, it entered it 193,298 times."""
    calls = 0
    certifying = False
    certify_, contract = combinators.certify, engine._Reducer._contract

    def flagged(*args, **kw):
        nonlocal certifying
        certifying = True
        try:
            return certify_(*args, **kw)
        finally:
            certifying = False

    def walk(self, t):
        nonlocal calls
        calls += certifying
        return contract(self, t)

    monkeypatch.setattr(combinators, "certify", flagged)
    monkeypatch.setattr(engine._Reducer, "_contract", walk)
    cm = compile_machine(*wide(6))
    assert (cm.K, cm.L, cm.certificate.paths) == (131, 2998, 65)
    assert 0 < calls < 20_000
