from itertools import product
from typing import Optional

from asmlc import records
from asmlc.asm import FailI, HaltI, If, Par, Skip, TApp, TypedTerm, Update, eval_ground
from asmlc.normalize import (
    Clause,
    GuardedProgram,
    Literal,
    check_equivalence,
    normalize,
    run_signature,
    to_program,
)

from asmlc.sourcefmt import parse_source

from conftest import bundled, counter_state, counter_vocabulary, random_program


def true_guard_count(s, gp: GuardedProgram) -> int:
    """How many clauses of ``gp`` hold in state ``s``."""
    return sum(all(eval_ground(s, c) == want for c, want in cl.literals)
               for cl in gp.clauses)


def guard_term(literals: tuple[Literal, ...]) -> Optional[TypedTerm]:
    """The guard as one Boolean term; None for the empty conjunction."""
    parts = [c if want else TApp("not", (c,)) for c, want in literals]
    if not parts:
        return None
    t = parts[0]
    for q in parts[1:]:
        t = TApp("and", (t, q))
    return t


def test_guards_are_full_conjunctions_and_exclusive():
    prog = If(TApp("lt", (TApp("p"), TApp("q"))),
              Update("p", (), TApp("q")),
              If(TApp("eq_Nat", (TApp("p"), TApp("q"))), HaltI()))
    gp = normalize(prog)
    m = len(gp.conditions)
    assert m == 2
    # every clause constrains every condition (full conjunction)
    for cl in gp.clauses:
        assert len(cl.literals) == m
    # pairwise exclusive: in any state at most one guard is true
    voc = counter_vocabulary()
    for p in range(4):
        for q in range(4):
            assert true_guard_count(counter_state(voc, p, q), gp) <= 1


def test_empty_clauses_dropped():
    gp = normalize(If(TApp("lt", (TApp("p"), TApp("q"))), Skip()))
    assert gp.clauses == ()


def test_fieldless_instructions_stay_apart():
    """normalize tells instructions apart by ==, and HaltI() and FailI()
    have no fields: both stay in the one clause."""
    gp = normalize(Par((HaltI(), FailI())))
    assert gp.conditions == ()
    assert [cl.instructions for cl in gp.clauses] == [(HaltI(), FailI())]


def test_normalized_program_equivalent_on_examples():
    voc = counter_vocabulary()
    states = [counter_state(voc, p, q) for p in range(4) for q in range(4)]
    progs = [
        If(TApp("lt", (TApp("p"), TApp("q"))),
           Par((Update("p", (), TApp("q")), Update("q", (), TApp("p"))))),
        Par((If(TApp("le", (TApp("p"), TApp("one"))), FailI()),
             If(TApp("not", (TApp("le", (TApp("p"), TApp("one"))),)),
                Update("p", (), TApp("zero"))))),
        If(TApp("eq_Nat", (TApp("p"), TApp("q"))), HaltI(),
           If(TApp("lt", (TApp("p"), TApp("q"))),
              Update("p", (), TApp("two")),
              Update("q", (), TApp("two")))),
    ]
    for prog in progs:
        gp = normalize(prog)
        assert check_equivalence(prog, to_program(gp), states)


def test_random_programs_equivalent(rng):
    # the acceptance run uses 100 programs; keep the unit test lighter
    voc = counter_vocabulary()
    states = [counter_state(voc, rng.randrange(5), rng.randrange(5))
              for _ in range(12)]
    for _ in range(30):
        prog = random_program(rng, 4)
        gp = normalize(prog)
        assert check_equivalence(prog, to_program(gp), states)


def test_run_signature_distinguishes():
    voc = counter_vocabulary()
    s = counter_state(voc, 1, 2)
    sig1 = run_signature(s, Update("p", (), TApp("q")), 10)
    sig2 = run_signature(s, Update("p", (), TApp("zero")), 10)
    assert sig1 != sig2


_TABLE_HEADER = """
sort Nat = 0..4
static succ : Nat -> Nat = builtin succ
static lt : Nat Nat -> Bool = builtin lt
dynamic c : -> Nat output
dynamic f : Nat -> Nat
init c = 0
init f(x) = x
program:
"""


def test_check_equivalence_sees_one_table_entry_at_a_later_step():
    """Two runs that differ only in f(1) of the fourth state: same
    kind, steps, reason and outputs, and all other states equal."""
    count = "if lt(c, 4) then c := succ(c) else halt"
    detour = """if lt(c, 4) then
  par {
    c := succ(c)
    if eq_Nat(c, 2) then f(1) := 3
    if eq_Nat(c, 3) then f(1) := 1
  }
else
  halt"""
    sm = parse_source(_TABLE_HEADER + detour)
    p, q = parse_source(_TABLE_HEADER + count).machine().program, sm.machine().program
    s = sm.machine().initial_state(sm.state())
    sig_p, sig_q = run_signature(s, p, 10), run_signature(s, q, 10)
    assert sig_p[:2] + sig_p[3:] == sig_q[:2] + sig_q[3:]
    differ = [k for k, (a, b) in enumerate(zip(sig_p[2], sig_q[2])) if a != b]
    assert differ == [3]
    assert sig_q[2][3]["f"] == {**sig_p[2][3]["f"], (1,): 3}
    assert not check_equivalence(p, q, [s], 10)
    assert check_equivalence(p, p, [s], 10) and check_equivalence(q, q, [s], 10)


def _digest(st):
    """The sorted snapshot of the dynamic tables that trajectories were
    once compared by; kept as the oracle of state equality."""
    return tuple((name, tuple(sorted(st.dynamics[name].items())))
                 for name in sorted(st.dynamics))


def test_run_signature_ignores_insertion_order():
    """States whose tables are equal compare equal, whatever order their
    names and entries were inserted in, as their sorted digests do."""
    sm = parse_source(_TABLE_HEADER + "if lt(c, 2) then c := succ(c) else halt")
    machine = sm.machine()
    s = machine.initial_state(sm.state())
    tables = s.dynamics
    backwards = s.with_dynamics({name: dict(reversed(tables[name].items()))
                                 for name in reversed(tables)})
    assert list(backwards.dynamics) != list(tables)
    assert list(backwards.dynamics["f"]) != list(tables["f"])
    assert _digest(backwards) == _digest(s)
    assert run_signature(backwards, machine.program, 5) == run_signature(s, machine.program, 5)
    # and states that differ in one entry differ, as their digests do
    changed = s.with_dynamics({**tables, "f": {**tables["f"], (4,): 0}})
    assert _digest(changed) != _digest(s)
    assert run_signature(changed, machine.program, 5) != run_signature(s, machine.program, 5)


def test_guard_term_shape():
    prog = If(TApp("lt", (TApp("p"), TApp("q"))), Update("p", (), TApp("q")))
    gp = normalize(prog)
    (clause,) = gp.clauses
    g = guard_term(clause.literals)
    # a Boolean term over and/not built from the conditions
    assert g.head in ("and", "not", "lt")


def test_normal_form_guards_share_prefixes(rng):
    progs = [bundled(name).machine().program for name in ("euclid", "doubling")]
    progs += [random_program(rng, 4) for _ in range(25)]  # test_08's shape
    shared = 0
    for prog in progs:
        gp = normalize(prog)
        nf = to_program(gp)
        assert len(nf.blocks) == len(gp.clauses)
        nodes = {}  # literal prefix, conditions by identity -> its node
        for cl, block in zip(gp.clauses, nf.blocks):
            if not cl.literals:
                assert block == Par(cl.instructions)
                continue
            assert block.then == Par(cl.instructions)
            assert block.cond == guard_term(cl.literals)
            g = block.cond
            for n in range(len(cl.literals), 0, -1):
                key = tuple((id(c), want) for c, want in cl.literals[:n])
                if key in nodes:
                    assert nodes[key] is g, (n, cl.literals)
                    shared += 1
                nodes[key] = g
                g = g.args[0] if n > 1 else None
    assert shared > 0


def _hashing_normalize(p):
    """The normalizer as it was before it indexed conditions: conditions
    as dict keys, paths as (condition, sign) pairs.  Kept as the oracle
    for clause order, instruction order and condition objects."""
    conds, placed = [], []

    def collect(q, path):
        if isinstance(q, (Update, HaltI, FailI)):
            placed.append((path, q))
        elif isinstance(q, If):
            if q.cond not in conds:
                conds.append(q.cond)
            collect(q.then, path + ((q.cond, True),))
            collect(q.orelse, path + ((q.cond, False),))
        elif isinstance(q, Par):
            for b in q.blocks:
                collect(b, path)

    collect(p, ())
    clauses = []
    for signs in product((True, False), repeat=len(conds)):
        env = dict(zip(conds, signs))
        instrs = []
        for path, ins in placed:
            if all(env[c] == want for c, want in path) and ins not in instrs:
                instrs.append(ins)
        if instrs:
            clauses.append(Clause(tuple(zip(conds, signs)), tuple(instrs)))
    return GuardedProgram(tuple(conds), tuple(clauses))


def test_normalize_matches_hashing_oracle(rng):
    for _ in range(60):
        prog = random_program(rng, 4)
        got, want = normalize(prog), _hashing_normalize(prog)
        assert got == want
        assert all(a is b for a, b in zip(got.conditions, want.conditions))
        for cg, cw in zip(got.clauses, want.clauses):
            assert all(a is b for (a, _), (b, _) in zip(cg.literals, cw.literals))
            assert all(a is b for a, b in zip(cg.instructions, cw.instructions))


def test_normalize_builds_no_repr(rng, monkeypatch):
    """normalize tells conditions apart without building a ``repr`` of
    any: programs with several distinct conditions normalize, while
    ``Fields.__repr__`` raises, to what the hashing oracle gives."""
    lt, eq = TApp("lt", (TApp("p"), TApp("q"))), TApp("eq_Nat", (TApp("p"), TApp("q")))
    progs = [Par((If(lt, Update("p", (), TApp("q")), If(eq, HaltI(), FailI())),
                  If(TApp("lt", (TApp("q"), TApp("p"))), Update("q", (), TApp("p"))),
                  If(eq, Update("q", (), TApp("q")))))]
    progs += [random_program(rng, 4) for _ in range(20)]
    want = [_hashing_normalize(p) for p in progs]

    def refuse(self):
        raise AssertionError(f"repr of {type(self).__name__}")

    with monkeypatch.context() as patch:
        patch.setattr(records.Fields, "__repr__", refuse)
        got = [normalize(p) for p in progs]
    assert got == want
    assert len(got[0].conditions) == 3
