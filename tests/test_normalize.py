from itertools import product
from pathlib import Path

from asmlc.asm import FailI, HaltI, If, Par, Skip, TApp, Update
from asmlc.normalize import (
    Clause,
    GuardedProgram,
    check_equivalence,
    guard_term,
    normalize,
    run_signature,
    to_program,
    true_guard_count,
)
from asmlc.sourcefmt import parse_source

from conftest import counter_state, counter_vocabulary, random_program


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


def test_guard_term_shape():
    prog = If(TApp("lt", (TApp("p"), TApp("q"))), Update("p", (), TApp("q")))
    gp = normalize(prog)
    (clause,) = gp.clauses
    g = guard_term(clause.literals)
    # a Boolean term over and/not built from the conditions
    assert g.head in ("and", "not", "lt")


MACHINES = Path(__file__).resolve().parent.parent / "machines"


def test_normal_form_guards_share_prefixes(rng):
    progs = [parse_source((MACHINES / name).read_text()).machine().program
             for name in ("euclid.asm", "doubling.asm")]
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
