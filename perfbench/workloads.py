"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` from the seed, then runs a
*pass* over its cases: an optional timed ``prelude`` and one timed
``run_case`` per case.  ``check`` runs untimed after each case; it
returns the errors found against the independent references, the
case's deterministic counters, and the ASM steps the case simulated.
Checks that call into the package run on a case's first execution
only, so a traced pass that follows an untraced one records no spans
outside the cases.

Functions of the package are always looked up through their module at
call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import random
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
MACHINES = BENCH.parent / "machines"


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _lockstep_errors(report, K: int, L: int, want_rounds: int, want_outcome: str):
    errors = []
    if not report.passed:
        errors.append(f"lockstep verdict {report.verdict}")
    if any((r.beta_count, r.f_count) != (K, L) for r in report.rounds):
        errors.append(f"a round missed the exact budget ({K}, {L})")
    if len(report.rounds) != want_rounds:
        errors.append(f"{len(report.rounds)} rounds, expected {want_rounds}")
    if report.term_outcome != want_outcome:
        errors.append(f"term outcome {report.term_outcome}, expected {want_outcome}")
    return errors


class Workload:
    """Defaults: no prelude, no compiles.  The runner sets ``clock`` to the
    clock it times the pass with."""

    def __init__(self):
        self.compile_times: list[float] = []
        self.clock = perf_counter

    def prelude(self) -> None:
        pass

    def prelude_counters(self) -> dict:
        return {}


class LockstepEuclid(Workload):
    """Compile euclid.asm once per pass, then lockstep the full grid."""

    name = "lockstep-euclid"
    why = ("kernel and per-round decode do almost all the work: one compile, "
           "400 lockstep runs of a beta-heavy machine with value slots, (K,L)=(23,8)")
    sources = (MACHINES / "euclid.asm",)
    seeded_counters = False  # the seed only orders the fixed grid
    GRID = 20

    def setup(self, a, seed: int) -> None:
        self.a = a
        sm = a.sourcefmt.parse_source(_read(self.sources[0]))
        self.machine = sm.machine()
        self.base = sm.state({})
        grid = [(x, y) for x in range(1, self.GRID + 1) for y in range(1, self.GRID + 1)]
        random.Random(seed).shuffle(grid)
        self.cases = grid
        self.states = {c: sm.state({"a0": c[0], "b0": c[1]}) for c in grid}
        self.verified = set()

    def prelude(self):
        t0 = self.clock()
        self.cm = self.a.compiler.compile_machine(self.machine, self.base)
        self.compile_times.append(self.clock() - t0)

    def prelude_counters(self) -> dict:
        return {"K": self.cm.K, "L": self.cm.L,
                "theta_nodes": reference.term_nodes(self.cm.theta)}

    def run_case(self, case):
        return self.a.cosim.lockstep(self.machine, self.cm, self.states[case])

    def check(self, case, report):
        g, steps = reference.euclid_expected(*case)
        errors = _lockstep_errors(report, self.cm.K, self.cm.L, steps + 1, "success")
        if case not in self.verified:
            self.verified.add(case)
            run = self.a.asm.run(self.machine, self.states[case], 10_000)
            if run.outcome.outputs != {"a": g}:
                errors.append(f"machine output {run.outcome.outputs}, gcd is {g}")
        counters = {"rounds": len(report.rounds),
                    "beta_steps": sum(r.beta_count for r in report.rounds),
                    "f_steps": sum(r.f_count for r in report.rounds)}
        return errors, counters, len(report.rounds)


class VerifyDoubling(Workload):
    """Recompile doubling.asm for every stop, as ``asmlc verify`` does for
    machines whose body mentions an input, and lockstep each."""

    name = "verify-doubling"
    why = ("certification dominates: 8 compiles of an F-heavy machine with "
           "difference-list slots, (K,L)=(27,65), one clause that never fires")
    sources = (MACHINES / "doubling.asm",)
    seeded_counters = False  # the seed only orders the stops
    STOPS = range(1, 9)

    def setup(self, a, seed: int) -> None:
        self.a = a
        sm = a.sourcefmt.parse_source(_read(self.sources[0]))
        self.machine = sm.machine()
        stops = list(self.STOPS)
        random.Random(seed).shuffle(stops)
        self.cases = stops
        self.states = {s: sm.state({"stop": s}) for s in stops}
        self.verified = set()

    def run_case(self, stop):
        t0 = self.clock()
        cm = self.a.compiler.compile_machine(self.machine, self.states[stop])
        self.compile_times.append(self.clock() - t0)
        return cm, self.a.cosim.lockstep(self.machine, cm, self.states[stop])

    def check(self, stop, result):
        cm, report = result
        outcome, table, steps = reference.doubling_expected(stop)
        errors = _lockstep_errors(report, cm.K, cm.L, steps + 1,
                                  "success" if outcome == "halt" else outcome)
        if stop not in self.verified:
            self.verified.add(stop)
            run = self.a.asm.run(self.machine, self.states[stop], 10_000)
            if run.kind != outcome:
                errors.append(f"machine outcome {run.kind}, expected {outcome}")
            elif outcome == "halt" and run.outcome.outputs != {"f": table}:
                errors.append(f"f table {run.outcome.outputs}, expected {table}")
        counters = {"K": cm.K, "L": cm.L,
                    "theta_nodes": reference.term_nodes(cm.theta),
                    "rounds": len(report.rounds),
                    "beta_steps": sum(r.beta_count for r in report.rounds),
                    "f_steps": sum(r.f_count for r in report.rounds)}
        return errors, counters, len(report.rounds)


class NormalizeRandom(Workload):
    """Seeded random two-counter programs, each normalized and run
    against its normal form on sampled states."""

    name = "normalize-random"
    why = ("interpreter and normalizer only, no compile or kernel: seeded "
           "random programs with 1 to hundreds of clauses, heavy tail kept")
    sources = (BENCH / "counters.asm",)
    seeded_counters = True
    # Shape of tests/test_acceptance.py::test_08's generator.  Depth 3
    # instead of 4, 2 states instead of 20 and 20 steps instead of 200
    # keep the largest possible program within the per-run time limit;
    # many programs per pass keep the mix of sizes close across seeds.
    PROGRAMS = 12000
    DEPTH = 3
    STATES = 2
    MAX_STEPS = 20

    def setup(self, a, seed: int) -> None:
        self.a = a
        sm = a.sourcefmt.parse_source(_read(self.sources[0]))
        machine = sm.machine()
        values = range(5)
        table = {(p, q): machine.initial_state(sm.state({"p0": p, "q0": q}))
                 for p in values for q in values}
        rng = random.Random(seed)
        self.programs = []
        for _ in range(self.PROGRAMS):
            pairs = [(rng.randrange(5), rng.randrange(5)) for _ in range(self.STATES)]
            self.programs.append((random_program(rng, self.DEPTH, a.asm), pairs,
                                  [table[pq] for pq in pairs]))
        self.cases = list(range(self.PROGRAMS))
        self.reference_steps = {}

    def run_case(self, i):
        prog, _, states = self.programs[i]
        norm = self.a.normalize
        gp = norm.normalize(prog)
        agreed = norm.check_equivalence(prog, norm.to_program(gp), states, self.MAX_STEPS)
        return gp, agreed

    def check(self, i, result):
        gp, agreed = result
        errors = [] if agreed else ["program and normal form disagree"]
        if i not in self.reference_steps:
            prog, pairs, _ = self.programs[i]
            nf = self.a.normalize.to_program(gp)
            steps = 0
            for p, q in pairs:
                want = reference.counter_run(prog, p, q, self.MAX_STEPS)
                got = reference.counter_run(nf, p, q, self.MAX_STEPS)
                if got != want:
                    errors.append(f"normal form runs {got[:2]}, program runs {want[:2]}")
                steps += want[1] + got[1]
            self.reference_steps[i] = steps
        counters = {"clauses": len(gp.clauses), "conditions": len(gp.conditions)}
        return errors, counters, self.reference_steps[i]


WORKLOADS = {w.name: w for w in (LockstepEuclid, VerifyDoubling, NormalizeRandom)}


# ---------------------------------------------------------------------------
# Random programs over perfbench/counters.asm

NAT_TERMS = ("zero", "1", "2", "p", "q")


def random_condition(rng: random.Random, depth: int, asm):
    if depth > 0 and rng.random() < 0.4:
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            return asm.TApp("not", (random_condition(rng, depth - 1, asm),))
        return asm.TApp(op, (random_condition(rng, depth - 1, asm),
                             random_condition(rng, depth - 1, asm)))
    op = rng.choice(["lt", "le", "eq_Nat"])
    return asm.TApp(op, (asm.TApp(rng.choice(NAT_TERMS)), asm.TApp(rng.choice(NAT_TERMS))))


def random_program(rng: random.Random, depth: int, asm):
    """A random program of conditional nesting depth at most ``depth``."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        kind = rng.randrange(5)
        if kind == 0:
            return asm.Skip()
        if kind == 1:
            return asm.HaltI()
        if kind == 2:
            return asm.FailI()
        return asm.Update(rng.choice(["p", "q"]), (), asm.TApp(rng.choice(NAT_TERMS)))
    if roll < 0.75:
        orelse = random_program(rng, depth - 1, asm) if rng.random() < 0.5 else asm.Skip()
        return asm.If(random_condition(rng, 1, asm), random_program(rng, depth - 1, asm), orelse)
    n = rng.randint(2, 3)
    return asm.Par(tuple(random_program(rng, depth - 1, asm) for _ in range(n)))
