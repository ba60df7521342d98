"""Throughput of the reduction engine on the bundled machines.

Compiles ``machines/euclid.asm`` and ``machines/doubling.asm`` through
``sourcefmt``, then drives each compiled term through whole trajectories
with ``engine.advance_term(t, cm.sig, K + L, cm.theta_free)``, one call
per machine step, as lockstep does: every round starts from the
signature and theta's F-free nodes that the compiled machine keeps.
euclid runs every input pair in 1..N under one compile.  doubling runs
every stop in 1..8 under one compile too: its program reads ``stop``,
which each case binds in theta (``CompiledMachine.with_inputs``).  One
doubling pass is far shorter than one euclid pass, so a timing runs the
8 doubling trajectories ``DOUBLING_REPS`` times.  Compiling, binding,
building the initial terms and decoding stay outside the timed region.
A timing is the best of R passes in one process.

One more, untimed pass counts two things, both deterministic, so they
compare checkouts where timings are too noisy to:

- F-search visits: the nodes with ``const`` and not in the F-redex-free
  memo that the reducer's F-redex walk ``engine._Reducer._contract`` is
  called on, counted by wrapping it in this process.  A call the memo or
  the ``const`` fact prunes costs no visit, wherever the walk makes that
  check;
- nodes built: the ``App`` and ``Abs`` nodes constructed, counted by
  wrapping both classes' ``__init__`` in this process.  Every node the
  engine builds, by substitution, by an F-phase's rebuilt paths or by a
  beta step's, is one of these.

The kernel records above call ``advance_term`` without a round memo,
so every round is reduced.  The ``lockstep_grid`` record times what
``asmlc verify --grid N`` does on euclid: ``cosim.lockstep`` over every
input pair in 1..N under one compile, with its round memo.  Each timing
starts from a fresh compile, outside the timed region, so no timing
reads a memo an earlier one filled.  One more, untimed pass counts
engine runs, the calls of ``engine._advance``, and decodes, the calls
of ``decode_result`` as ``cosim`` binds it (both wrapped in this
process), against lockstep rounds.  Each distinct round is reduced and
decoded once, so both equal the number of distinct rounds.

The ``verify_doubling`` record runs ``asmlc verify machines/doubling.asm
--grid 8`` in this process (``cli.main``, output discarded): the theta
builds it makes, counted at the ``build_branch_combinator`` that
``asmlc.compiler`` binds, and its best-of-R time.  The
``certify_wide7`` record times a compile of ``conftest.wide(7)``, whose
certificate has 129 paths, best of R, each from the parsed machine.

Every record also counts, in its untimed pass, the substitutions made:
the calls of ``engine._subst`` from outside it, as ``engine`` and
``combinators`` bind it (a beta step or head run, an input binding),
and the share of them whose replacements are all closed, so that
substitution needs no capture set (``asmlc.engine``'s docstring,
"Substitution").

    python3 benchmarks/bench_engine.py [--parent-src PATH] [--grid N]
        [--repeat R] [--json BENCH_engine.json]

All of the above runs in one fresh process that imports asmlc from
one checkout's ``src`` (``checkouts.py``), ``ROUNDS`` processes in all.
With ``--parent-src`` the processes alternate between this checkout and
the parent's, ``ROUNDS`` of each, in an order that flips every round,
so drift in the machine's load falls on both sides alike.  The record
keeps, per side, the median and quartiles over the rounds of every
timing and of the rate it gives, and the counters, which must repeat
exactly between rounds.  Each kernel record also keeps ``theta_sha256``,
the SHA-256 of the printed theta (``syntax.print_term``).  Between the
sides, a machine's round count must agree.  Where its (K, L) differs
the run prints both budgets; where (K, L) and theta agree, its steps,
nodes built, F-search visits and substitutions must agree too.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import time
from pathlib import Path

import checkouts

sys.path.insert(0, str(checkouts.ROOT / "tests"))

MACHINES = checkouts.ROOT / "machines"
DOUBLING_STOPS = range(1, 9)
# Passes over the doubling stops per timing: at (K, L) = (8, 11) one
# pass takes about 0.003 s (Python 3.11, 2 CPUs), so ten take about as
# long as one euclid pass.
DOUBLING_REPS = 10
ROUNDS = 11  # processes of each side
# Deterministic counters of a kernel record that equal budgets and
# thetas must repeat on both sides.
WORK = ("steps", "nodes_built", "f_search_visits", "substitutions")


def _load(name: str):
    from asmlc.sourcefmt import parse_source
    return parse_source((MACHINES / f"{name}.asm").read_text(encoding="utf-8"))


def _cases(grid: int) -> dict:
    """machine name -> list of (compiled machine, initial term)."""
    from asmlc.compiler import compile_machine
    euclid = _load("euclid")
    cm = compile_machine(euclid.machine(), euclid.state({"a0": 1, "b0": 1}))
    out = {"euclid": [(cm, cm.initial_term(euclid.state({"a0": a, "b0": b})))
                      for a in range(1, grid + 1) for b in range(1, grid + 1)]}
    doubling = _load("doubling")
    machine = doubling.machine()
    cm = compile_machine(machine, doubling.state({}))
    once = []
    for stop in DOUBLING_STOPS:
        state = doubling.state({"stop": stop})
        inst = cm.with_inputs(state)
        once.append((inst, inst.initial_term(state)))
    out["doubling"] = once * DOUBLING_REPS
    return out


def _run(cases) -> tuple[int, int]:
    """(engine steps, machine steps) over every trajectory."""
    from asmlc.engine import STATUS_RAN, advance_term
    steps = rounds = 0
    for cm, t in cases:
        budget = cm.K + cm.L
        status = STATUS_RAN
        while status == STATUS_RAN:
            t, beta, f, status = advance_term(t, cm.sig, budget, cm.theta_free)
            steps += beta + f
            rounds += 1
    return steps, rounds


@contextlib.contextmanager
def counting_substitutions():
    """Yield a dict that counts, while the block runs, the calls of
    ``engine._subst`` from outside it and the share of them with closed
    replacements (module docstring)."""
    from asmlc import combinators, engine
    subst = engine._subst
    counts = {"substitutions": 0, "closed": 0}
    depth = 0

    def counted(t, env):
        nonlocal depth
        if not depth:
            counts["substitutions"] += 1
            counts["closed"] += not any(r.fv for r in env.values())
        depth += 1
        try:
            return subst(t, env)
        finally:
            depth -= 1

    engine._subst = combinators._subst = counted
    try:
        yield counts
    finally:
        engine._subst = combinators._subst = subst
    closed = counts.pop("closed")
    counts["closed_share"] = round(closed / counts["substitutions"], 4)


def count_work(cases) -> dict:
    """F-search visits, nodes built and substitutions over every
    trajectory, counted in one pass with the reducer's search walk, the
    node constructors and the substitution wrapped (module docstring)."""
    from asmlc import engine
    from asmlc.terms import Abs, App
    reducer = engine._Reducer
    contract = reducer._contract
    inits = {cls: cls.__init__ for cls in (App, Abs)}
    visits = built = 0

    def walk(self, t):
        nonlocal visits
        if t.const and id(t) not in self.f_free:
            visits += 1
        return contract(self, t)

    def counted(init):
        def build(self, *args):
            nonlocal built
            built += 1
            init(self, *args)
        return build

    reducer._contract = walk
    for cls, init in inits.items():
        cls.__init__ = counted(init)
    try:
        with counting_substitutions() as substitutions:
            _run(cases)
    finally:
        reducer._contract = contract
        for cls, init in inits.items():
            cls.__init__ = init
    return {"f_search_visits": visits, "nodes_built": built, **substitutions}


def bench(cases, repeat: int) -> dict:
    best = float("inf")
    counts = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        got = _run(cases)
        best = min(best, time.perf_counter() - t0)
        if counts is not None and got != counts:
            raise RuntimeError(f"step counts drifted from {counts} to {got}")
        counts = got
    steps, rounds = counts
    work = count_work(cases)
    return {"trajectories": len(cases), "rounds": rounds, "steps": steps, "best_s": best,
            **work, "visits_per_step": round(work["f_search_visits"] / steps, 2),
            "nodes_built_per_step": round(work["nodes_built"] / steps, 2)}


def lockstep_grid(grid: int, repeat: int) -> dict:
    """euclid's grid through lockstep under one compile (module
    docstring)."""
    from asmlc import cosim, engine
    from asmlc.compiler import compile_machine
    from asmlc.cosim import lockstep
    euclid = _load("euclid")
    machine = euclid.machine()
    base = euclid.state({"a0": 1, "b0": 1})
    states = [euclid.state({"a0": a, "b0": b})
              for a in range(1, grid + 1) for b in range(1, grid + 1)]

    def one_pass(cm) -> int:
        rounds = 0
        for s in states:
            rep = lockstep(machine, cm, s)
            if not rep.passed:
                raise RuntimeError(f"lockstep {rep.verdict} from {s.dynamics}")
            rounds += len(rep.rounds)
        return rounds

    best = float("inf")
    for _ in range(repeat):
        cm = compile_machine(machine, base)
        t0 = time.perf_counter()
        rounds = one_pass(cm)
        best = min(best, time.perf_counter() - t0)
    calls = {"engine_runs": 0, "decode_calls": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    cm = compile_machine(machine, base)
    advance, decode = engine._advance, cosim.decode_result
    engine._advance = counted("engine_runs", advance)
    cosim.decode_result = counted("decode_calls", decode)
    try:
        with counting_substitutions() as substitutions:
            one_pass(cm)
    finally:
        engine._advance, cosim.decode_result = advance, decode
    return {"cases": len(states), "rounds": rounds, **calls, **substitutions, "best_s": best}


def verify_doubling(repeat: int) -> dict:
    """``asmlc verify`` on doubling's grid 8 (module docstring)."""
    from asmlc import cli, compiler
    argv = ["verify", str(MACHINES / "doubling.asm"), "--grid", "8"]

    def verify() -> float:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"verify exited with {code}")
        return time.perf_counter() - t0

    builds = 0
    build = compiler.build_branch_combinator

    def counted(*args, **kwargs):
        nonlocal builds
        builds += 1
        return build(*args, **kwargs)

    compiler.build_branch_combinator = counted
    try:
        with counting_substitutions() as substitutions:
            verify()
    finally:
        compiler.build_branch_combinator = build
    best = min(verify() for _ in range(repeat))
    return {"theta_builds": builds, **substitutions, "best_s": best}


def certify_wide7(repeat: int) -> dict:
    """A compile of ``conftest.wide(7)`` (module docstring)."""
    from asmlc.compiler import compile_machine
    from conftest import wide
    machine, state = wide(7)

    def compile_once() -> float:
        t0 = time.perf_counter()
        compile_machine(machine, state)
        return time.perf_counter() - t0

    with counting_substitutions() as substitutions:
        cm = compile_machine(machine, state)
    best = min(compile_once() for _ in range(repeat))
    return {"K": cm.K, "L": cm.L, "certify_paths": cm.certificate.paths,
            "certify_steps": cm.certificate.steps, **substitutions, "best_s": best}


def measure(grid: int, repeat: int) -> dict:
    """Every record of one side, measured in this process."""
    import asmlc
    from asmlc.syntax import print_term
    from asmlc.terms import term_size
    out = {"package": asmlc.__file__, "machines": {}}
    for name, cases in _cases(grid).items():
        cm = cases[0][0]
        digest = hashlib.sha256(print_term(cm.theta).encode()).hexdigest()
        out["machines"][name] = {"K": cm.K, "L": cm.L, "theta_nodes": term_size(cm.theta),
                                 "theta_sha256": digest, **bench(cases, repeat)}
    out["lockstep_grid"] = lockstep_grid(grid, repeat)
    out["verify_doubling"] = verify_doubling(repeat)
    out["certify_wide7"] = certify_wide7(repeat)
    return out


def summarize(rows: list[dict]) -> dict:
    """One side's record from its rounds: every ``best_s`` becomes the
    median and quartiles over the rounds, with the rate they give, and
    every other figure, a counter, must repeat exactly."""
    first = rows[0]
    out = {}
    for key, value in first.items():
        if isinstance(value, dict):
            out[key] = summarize([r[key] for r in rows])
        elif key == "best_s":
            times = [r[key] for r in rows]
            out[key] = checkouts.quartiles(times)
            for work in ("steps", "rounds"):
                if work in first:
                    out[f"{work}_per_s"] = checkouts.quartiles(
                        [first[work] / t for t in times], 0)
                    break
        elif key != "package":
            if any(r[key] != value for r in rows):
                raise RuntimeError(f"{key} differs between rounds: {[r[key] for r in rows]}")
            out[key] = value
    return out


def compare_work(parent: dict, change: dict) -> None:
    """Exit unless every kernel record's work agrees between the sides
    as far as its budget and theta do (module docstring)."""
    for name, c in change.items():
        p = parent[name]
        if p["rounds"] != c["rounds"]:
            sys.exit(f"{name}: {p['rounds']} rounds at the parent, {c['rounds']} in the change")
        if (p["K"], p["L"]) != (c["K"], c["L"]):
            print(f"{name}: (K, L) = ({p['K']}, {p['L']}) at the parent, ({c['K']}, {c['L']}) "
                  f"in the change, over {c['rounds']} rounds on both sides")
        elif p["theta_sha256"] == c["theta_sha256"]:
            differ = {key: (p[key], c[key]) for key in WORK if p[key] != c[key]}
            if differ:
                sys.exit(f"{name}: same (K, L) and theta, but (parent, change) {differ}")


def _substitutions(row: dict) -> str:
    return f"{row['substitutions']} substitutions ({row['closed_share']:.1%} closed)"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    checkouts.add_parent_option(ap)
    ap.add_argument("--grid", type=int, default=12,
                    help="run euclid on every input pair in 1..N (default 12)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timings in each process, best of R (default 5)")
    ap.add_argument("--json", type=Path, help="write the record to this file")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(args.grid, args.repeat)))
        return

    sides = checkouts.sides(args.parent_src)
    found: dict[str, list[dict]] = {label: [] for label in sides}
    argv = [__file__, "--child", "--grid", str(args.grid), "--repeat", str(args.repeat)]
    for label, src in checkouts.alternate(sides, ROUNDS):
        proc = checkouts.run_python(src, argv, capture_output=True, text=True)
        row = json.loads(proc.stdout.splitlines()[-1])
        if Path(row["package"]).resolve().parent.parent != src:
            sys.exit(f"{label}: asmlc was imported from {row['package']}, not {src}")
        found[label].append(row)
        print(f"{label:>7}: euclid {row['machines']['euclid']['best_s']:.4f} s, "
              f"doubling {row['machines']['doubling']['best_s']:.4f} s, "
              f"lockstep grid {row['lockstep_grid']['best_s']:.4f} s, "
              f"verify doubling {row['verify_doubling']['best_s']:.4f} s, "
              f"certify wide-7 {row['certify_wide7']['best_s']:.4f} s", flush=True)

    record = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "rounds": ROUNDS,
              "repeat": args.repeat, "euclid_grid": args.grid,
              "doubling_stops": [DOUBLING_STOPS[0], DOUBLING_STOPS[-1]],
              "doubling_reps": DOUBLING_REPS,
              "sides": {label: summarize(rows) for label, rows in found.items()}}
    if "parent" in record["sides"]:
        compare_work(record["sides"]["parent"]["machines"],
                     record["sides"]["change"]["machines"])
    for label, side in record["sides"].items():
        for name, row in side["machines"].items():
            rate = row["steps_per_s"]
            print(f"{label:>7} {name:>9}: (K, L) = ({row['K']}, {row['L']}), "
                  f"{row['trajectories']} runs, {row['steps']} steps, median "
                  f"{rate['median']:,.0f} steps/s (quartiles {rate['q1']:,.0f}-"
                  f"{rate['q3']:,.0f}); per step {row['visits_per_step']} F-search "
                  f"visits, {row['nodes_built_per_step']} nodes built; "
                  f"{_substitutions(row)}")
        row = side["lockstep_grid"]
        print(f"{label:>7} lockstep grid {args.grid}: {row['cases']} runs, "
              f"{row['rounds']} rounds, {row['engine_runs']} engine runs, "
              f"{row['decode_calls']} decodes, {_substitutions(row)}, median "
              f"{row['best_s']['median']:.4f} s")
        row = side["verify_doubling"]
        print(f"{label:>7} verify doubling --grid 8: {row['theta_builds']} theta builds, "
              f"{_substitutions(row)}, median {row['best_s']['median']:.4f} s")
        row = side["certify_wide7"]
        print(f"{label:>7} compile wide-7: (K, L) = ({row['K']}, {row['L']}), "
              f"{row['certify_paths']} paths, {row['certify_steps']} certificate steps, "
              f"{_substitutions(row)}, median {row['best_s']['median']:.4f} s")
    if "parent" in record["sides"]:
        change, parent = record["sides"]["change"], record["sides"]["parent"]
        ratios = {}
        for name, c in change["machines"].items():
            p = parent["machines"][name]
            # a machine whose (K, L) moved takes other steps, so its
            # steps per second compare less than its times
            ratios[f"{name}_steps_per_s"] = c["steps_per_s"]["median"] / p["steps_per_s"]["median"]
            ratios[f"{name}_s"] = c["best_s"]["median"] / p["best_s"]["median"]
        for key in ("lockstep_grid", "verify_doubling", "certify_wide7"):
            ratios[f"{key}_s"] = change[key]["best_s"]["median"] / parent[key]["best_s"]["median"]
        record["change_over_parent"] = {key: round(r, 3) for key, r in ratios.items()}
        print("change / parent medians: " + ", ".join(
            f"{key} {r:.3f}" for key, r in record["change_over_parent"].items()))
    if args.json:
        args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
