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
The best of R timings gives the steps per second.

One more, untimed pass counts F-search visits: the nodes with ``const``
and not in the F-redex-free memo that the reducer's F-redex walk
``engine._Reducer._contract`` is called on, counted by wrapping it in
this process.  A call the memo or the ``const`` fact prunes costs no
visit, wherever the walk makes that check.  The count is deterministic,
so ``visits_per_step`` compares checkouts where timings are too noisy
to.

The kernel records above call ``advance_term`` without a round memo,
so every round is reduced.  The ``lockstep_grid`` record times what
``asmlc verify --grid N`` does on euclid: ``cosim.lockstep`` over every
input pair in 1..N under one compile, with its round memo.  Each timing
starts from a fresh compile, outside the timed region, so no timing
reads a memo an earlier one filled.  One more, untimed pass counts
engine runs, the calls of ``engine._advance`` (wrapped in this
process), against lockstep rounds.

The ``verify_doubling`` record runs ``asmlc verify machines/doubling.asm
--grid 8`` in this process (``cli.main``, output discarded): the theta
builds it makes, counted at the ``build_branch_combinator`` that
``asmlc.compiler`` binds, and its best-of-R time.

    PYTHONPATH=src python3 benchmarks/bench_engine.py [--grid N] [--repeat R]
        [--label NAME] [--json BENCH_engine.json]

With ``--json`` the record is merged into that file under ``--label``,
so runs of two checkouts (point PYTHONPATH at each one's ``src``) sit
side by side.  Step counts are deterministic and must agree between
checkouts that claim the same (K, L).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import time
from pathlib import Path

from asmlc import cli, compiler, engine
from asmlc.compiler import compile_machine
from asmlc.cosim import lockstep
from asmlc.engine import STATUS_RAN, advance_term
from asmlc.sourcefmt import parse_source
from asmlc.terms import term_size

MACHINES = Path(__file__).resolve().parent.parent / "machines"
DOUBLING_STOPS = range(1, 9)
# Passes over the doubling stops per timing: at (K, L) = (8, 15) one
# pass takes about 0.015 s (Python 3.11, 2 CPUs), so ten take about as
# long as one or two euclid passes.
DOUBLING_REPS = 10


def _load(name: str):
    return parse_source((MACHINES / f"{name}.asm").read_text(encoding="utf-8"))


def _cases(grid: int) -> dict:
    """machine name -> list of (compiled machine, initial term)."""
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
    steps = rounds = 0
    for cm, t in cases:
        budget = cm.K + cm.L
        status = STATUS_RAN
        while status == STATUS_RAN:
            t, beta, f, status = advance_term(t, cm.sig, budget, cm.theta_free)
            steps += beta + f
            rounds += 1
    return steps, rounds


def count_visits(cases) -> int:
    """F-search visits over every trajectory, counted in one pass with
    the reducer's search walk wrapped (module docstring)."""
    reducer = engine._Reducer
    contract = reducer._contract
    visits = 0

    def walk(self, t):
        nonlocal visits
        if t.const and id(t) not in self.f_free:
            visits += 1
        return contract(self, t)

    reducer._contract = walk
    try:
        _run(cases)
    finally:
        reducer._contract = contract
    return visits


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
    visits = count_visits(cases)
    return {"trajectories": len(cases), "rounds": rounds, "steps": steps,
            "best_s": round(best, 4), "steps_per_s": round(steps / best),
            "f_search_visits": visits, "visits_per_step": round(visits / steps, 2)}


def lockstep_grid(grid: int, repeat: int) -> dict:
    """euclid's grid through lockstep under one compile (module
    docstring)."""
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
    runs = 0
    advance = engine._advance

    def counted(*args, **kwargs):
        nonlocal runs
        runs += 1
        return advance(*args, **kwargs)

    cm = compile_machine(machine, base)
    engine._advance = counted
    try:
        one_pass(cm)
    finally:
        engine._advance = advance
    return {"cases": len(states), "rounds": rounds, "engine_runs": runs,
            "best_s": round(best, 4), "rounds_per_s": round(rounds / best)}


def verify_doubling(repeat: int) -> dict:
    """``asmlc verify`` on doubling's grid 8 (module docstring)."""
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
        verify()
    finally:
        compiler.build_branch_combinator = build
    best = min(verify() for _ in range(repeat))
    return {"theta_builds": builds, "best_s": round(best, 4)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=12,
                    help="run euclid on every input pair in 1..N (default 12)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions, best of R (default 5)")
    ap.add_argument("--label", default="current", help="record name in --json")
    ap.add_argument("--json", type=Path, help="merge the record into this file")
    args = ap.parse_args()

    record = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "repeat": args.repeat,
              "euclid_grid": args.grid,
              "doubling_stops": [DOUBLING_STOPS[0], DOUBLING_STOPS[-1]],
              "doubling_reps": DOUBLING_REPS,
              "machines": {}}
    for name, cases in _cases(args.grid).items():
        cm = cases[0][0]
        row = {"K": cm.K, "L": cm.L, "theta_nodes": term_size(cm.theta),
               **bench(cases, args.repeat)}
        record["machines"][name] = row
        print(f"{name:>9}: (K, L) = ({row['K']}, {row['L']}), {row['trajectories']} runs, "
              f"{row['steps']} steps in {row['best_s']:.3f}s "
              f"({row['steps_per_s']:,} steps/s, best of {args.repeat}), "
              f"{row['visits_per_step']} F-search visits per step")
    row = record["lockstep_grid"] = lockstep_grid(args.grid, args.repeat)
    print(f"lockstep grid {args.grid}: {row['cases']} runs, {row['rounds']} rounds, "
          f"{row['engine_runs']} engine runs in {row['best_s']:.3f}s "
          f"({row['rounds_per_s']:,} rounds/s, best of {args.repeat})")
    row = record["verify_doubling"] = verify_doubling(args.repeat)
    print(f"verify doubling --grid 8: {row['theta_builds']} theta builds, "
          f"{row['best_s']:.4f}s (best of {args.repeat})")
    if args.json:
        data = json.loads(args.json.read_text()) if args.json.exists() else {}
        data[args.label] = record
        args.json.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
