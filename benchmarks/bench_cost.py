"""The per-step budget of the compiled bundled machines and counters.

Compiles every bundled machine at the inputs ``tests/conftest.py``
pins its costs at, and ``counter_family(n)`` for n in 1..5 (n cyclic
counters updated in parallel, from the same file).  For each it records
the minima K_min and L_min, the size of theta in nodes, the branch
count, the manifest's guard order and F-work per branch, and what
certifying (K, L) took in one compile: the engine steps of
certification, counted at ``combinators._advance`` (the engine loop
the certificate runs), the certificate's path count, the calls of the
engine's F-redex walk ``engine._Reducer._contract`` (recursive ones
included) made while ``combinators.certify`` runs, and
``theta_sha256``, the SHA-256 of the printed theta and template
(``syntax.print_term``), so that two checkouts that build the same
terms record the same digest.  The steps are the paper's work; the
walk's calls are what the engine spent on their F-phases.

The ``wide-7`` case is ``conftest.wide(7)``: a ``par`` of seven
independent guarded increments of one slot, whose normal form has 128
clauses, so its certificate has 129 paths that share long prefixes.

The ``random-1108`` record compiles, each at its minima, the 120
machines of the seeded stream ``conftest.random_machines`` that
``tests/test_cosim.py``'s ``test_random_programs_lockstep`` runs.  It
holds the largest K+L, with its (K, L) and program index, and the sums
over the 120 of K+L, L, theta's nodes,
certification's engine steps and its F-redex walk's calls: the
baseline for a theta whose cost follows the program rather than its
normal form.  Its ``theta_sha256``
covers the printed theta and template of all 120 compiles, in order.

Every figure is deterministic, so one run of a checkout is its record.

    PYTHONPATH=src python3 benchmarks/bench_cost.py [--label NAME]
        [--json BENCH_cost.json]

With ``--json`` the record is merged into that file under ``--label``,
so runs of two checkouts (point PYTHONPATH at each one's ``src``) sit
side by side.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import (
    BUNDLED_COSTS,
    RANDOM_PROGRAMS,
    RANDOM_SEED,
    bundled,
    counter_family,
    counter_state,
    counter_vocabulary,
    random_machines,
    wide,
)

from asmlc import combinators, engine
from asmlc.compiler import compile_machine
from asmlc.syntax import print_term
from asmlc.terms import term_size

COUNTERS = range(1, 6)


def _cases() -> dict:
    """name -> (machine, state) to compile."""
    out = {}
    for name, (inputs, _) in BUNDLED_COSTS.items():
        sm = bundled(name)
        out[name] = (sm.machine(), sm.state(inputs))
    for n in COUNTERS:
        out[f"counter-{n}"] = counter_family(n)
    out["wide-7"] = wide(7)
    return out


def _counted_compile(machine, state):
    """Compile, and count the engine steps of certification and the
    calls of the F-redex walk while it runs."""
    steps = []
    contracts = 0
    certifying = False
    advance, certify = combinators._advance, combinators.certify
    contract = engine._Reducer._contract

    def counted(*args, **kw):
        out = advance(*args, **kw)
        steps.append(out[1] + out[2])
        return out

    def certify_flagged(*args, **kw):
        nonlocal certifying
        certifying = True
        try:
            return certify(*args, **kw)
        finally:
            certifying = False

    def walk(self, t):
        nonlocal contracts
        contracts += certifying
        return contract(self, t)

    combinators._advance, combinators.certify = counted, certify_flagged
    engine._Reducer._contract = walk
    try:
        cm = compile_machine(machine, state)
    finally:
        combinators._advance, combinators.certify = advance, certify
        engine._Reducer._contract = contract
    return cm, sum(steps), contracts


def _hash_terms(digest, cm) -> None:
    """Feed the printed theta and template of ``cm`` to ``digest``."""
    for t in (cm.theta, cm.template):
        digest.update(print_term(t).encode() + b"\n")


def _random_record() -> dict:
    """The ``random-1108`` record (module docstring)."""
    state = counter_state(counter_vocabulary(), 0, 0)
    sums = dict.fromkeys(("K_plus_L", "L", "theta_nodes", "certify_steps",
                          "certify_contract_calls"), 0)
    largest = None
    digest = hashlib.sha256()
    for i, machine in enumerate(random_machines()):
        cm, steps, contracts = _counted_compile(machine, state)
        _hash_terms(digest, cm)
        for key, value in (("K_plus_L", cm.K + cm.L), ("L", cm.L),
                           ("theta_nodes", term_size(cm.theta)), ("certify_steps", steps),
                           ("certify_contract_calls", contracts)):
            sums[key] += value
        if largest is None or cm.K + cm.L > largest["K_plus_L"]:
            largest = {"index": i, "K": cm.K, "L": cm.L, "K_plus_L": cm.K + cm.L}
    return {"seed": RANDOM_SEED, "programs": RANDOM_PROGRAMS, "largest": largest, "sum": sums,
            "theta_sha256": digest.hexdigest()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="current", help="record name in --json")
    ap.add_argument("--json", type=Path, help="merge the record into this file")
    args = ap.parse_args()

    record = {}
    for name, (machine, state) in _cases().items():
        cm, steps, contracts = _counted_compile(machine, state)
        m = cm.manifest()
        digest = hashlib.sha256()
        _hash_terms(digest, cm)
        row = {"K_min": m["K_min"], "L_min": m["L_min"],
               "theta_nodes": term_size(cm.theta), "branches": m["branches"],
               "guard_order": m["guard_order"],
               "F_branches": m["cost"]["F_branches"],
               "certify_steps": steps, "certify_paths": cm.certificate.paths,
               "certify_contract_calls": contracts,
               "theta_sha256": digest.hexdigest()}
        record[name] = row
        print(f"{name:>10}: (K_min, L_min) = ({row['K_min']}, {row['L_min']}), "
              f"theta {row['theta_nodes']} nodes, {row['branches']} branches "
              f"{row['guard_order']}, certified in {steps} engine steps, "
              f"{row['certify_paths']} paths, {contracts} F-walk calls")
    rec = record[f"random-{RANDOM_SEED}"] = _random_record()
    big, total = rec["largest"], rec["sum"]
    print(f"random-{RANDOM_SEED}: {RANDOM_PROGRAMS} programs, largest (K, L) = "
          f"({big['K']}, {big['L']}) at index {big['index']}; sums K+L {total['K_plus_L']}, "
          f"L {total['L']}, theta {total['theta_nodes']} nodes, "
          f"certified in {total['certify_steps']} engine steps, "
          f"{total['certify_contract_calls']} F-walk calls")
    if args.json:
        data = json.loads(args.json.read_text()) if args.json.exists() else {}
        data[args.label] = record
        args.json.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
