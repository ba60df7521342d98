"""The per-step budget of the compiled bundled machines and counters.

Compiles every bundled machine at the inputs ``tests/conftest.py``
pins its costs at, and ``counter_family(n)`` for n in 1..5 (n cyclic
counters updated in parallel, from the same file).  For each it records
the minima K_min and L_min, the size of theta in nodes, the branch
count, the manifest's guard order and F-work per branch, and what
certifying (K, L) took in one compile: the engine steps of
certification, counted at ``combinators._advance`` (the loop that both
the abstract certificate and the older probe blocks run through), and
the certificate's path count (absent from a checkout without one).
Every figure is deterministic, so one run of a checkout is its record.

    PYTHONPATH=src python3 benchmarks/bench_cost.py [--label NAME]
        [--json BENCH_cost.json]

With ``--json`` the record is merged into that file under ``--label``,
so runs of two checkouts (point PYTHONPATH at each one's ``src``) sit
side by side.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import BUNDLED_COSTS, bundled, counter_family

from asmlc import combinators
from asmlc.compiler import compile_machine
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
    return out


def _counted_compile(machine, state):
    """Compile, and count the engine steps of certification."""
    steps = []
    advance = combinators._advance

    def counted(*args, **kw):
        out = advance(*args, **kw)
        steps.append(out[1] + out[2])
        return out

    combinators._advance = counted
    try:
        cm = compile_machine(machine, state)
    finally:
        combinators._advance = advance
    return cm, sum(steps)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="current", help="record name in --json")
    ap.add_argument("--json", type=Path, help="merge the record into this file")
    args = ap.parse_args()

    record = {}
    for name, (machine, state) in _cases().items():
        cm, steps = _counted_compile(machine, state)
        m = cm.manifest()
        row = {"K_min": m["K_min"], "L_min": m["L_min"],
               "theta_nodes": term_size(cm.theta), "branches": m["branches"],
               "guard_order": m["guard_order"],
               "F_branches": m["cost"]["F_branches"],
               "certify_steps": steps}
        cert = getattr(cm.combinator, "certificate", None)
        if cert is not None:
            row["certify_paths"] = cert.paths
        record[name] = row
        print(f"{name:>10}: (K_min, L_min) = ({row['K_min']}, {row['L_min']}), "
              f"theta {row['theta_nodes']} nodes, {row['branches']} branches "
              f"{row['guard_order']}, certified in {steps} engine steps"
              + (f", {cert.paths} paths" if cert is not None else ""))
    if args.json:
        data = json.loads(args.json.read_text()) if args.json.exists() else {}
        data[args.label] = record
        args.json.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
