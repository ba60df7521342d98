"""Rate of the ASM interpreter on the fixed corpus of the Tier-1 test
``tests/test_acceptance.py::test_08_normalizer_run_equivalence``.

The corpus is drawn through ``tests/conftest.py`` exactly as that test
draws it: seed 1108, 20 two-counter states, then 100 random programs of
conditional depth at most 4.  A timing runs the test's loop once in a
fresh process: normalize each program and check it against its guarded
normal form on the 20 states, 200 steps at most (``normalize.normalize``,
``normalize.to_program``, ``normalize.check_equivalence``).  An untimed
pass then counts what the loop interprets, both deterministic: the runs
(a program or its normal form from one state, 4,000 in all) and their
interpreter steps.  The rate is those steps over the loop's wall time.

With ``--parent-src`` (``checkouts.py``) the timings alternate between
this checkout and the parent's, ``ROUNDS`` of each, and the record
keeps both sides' medians and quartiles.  Both sides draw the corpus
through this checkout's ``tests/``, and the benchmark fails unless they
count the same runs and steps.

    python3 benchmarks/bench_interp.py [--parent-src PATH] [--json BENCH_interp.json]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

import checkouts

TESTS = checkouts.ROOT / "tests"
SEED = 1108
STATES = 20
PROGRAMS = 100
DEPTH = 4
MAX_STEPS = 200
ROUNDS = 7  # timings of each side


def measure() -> dict:
    """Time test_08's loop once in this process, then count its runs and
    steps in an untimed pass."""
    sys.path.insert(0, str(TESTS))
    import asmlc
    from asmlc.asm import run_from_state
    from asmlc.normalize import check_equivalence, normalize, to_program
    from conftest import counter_state, counter_vocabulary, random_program

    rng = random.Random(SEED)
    voc = counter_vocabulary()
    states = [counter_state(voc, rng.randrange(5), rng.randrange(5))
              for _ in range(STATES)]
    programs = [random_program(rng, DEPTH) for _ in range(PROGRAMS)]
    t0 = time.perf_counter()
    agreed = sum(check_equivalence(p, to_program(normalize(p)), states, MAX_STEPS)
                 for p in programs)
    loop_s = time.perf_counter() - t0
    runs = steps = 0
    for p in programs:
        for form in (p, to_program(normalize(p))):
            for s in states:
                runs += 1
                steps += run_from_state(s, form, MAX_STEPS).steps
    return {"loop_s": loop_s, "agreed": agreed, "runs": runs, "steps": steps,
            "package": asmlc.__file__}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    checkouts.add_parent_option(ap)
    ap.add_argument("--json", type=Path, help="write the record to this file")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure()))
        return

    sides = checkouts.sides(args.parent_src)
    found: dict[str, list[dict]] = {label: [] for label in sides}
    for label, src in checkouts.alternate(sides, ROUNDS):
        proc = checkouts.run_python(src, [__file__, "--child"],
                                    capture_output=True, text=True)
        row = json.loads(proc.stdout.splitlines()[-1])
        if Path(row["package"]).resolve().parent.parent != src:
            sys.exit(f"{label}: asmlc was imported from {row['package']}, not {src}")
        found[label].append(row)
        print(f"{label:>7}: {row['steps'] / row['loop_s']:8.0f} steps/s "
              f"({row['loop_s']:.2f} s)", flush=True)

    record = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "rounds": ROUNDS,
              "corpus": {"seed": SEED, "states": STATES, "programs": PROGRAMS,
                         "depth": DEPTH, "max_steps": MAX_STEPS},
              "sides": {}}
    counts = set()
    for label, rows in found.items():
        count = {key: rows[0][key] for key in ("agreed", "runs", "steps")}
        if any({key: r[key] for key in count} != count for r in rows):
            sys.exit(f"{label}: the counts differ between rounds")
        counts.add(tuple(count.items()))
        record["sides"][label] = {
            **count,
            "loop_s": checkouts.quartiles([r["loop_s"] for r in rows], 3),
            "steps_per_s": checkouts.quartiles(
                [r["steps"] / r["loop_s"] for r in rows], 0)}
    if len(counts) != 1:
        sys.exit(f"the sides count different work: {sorted(counts)}")
    for label, side in record["sides"].items():
        rate, loop = side["steps_per_s"], side["loop_s"]
        print(f"{label:>7}: median {rate['median']:.0f} steps/s "
              f"(quartiles {rate['q1']:.0f}-{rate['q3']:.0f}), loop median "
              f"{loop['median']:.2f} s; {side['runs']} runs, {side['steps']} steps")
    if "parent" in record["sides"]:
        ratio = (record["sides"]["change"]["steps_per_s"]["median"]
                 / record["sides"]["parent"]["steps_per_s"]["median"])
        record["change_over_parent_steps_per_s"] = round(ratio, 3)
        print(f"change / parent median steps/s: {ratio:.3f}")
    if args.json:
        args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
