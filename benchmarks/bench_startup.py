"""Start-up cost of asmlc: what a fresh interpreter pays before any work.

Times three commands, each run in a fresh interpreter process that
inherits this one's environment, except that its ``PYTHONPATH`` is one
checkout's ``src`` (``checkouts.py``; ``PYTHONDONTWRITEBYTECODE``
decides whether the package's source is compiled again in every
process):

- ``python3 -c pass``: the bare interpreter, for reference;
- ``python3 -c "import asmlc.cli"``: importing the package;
- ``asmlc compile machines/euclid.asm``: the console script's entry
  point, ``asmlc.cli.main``, on the bundled euclid machine.

The commands run in turn, 21 rounds of all three, so that drift in the
machine's load spreads evenly over them; each command's time is the
wall clock of its whole process, and the record keeps the median and
quartiles over the 21 runs.  With ``--parent-src`` every round runs the
three commands on this checkout and on the parent's, the two in an
order that flips every round, so both sides see the same drift; the
bare interpreter's time on each side shows how much that drift was.
One more fresh process per side imports ``asmlc.cli`` and counts three
things, all deterministic, so they compare checkouts where the timings
are noisy:

- the classes that ``dataclasses`` processes (by wrapping
  ``dataclasses._process_class``): each costs about 1 ms of generated
  and ``exec``-ed methods;
- the ``asmlc`` modules loaded, the ``asmlc`` and ``asmlc.*`` entries
  of ``sys.modules``;
- the source lines of those modules' files.

    python3 benchmarks/bench_startup.py [--parent-src PATH]
        [--json BENCH_startup.json]

With ``--json`` the record of each side is written to that file under
its label, ``change`` (this checkout) and ``parent``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import checkouts

EUCLID = checkouts.ROOT / "machines" / "euclid.asm"
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import asmlc.cli": ["-c", "import asmlc.cli"],
    "asmlc compile machines/euclid.asm": [
        "-c", "import sys; from asmlc.cli import main; sys.exit(main())",
        "compile", str(EUCLID)],
}
RUNS = 21

# Run in a fresh process: prints the dataclasses processed during the
# import of asmlc.cli, the asmlc modules it loads and their source
# lines, and where the package was imported from.
COUNT = """
import dataclasses, json, sys
names = []
process = dataclasses._process_class
def counted(cls, *args, **kwargs):
    names.append(f"{cls.__module__}.{cls.__qualname__}")
    return process(cls, *args, **kwargs)
dataclasses._process_class = counted
import asmlc.cli
modules = [m for n, m in sys.modules.items() if n == "asmlc" or n.startswith("asmlc.")]
lines = 0
for m in modules:
    with open(m.__file__, encoding="utf-8") as fh:
        lines += len(fh.read().splitlines())
print(json.dumps({"names": names, "modules": len(modules), "lines": lines,
                  "package": asmlc.__file__}))
"""


def _run(src: Path, argv: list[str]) -> float:
    t0 = time.perf_counter()
    checkouts.run_python(src, argv, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def bench(sides: dict[str, Path]) -> dict[str, dict]:
    """Side label -> command -> median and quartiles of its times."""
    times = {label: {name: [] for name in COMMANDS} for label in sides}
    for src in sides.values():  # warm the file cache, untimed
        for argv in COMMANDS.values():
            _run(src, argv)
    for label, src in checkouts.alternate(sides, RUNS):
        for name, argv in COMMANDS.items():
            times[label][name].append(_run(src, argv))
    out = {}
    for label, by_name in times.items():
        out[label] = {}
        for name, ts in by_name.items():
            q = checkouts.quartiles(ts)
            out[label][name] = {"median_s": q["median"], "q1_s": q["q1"], "q3_s": q["q3"]}
    return out


def import_counts(src: Path) -> dict:
    proc = checkouts.run_python(src, ["-c", COUNT], capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    checkouts.add_parent_option(ap)
    ap.add_argument("--json", type=Path, help="write the records to this file")
    args = ap.parse_args()

    sides = checkouts.sides(args.parent_src)
    timed = bench(sides)
    records = {}
    for label, src in sides.items():
        found = import_counts(src)
        names = found["names"]
        records[label] = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "runs": RUNS,
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "bytecode_cached": (Path(found["package"]).parent / "__pycache__").is_dir(),
            "dataclasses_processed": len(names), "dataclasses": names,
            "asmlc_modules": found["modules"], "asmlc_source_lines": found["lines"],
            "commands": timed[label]}
        print(f"{label}: dataclasses processed while importing asmlc.cli: "
              f"{len(names)}; asmlc modules loaded: {found['modules']}, "
              f"with {found['lines']} source lines")
        for name, row in records[label]["commands"].items():
            print(f"{name:>34}: median {row['median_s'] * 1000:.1f} ms "
                  f"(quartiles {row['q1_s'] * 1000:.1f}-{row['q3_s'] * 1000:.1f} ms, "
                  f"{RUNS} runs)")
    if args.json:
        args.json.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
