"""Start-up cost of asmlc: what a fresh interpreter pays before any work.

Times three commands, each run in a fresh interpreter process that
inherits this one's environment (so ``PYTHONPATH`` picks the checkout,
and ``PYTHONDONTWRITEBYTECODE`` decides whether the package's source is
compiled again in every process):

- ``python3 -c pass``: the bare interpreter, for reference;
- ``python3 -c "import asmlc.cli"``: importing the package;
- ``asmlc compile machines/euclid.asm``: the console script's entry
  point, ``asmlc.cli.main``, on the bundled euclid machine.

The commands run in turn, 21 rounds of all three, so that drift in the
machine's load spreads evenly over them; each command's time is the
wall clock of its whole process, and the record keeps the median and
quartiles over the 21 runs.  One more fresh process imports
``asmlc.cli`` and counts three things, all deterministic, so they
compare checkouts where the timings are noisy:

- the classes that ``dataclasses`` processes (by wrapping
  ``dataclasses._process_class``): each costs about 1 ms of generated
  and ``exec``-ed methods;
- the ``asmlc`` modules loaded, the ``asmlc`` and ``asmlc.*`` entries
  of ``sys.modules``;
- the source lines of those modules' files.

    PYTHONPATH=src python3 benchmarks/bench_startup.py [--label NAME]
        [--json BENCH_startup.json]

With ``--json`` the record is merged into that file under ``--label``,
so runs of two checkouts (point PYTHONPATH at each one's ``src``) sit
side by side.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EUCLID = ROOT / "machines" / "euclid.asm"
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


def _run(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def bench() -> dict:
    times: dict[str, list[float]] = {name: [] for name in COMMANDS}
    for name, argv in COMMANDS.items():  # warm the file cache, untimed
        _run(argv)
    for _ in range(RUNS):
        for name, argv in COMMANDS.items():
            times[name].append(_run(argv))
    out = {}
    for name, ts in times.items():
        q1, median, q3 = statistics.quantiles(ts, n=4)
        out[name] = {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4)}
    return out


def import_counts() -> dict:
    proc = subprocess.run([sys.executable, "-c", COUNT], check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="current", help="record name in --json")
    ap.add_argument("--json", type=Path, help="merge the record into this file")
    args = ap.parse_args()

    found = import_counts()
    names = found["names"]
    record = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "runs": RUNS,
              "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
              "bytecode_cached": (Path(found["package"]).parent / "__pycache__").is_dir(),
              "dataclasses_processed": len(names), "dataclasses": names,
              "asmlc_modules": found["modules"], "asmlc_source_lines": found["lines"],
              "commands": bench()}
    print(f"dataclasses processed while importing asmlc.cli: {len(names)}")
    print(f"asmlc modules loaded: {found['modules']}, "
          f"with {found['lines']} source lines")
    for name, row in record["commands"].items():
        print(f"{name:>34}: median {row['median_s'] * 1000:.1f} ms "
              f"(quartiles {row['q1_s'] * 1000:.1f}-{row['q3_s'] * 1000:.1f} ms, "
              f"{RUNS} runs)")
    if args.json:
        data = json.loads(args.json.read_text()) if args.json.exists() else {}
        data[args.label] = record
        args.json.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
