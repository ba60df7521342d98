"""The two sides of a benchmark that compares checkouts: this checkout's
``src`` ("change") and, when given, a parent checkout's ``src``
("parent"), for example one made by ``git worktree add``.

Each timing runs in a child process whose ``PYTHONPATH`` is exactly one
side's ``src``.  The sides take turns, in an order that flips every
round, so that drift in the machine's load falls on both alike.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def sides(parent_src: Path | None) -> dict[str, Path]:
    """Side label -> the ``src`` directory its children import asmlc from."""
    out = {"change": SRC}
    if parent_src is not None:
        parent_src = parent_src.resolve()
        if not (parent_src / "asmlc" / "__init__.py").is_file():
            sys.exit(f"no asmlc package under {parent_src}")
        out["parent"] = parent_src
    return out


def run_python(src: Path, argv: list[str]) -> str:
    """The standard output of ``python argv`` in a fresh process that
    imports asmlc from ``src``.  Its standard error is not captured, so
    a child that fails shows its traceback."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def alternate(sides: dict[str, Path], rounds: int):
    """(label, src) for every side in every round; the order of the sides
    is reversed every other round."""
    labels = list(sides)
    for r in range(rounds):
        for label in labels if r % 2 == 0 else labels[::-1]:
            yield label, sides[label]


def quartiles(values: list[float], digits: int = 4) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, digits), "q1": round(q1, digits),
            "q3": round(q3, digits)}
