"""Independent references for the benchmark's correctness checks.

Nothing here calls the compiler: expected outcomes come from the
machines' closed-form meaning (gcd, the doubling table) and from a small
interpreter of its own for the two-counter programs.
"""
from __future__ import annotations

import math

# Carrier of the doubling machine's sort Nat (machines/doubling.asm).
DOUBLING_TOP = 8


def euclid_expected(a0: int, b0: int) -> tuple[int, int]:
    """(gcd, machine steps) of the remainder loop on (a0, b0)."""
    a, b, steps = a0, b0, 0
    while b > 0:
        a, b, steps = b, a % b, steps + 1
    if a != math.gcd(a0, b0):
        raise AssertionError("remainder loop disagrees with math.gcd")
    return a, steps


def doubling_expected(stop: int) -> tuple[str, dict, int]:
    """(outcome, f table, machine steps) of machines/doubling.asm.

    f(x) = 2x below ``stop`` and x elsewhere; the run fails at the first
    i < stop with 2i outside 0..DOUBLING_TOP.
    """
    for i in range(stop):
        if 2 * i > DOUBLING_TOP:
            return "fail", {}, i
    table = {(x,): (2 * x if x < stop else x) for x in range(DOUBLING_TOP + 1)}
    return "halt", table, stop


# ---------------------------------------------------------------------------
# Two-counter programs (perfbench/counters.asm vocabulary)

_CONST = {"zero": 0, "1": 1, "2": 2}
_OPS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq_Nat": lambda a, b: a == b,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "not": lambda a: not a,
}


def _value(t, env):
    head = t.head
    if head in env:
        return env[head]
    if head in _CONST:
        return _CONST[head]
    return _OPS[head](*(_value(a, env) for a in t.args))


def _collect(prog, env, acc):
    """Walk the instructions active in ``env`` into acc = [halt, fail, updates]."""
    kind = type(prog).__name__
    if kind == "HaltI":
        acc[0] = True
    elif kind == "FailI":
        acc[1] = True
    elif kind == "Update":
        acc[2].append((prog.symbol, _value(prog.rhs, env)))
    elif kind == "If":
        _collect(prog.then if _value(prog.cond, env) else prog.orelse, env, acc)
    elif kind == "Par":
        for block in prog.blocks:
            _collect(block, env, acc)
    elif kind != "Skip":
        raise TypeError(f"unexpected instruction {kind}")


def counter_run(prog, p: int, q: int, max_steps: int):
    """(outcome, steps, trajectory, output p) of a two-counter program.

    Outcome precedence per step: fail, clash, halt, empty update set
    (implicit halt), else the simultaneous update.  ``steps`` counts the
    transitions taken, ``max_steps`` when the run is cut off.
    """
    env = {"p": p, "q": q}
    trajectory = [(p, q)]
    for step in range(max_steps):
        acc = [False, False, []]
        _collect(prog, env, acc)
        halt, fail, updates = acc
        if fail:
            return "fail", step, trajectory, None
        written: dict[str, int] = {}
        for sym, val in updates:
            if written.setdefault(sym, val) != val:
                return "clash", step, trajectory, None
        if halt or not updates:
            return "halt", step, trajectory, env["p"]
        env.update(written)
        trajectory.append((env["p"], env["q"]))
    return "diverged", max_steps, trajectory, None


def term_nodes(t) -> int:
    """Node count of a lambda term, walked iteratively."""
    n, stack = 0, [t]
    while stack:
        s = stack.pop()
        n += 1
        kind = type(s).__name__
        if kind == "App":
            stack.append(s.fun)
            stack.append(s.arg)
        elif kind == "Abs":
            stack.append(s.body)
    return n
