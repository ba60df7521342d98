"""Command-line interface.

Subcommands: run, normalize, compile, verify, encode, decode, audit,
trace.  All output is deterministic; exit status 0 means success.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .asm import run as asm_run
from .compiler import CompileError, compile_machine
from .encodings import match_nat, nat
from .engine import STATUS_NORMAL, STATUS_RAN, STATUS_UNDEFINED, advance_term
from .lambda_f import bool_term, match_bool, standard_bool_signature
from .normalize import normalize, to_program
from .sourcefmt import SourceError, parse_source, print_program

# ``cosim`` and ``syntax`` are imported only by the subcommands that use
# them, so the others do not load them.


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_source(fh.read())
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    except SourceError as exc:
        for d in exc.diagnostics:
            print(f"error: {path}:{d}", file=sys.stderr)
        raise SystemExit(1)


def _bindings(pairs: list[str]) -> dict:
    out = {}
    for p in pairs:
        name, _, raw = p.partition("=")
        if not _:
            raise SystemExit(f"error: --input expects name=value, got {p!r}")
        if raw in ("true", "false"):
            out[name] = raw == "true"
        else:
            try:
                out[name] = int(raw)
            except ValueError:
                out[name] = raw
    return out


def _show(v) -> str:
    if v is None:
        return "undefined"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, dict):
        items = ", ".join(
            f"{'(' + ', '.join(map(str, k)) + ')'} -> {_show(x)}"
            for k, x in sorted(v.items(), key=repr))
        return "{" + items + "}"
    return str(v)


def _compile(machine, state, args):
    """``compile_machine`` at the requested budget.  A budget below the
    minima, an L above L_min at K = K_min (the error names the least K
    for that L), or a machine the compiler rejects ends in one error
    line."""
    try:
        return compile_machine(machine, state, K=args.headroom_K, L=args.headroom_L)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_run(args) -> int:
    sm = _load(args.file)
    machine = sm.machine()
    state = sm.state(_bindings(args.input))
    result = asm_run(machine, state, args.max_steps)
    constants = {s.name for s in machine.voc.symbols.values() if s.arity == 0}
    for i, st in enumerate(result.trajectory):
        snap = ", ".join(
            f"{name}={_show(table.get(()) if name in constants else table)}"
            for name, table in sorted(st.dynamics.items()))
        print(f"step {i}: {snap}")
    print(f"outcome: {result.kind}")
    outputs = result.outcome.outputs or {}
    for name, v in sorted(outputs.items()):
        print(f"output {name} = {_show(v)}")
    return 1 if result.kind == "diverged" or None in outputs.values() else 0


def cmd_normalize(args) -> int:
    sm = _load(args.file)
    machine = sm.machine()
    gp = normalize(machine.program)
    print(f"conditions: {len(gp.conditions)}, clauses: {len(gp.clauses)}")
    print(print_program(to_program(gp)))
    return 0


def cmd_compile(args) -> int:
    sm = _load(args.file)
    machine = sm.machine()
    state = sm.state({})
    cm = _compile(machine, state, args)
    print(json.dumps(cm.manifest(), indent=2))
    if args.term:
        from .syntax import print_term
        print(print_term(cm.theta))
    return 0


def cmd_verify(args) -> int:
    from .cosim import lockstep
    sm = _load(args.file)
    machine = sm.machine()
    given = _bindings(args.input)
    base = sm.state(given)
    inputs = sorted(s.name for s in machine.voc.symbols.values()
                    if s.kind == "static" and s.is_input)
    if args.grid and inputs:
        # 1..N over a numeric range, else the first N values of the carrier
        carriers = [base.carriers[machine.voc.symbols[name].result_sort] for name in inputs]
        grids = [range(1, args.grid + 1) if type(c[0]) is int else c[:args.grid]
                 for c in carriers]
        cases = [dict(zip(inputs, combo)) for combo in itertools.product(*grids)]
    else:
        cases = [given]
    states = [sm.state(binding) for binding in cases]  # every binding checked up front
    cm = _compile(machine, base, args)
    print(f"(K, L) = ({cm.K}, {cm.L})")
    failures = 0
    for binding, state in zip(cases, states):
        rep = lockstep(machine, cm, state, args.max_steps)
        if not rep.passed:
            failures += 1
            shown = ", ".join(f"{k}={_show(v)}" for k, v in sorted(binding.items()))
            print(f"FAIL [{shown}]: {rep.verdict} "
                  f"(machine {rep.asm_outcome}, term {rep.term_outcome})")
            if rep.rounds and rep.rounds[-1].note:
                print(f"  round {rep.rounds[-1].index}: {rep.rounds[-1].note}")
    print(f"verified {len(cases) - failures}/{len(cases)} runs "
          f"in lockstep at ({cm.K}, {cm.L})")
    return 0 if failures == 0 else 1


def cmd_encode(args) -> int:
    from .syntax import print_term
    if args.kind == "nat":
        try:
            term = nat(int(args.value))
        except ValueError:
            raise SystemExit("error: nat value must be a natural number")
        print(print_term(term))
        return 0
    if args.kind == "bool":
        if args.value not in ("true", "false"):
            raise SystemExit("error: bool value must be true or false")
        print(print_term(bool_term(args.value == "true")))
        return 0
    raise SystemExit(f"error: unknown kind {args.kind!r}")


def cmd_decode(args) -> int:
    from .syntax import TermSyntaxError, parse_term
    try:
        t = parse_term(args.term)
    except TermSyntaxError as exc:
        raise SystemExit(f"error: {exc}")
    n = match_nat(t)
    if n is not None:
        print(f"nat {n}")
        return 0
    b = match_bool(t)
    if b is not None:
        print(f"bool {'true' if b else 'false'}")
        return 0
    print("not a recognized value encoding")
    return 1


def cmd_audit(args) -> int:
    from .cosim import decoration_audit, render_audit
    rows = decoration_audit()
    print(render_audit(rows))
    bad = [r for r in rows if not r.match and not r.note]
    return 0 if not bad else 1


_TRACE_STATUS = {STATUS_NORMAL: "normal", STATUS_RAN: "budget",
                 STATUS_UNDEFINED: "undefined"}


def cmd_trace(args) -> int:
    """Run the engine one step at a time; the counts of each step give
    its kind."""
    from .syntax import TermSyntaxError, parse_term, print_term
    try:
        t = parse_term(args.term)
    except TermSyntaxError as exc:
        raise SystemExit(f"error: {exc}")
    sig = standard_bool_signature()
    print(f"0: {print_term(t)}")
    kinds = []
    status = STATUS_RAN if args.max_steps else advance_term(t, sig, 0)[3]
    while status == STATUS_RAN and len(kinds) < args.max_steps:
        t, beta, f, status = advance_term(t, sig, 1)
        if beta + f:
            kinds.append("beta" if beta else "f")
            print(f"{len(kinds)}: [{kinds[-1]}] {print_term(t)}")
    print(f"steps: {len(kinds)} (beta {kinds.count('beta')}, f {kinds.count('f')}); "
          f"status {_TRACE_STATUS[status]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asmlc",
        description="Run state machines, compile them to lambda terms, "
                    "and verify the compilation in lockstep.")
    sub = ap.add_subparsers(dest="command", required=True)

    def budget_options(p):
        for x, steps in (("K", "beta"), ("L", "constant (F)")):
            p.add_argument(f"--headroom-{x}", type=int, default=None, metavar=x,
                           help=f"{steps} steps per machine step: {x} itself, "
                                f"not an amount above {x}_min")

    def machine_cmd(name, help_, fn):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="machine source file")
        p.set_defaults(fn=fn)
        return p

    p = machine_cmd("run", "execute a machine and print its trajectory", cmd_run)
    p.add_argument("--input", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--max-steps", type=int, default=10_000)

    machine_cmd("normalize", "print the guarded normal form of the program",
                cmd_normalize)

    p = machine_cmd("compile", "compile and print the manifest", cmd_compile)
    budget_options(p)
    p.add_argument("--term", action="store_true",
                   help="also print the compiled term")

    p = machine_cmd("verify", "check machine and term stay in lockstep",
                    cmd_verify)
    p.add_argument("--input", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--grid", type=int, default=0, metavar="N",
                   help="verify every input assignment: 1..N for an input over "
                        "a numeric range, else the first N values of its carrier")
    p.add_argument("--max-steps", type=int, default=10_000)
    budget_options(p)

    p = sub.add_parser("encode", help="print the term encoding a value")
    p.add_argument("kind", choices=["nat", "bool"])
    p.add_argument("value")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="recover a value from a term")
    p.add_argument("term")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("audit", help="compare published and measured step counts")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("trace", help="print a decorated reduction trace")
    p.add_argument("term")
    p.add_argument("--max-steps", type=int, default=200)
    p.set_defaults(fn=cmd_trace)

    return ap


def main(argv=None) -> int:
    """Run one subcommand; a negative ``--grid`` or ``--max-steps``, and
    a machine, an input or a compile the program rejects, and a term
    nested too deeply for the recursive walks (theta at a K of 100,000,
    say), end in one ``error:`` line on stderr and exit status 1.  A
    reader that closes stdout early ends the run with exit status 1 and
    no traceback."""
    args = build_parser().parse_args(argv)
    for option in ("grid", "max_steps"):
        value = getattr(args, option, 0)
        if value < 0:
            print(f"error: --{option.replace('_', '-')} must be at least 0, got {value}",
                  file=sys.stderr)
            return 1
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except (CompileError, SourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: maximum recursion depth exceeded: a term nests too deeply",
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python's documented recipe for SIGPIPE: point stdout at devnull,
        # so the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
