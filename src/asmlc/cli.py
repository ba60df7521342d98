"""Command-line interface.

Subcommands: run, normalize, compile, verify, encode, decode, audit,
trace.  All output is deterministic; exit status 0 means success.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys

from .asm import program_symbols, run as asm_run
from .compiler import compile_machine
from .cosim import decoration_audit, lockstep, render_audit
from .encodings import match_nat, nat
from .lambda_f import bool_term, match_bool, standard_bool_signature, reduce_leftmost_f
from .normalize import normalize, to_program
from .sourcefmt import SourceError, parse_source, print_program
from .syntax import TermSyntaxError, parse_term, print_term


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_source(fh.read())
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    except SourceError as exc:
        for d in exc.diagnostics:
            print(f"{path}:{d}", file=sys.stderr)
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
        continue
    return out


def _show(v) -> str:
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
    """``compile_machine`` at the requested budget; a budget below the
    minima, or a machine the compiler rejects, ends in one error line."""
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
    for i, st in enumerate(result.trajectory):
        snap = ", ".join(
            f"{name}={_show(table[()] if set(table) == {()} else table)}"
            for name, table in sorted(st.dynamics.items()))
        print(f"step {i}: {snap}")
    print(f"outcome: {result.kind}")
    if result.outcome is not None and result.outcome.outputs:
        for name, v in sorted(result.outcome.outputs.items()):
            print(f"output {name} = {_show(v)}")
    return 0 if result.kind != "diverged" else 1


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
        print(print_term(cm.theta))
    return 0


def cmd_verify(args) -> int:
    sm = _load(args.file)
    machine = sm.machine()
    base = sm.state(_bindings(args.input))
    cm = _compile(machine, base, args)
    print(f"(K, L) = ({cm.K}, {cm.L})")
    inputs = sorted(s.name for s in machine.voc.symbols.values()
                    if s.kind == "static" and s.is_input)
    if args.grid and inputs:
        grids = [range(1, args.grid + 1)] * len(inputs)
        cases = [dict(zip(inputs, combo)) for combo in itertools.product(*grids)]
    else:
        cases = [_bindings(args.input)]
    # Input constants mentioned in the program body get folded into the
    # compiled term, so such machines are recompiled per assignment (and
    # must land on the same step counts every time).
    input_dependent = bool(set(inputs) & set(program_symbols(machine.program)))
    failures = 0
    for binding in cases:
        state = sm.state(binding)
        if input_dependent:
            cmx = _compile(machine, state, args)
            if (cmx.K, cmx.L) != (cm.K, cm.L):
                print(f"FAIL: step counts drifted to ({cmx.K}, {cmx.L})")
                failures += 1
                continue
        else:
            cmx = cm
        rep = lockstep(machine, cmx, state, args.max_steps)
        if not rep.passed:
            failures += 1
            shown = ", ".join(f"{k}={v}" for k, v in sorted(binding.items()))
            print(f"FAIL [{shown}]: {rep.verdict} "
                  f"(machine {rep.asm_outcome}, term {rep.term_outcome})")
            if rep.rounds and rep.rounds[-1].note:
                print(f"  round {rep.rounds[-1].index}: {rep.rounds[-1].note}")
    print(f"verified {len(cases) - failures}/{len(cases)} runs "
          f"in lockstep at ({cm.K}, {cm.L})")
    return 0 if failures == 0 else 1


def cmd_encode(args) -> int:
    if args.kind == "nat":
        print(print_term(nat(int(args.value))))
        return 0
    if args.kind == "bool":
        if args.value not in ("true", "false"):
            raise SystemExit("error: bool value must be true or false")
        print(print_term(bool_term(args.value == "true")))
        return 0
    raise SystemExit(f"error: unknown kind {args.kind!r}")


def cmd_decode(args) -> int:
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
    rows = decoration_audit()
    print(render_audit(rows))
    bad = [r for r in rows if not r.match and not r.note]
    return 0 if not bad else 1


def cmd_trace(args) -> int:
    try:
        t = parse_term(args.term)
    except TermSyntaxError as exc:
        raise SystemExit(f"error: {exc}")
    sig = standard_bool_signature()
    r = reduce_leftmost_f(t, sig, args.max_steps)
    print(f"0: {print_term(t)}")
    for i, step in enumerate(r.trace.steps, start=1):
        print(f"{i}: [{step.kind}] {print_term(step.after)}")
    print(f"steps: {len(r.trace)} "
          f"(beta {r.trace.beta_count}, f {r.trace.f_count}); "
          f"status {r.status.name.lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asmlc",
        description="Run state machines, compile them to lambda terms, "
                    "and verify the compilation in lockstep.")
    sub = ap.add_subparsers(dest="command", required=True)

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
    p.add_argument("--headroom-K", type=int, default=None, metavar="K")
    p.add_argument("--headroom-L", type=int, default=None, metavar="L")
    p.add_argument("--term", action="store_true",
                   help="also print the compiled term")

    p = machine_cmd("verify", "check machine and term stay in lockstep",
                    cmd_verify)
    p.add_argument("--input", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--grid", type=int, default=0, metavar="N",
                   help="verify every input assignment in 1..N")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--headroom-K", type=int, default=None, metavar="K")
    p.add_argument("--headroom-L", type=int, default=None, metavar="L")

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
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
