import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from asmlc import cli, compiler
from asmlc.cli import main
from asmlc.lambda_f import FALSE_TERM, TRUE_TERM, standard_bool_signature
from asmlc.syntax import parse_term, print_term
from asmlc.terms import Abs, App, Const, Var, app

from conftest import BUNDLED_COSTS, MACHINES
from traced import reduce_leftmost_f

EUCLID = str(MACHINES / "euclid.asm")
DOUBLING = str(MACHINES / "doubling.asm")


def run_cli(capsys, *argv):
    code, out, _ = run_cli_err(capsys, *argv)
    return code, out


def run_cli_err(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
        if isinstance(code, str):
            # what the interpreter does with a message: print it, exit 1
            print(code, file=sys.stderr)
            code = 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run(capsys):
    code, out = run_cli(capsys, "run", EUCLID,
                        "--input", "a0=36", "--input", "b0=24")
    assert code == 0
    assert "outcome: implicit-halt" in out
    assert "output a = 12" in out
    assert out.startswith("step 0: a=36, b=24")


def test_normalize(capsys):
    code, out = run_cli(capsys, "normalize", EUCLID)
    assert code == 0
    assert "conditions: 1, clauses: 1" in out
    assert "a := b" in out


DOUBLING_NORMAL_FORM = """\
conditions: 2, clauses: 3
par {
  if and(not(eq_Nat(i, stop)), eq_Nat(i, stop)) then
    par {
      f(i) := plus(i, i)
      i := succ(i)
      halt
    }
  if and(not(eq_Nat(i, stop)), not(eq_Nat(i, stop))) then
    par {
      f(i) := plus(i, i)
      i := succ(i)
    }
  if and(not(not(eq_Nat(i, stop))), eq_Nat(i, stop)) then
    par {
      halt
    }
}
"""


def test_normalize_prints_guards_in_full(capsys):
    # The guards share their prefixes in memory; printed, each is whole.
    code, out = run_cli(capsys, "normalize", DOUBLING)
    assert code == 0
    assert out == DOUBLING_NORMAL_FORM


def test_compile_manifest(capsys):
    code, out = run_cli(capsys, "compile", EUCLID)
    assert code == 0
    manifest = json.loads(out)
    assert manifest["exit_codes"] == {"success": 1, "fail": 2, "clash": 3}
    assert [s["symbol"] for s in manifest["slots"]] == ["a", "b"]
    assert manifest["K"] >= manifest["K_min"]
    cost = manifest["cost"]
    assert cost["unfold"] + cost["load"] + cost["select"] + cost["pad_K"] == manifest["K"] == 8
    assert sum(cost["F_branches"]) + cost["pad_L"] == manifest["L"] == 7


def test_compile_below_minima_is_one_error_line(capsys):
    code, out, err = run_cli_err(capsys, "compile", EUCLID, "--headroom-K", "7")
    assert code == 1
    assert out == ""
    assert err == "error: requested (K,L)=(7,7) below the minima (8,7)\n"


def test_too_deep_padding_is_one_error_line():
    # theta's identity chain is 100,000 deep; the recursive F-redex walk
    # raised RecursionError with a traceback.  A process of its own, as a
    # test runner that walks the frames of an escaped RecursionError
    # compares their deep terms and can overflow the C stack
    r = cli_process("compile", EUCLID, "--headroom-K", "100000", capture_output=True)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: maximum recursion depth exceeded: a term nests too deeply\n"


@pytest.mark.parametrize("cmd", ["compile", "verify"])
def test_f_padding_at_least_k_is_one_error_line(capsys, cmd):
    # L above L_min needs one beta more than K_min, for the discard binding
    code, out, err = run_cli_err(capsys, cmd, EUCLID, "--headroom-K", "8",
                                 "--headroom-L", "9")
    assert code == 1
    assert out == ""
    assert err == "error: requested (K,L)=(8,9): the least K for L=9 is 9\n"


def test_compile_headroom_l_alone_takes_least_k(capsys):
    code, out = run_cli(capsys, "compile", EUCLID, "--headroom-L", "9")
    assert code == 0
    manifest = json.loads(out)
    assert (manifest["K"], manifest["L"]) == (9, 9)
    assert (manifest["cost"]["pad_K"], manifest["cost"]["pad_L"]) == (1, 2)


def test_compile_term_printable(capsys):
    code, out = run_cli(capsys, "compile", EUCLID, "--term")
    assert code == 0
    from asmlc.syntax import parse_term
    term_text = out[out.index("\n}") + 2:].strip()
    parse_term(term_text)  # parses back


def test_verify_grid(capsys):
    code, out = run_cli(capsys, "verify", EUCLID, "--grid", "4")
    assert code == 0
    assert "verified 16/16 runs" in out
    assert out.splitlines()[0].startswith("(K, L) = (")


def test_verify_cut_run_with_a_failed_round_prints_fail(capsys, monkeypatch):
    # a compile whose budget is one beta larger than its theta takes, and
    # a run cut at --max-steps: the failed round makes the verdict fail
    def one_beta_over(machine, state, K=None, L=None):
        cm = compile_machine(machine, state, K=K, L=L)
        return replace(cm, K=cm.K + 1)

    compile_machine = cli.compile_machine
    monkeypatch.setattr(cli, "compile_machine", one_beta_over)
    code, out = run_cli(capsys, "verify", DOUBLING, "--input", "stop=4", "--max-steps", "2")
    assert code == 1
    assert "FAIL [stop=4]: fail (machine diverged, term undecodable)" in out


def test_verify_below_minima_is_one_error_line(capsys):
    code, out, err = run_cli_err(capsys, "verify", EUCLID, "--grid", "2",
                                 "--headroom-L", "6")
    assert code == 1
    assert out == ""
    assert err == "error: requested (K,L)=(8,6) below the minima (8,7)\n"


def test_verify_outside_carrier_is_one_error_line(capsys):
    # the grid reaches b0 = 61, outside euclid's 0..60
    code, out, err = run_cli_err(capsys, "verify", EUCLID, "--grid", "61")
    assert code == 1
    assert out == ""
    assert err == "error: input b0 = 61 is outside the carrier of Nat\n"


@pytest.mark.parametrize("argv, message", [
    (("run", EUCLID, "--input", "zz=3"),
     "zz is not an input of this machine (inputs: a0, b0)"),
    (("run", EUCLID, "--input", "a0=100"),
     "input a0 = 100 is outside the carrier of Nat"),
    (("run", EUCLID, "--input", "a0=true"),
     "input a0 = True is outside the carrier of Nat"),
    (("verify", EUCLID, "--input", "a0=100", "--input", "b0=3"),
     "input a0 = 100 is outside the carrier of Nat"),
], ids=["unknown-name", "run-out-of-range", "bool-for-nat", "verify-out-of-range"])
def test_bad_input_is_one_error_line(capsys, argv, message):
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", EUCLID, "--grid", "-3"), "--grid must be at least 0, got -3"),
    (("run", EUCLID, "--max-steps", "-1"), "--max-steps must be at least 0, got -1"),
    (("verify", EUCLID, "--max-steps", "-1"), "--max-steps must be at least 0, got -1"),
    (("trace", r"(\x. x x) (\x. x x)", "--max-steps", "-1"),
     "--max-steps must be at least 0, got -1"),
], ids=["verify-grid", "run-max-steps", "verify-max-steps", "trace-max-steps"])
def test_negative_count_is_one_error_line(capsys, argv, message):
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind, value, message", [
    ("nat", "-1", "nat value must be a natural number"),
    ("nat", "abc", "nat value must be a natural number"),
    ("bool", "maybe", "bool value must be true or false"),
], ids=["nat-negative", "nat-not-a-number", "bool-unknown"])
def test_encode_bad_value_is_one_error_line(capsys, kind, value, message):
    code, out, err = run_cli_err(capsys, "encode", kind, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


NO_DYNAMICS = """\
sort Nat = 0..4
static zero : -> Nat = builtin zero
program:
  halt
"""

UNDEFINED_INIT = """\
sort Nat = 0..4
static zero : -> Nat = builtin zero
static rem : Nat Nat -> Nat = builtin rem
dynamic c : -> Nat output
init c = rem(zero, zero)
program:
  halt
"""

ILL_SORTED = """\
sort Nat = 0..4
static zero : -> Nat = builtin zero
dynamic c : -> Nat output
init c = zero
program:
  if zero then c := zero
"""


REFUSED = {
    # and(1, 0) is 0, which equals False: it would pass the Bool clip, so
    # the interpreter would skip the If where theta takes the else-branch
    "connective-over-nat": ("""\
sort Nat = 0..3
static both : Nat Nat -> Bool = builtin and
static succ : Nat -> Nat = builtin succ
dynamic c : -> Nat output
init c = 0
program:
  if both(succ(c), c) then halt else c := succ(c)
""", "2:33: builtin and has arity 2, Bool arguments and a Bool result, "
     "but both is declared Nat Nat -> Bool"),
    # 1 equals True, so p(0) would pass the Bool clip as a number
    "number-into-bool": ("""\
sort Nat = 0..3
static p : Nat -> Bool = {0 -> 1, 1 -> 0, 2 -> 0, 3 -> 0}
static succ : Nat -> Nat = builtin succ
dynamic c : -> Nat output
init c = 0
program:
  if p(c) then c := succ(c) else halt
""", "2:32: 1 is not a literal of sort Bool"),
    # True equals 1, so q(0) would pass the Nat clip as a truth value
    "bool-into-nat": ("""\
sort Nat = 0..3
static q : Nat -> Nat = {0 -> true}
dynamic c : -> Nat output
init c = 0
program:
  c := q(c)
""", "2:31: true is not a literal of sort Nat"),
    # an empty carrier has no first element to totalize statics with
    "empty-range": ("""\
sort Nat = 5..2
static zero : -> Nat = builtin zero
dynamic c : -> Nat output
init c = zero
program:
  halt
""", "1:12: sort Nat = 5..2 is empty"),
    # the vocabulary took the second profile and the state the first
    # semantics, so f(c) was succ(c), a number past the Bool clip, and
    # the run ended in an implicit halt
    "static-twice": ("""\
sort Nat = 0..3
static f : Nat -> Nat = builtin succ
static f : Nat -> Bool = {0 -> true, 1 -> false, 2 -> false, 3 -> false}
dynamic c : -> Nat output
init c = 0
program:
  if f(c) then halt else c := 1
""", "3:8: f is already declared at 2:8"),
    "dynamic-twice": ("""\
sort Nat = 0..3
dynamic c : -> Nat output
dynamic c : -> Nat
init c = 0
program:
  c := 1
""", "3:9: c is already declared at 2:9"),
    "input-twice": ("""\
sort Nat = 0..3
input n : Nat
input n : Nat
dynamic c : -> Nat output
init c = n
program:
  halt
""", "3:7: n is already declared at 2:7"),
    "element-twice": ("""\
sort Color = {red, green}
sort Light = {green, off}
dynamic c : -> Color output
init c = red
program:
  c := green
""", "2:15: green is already declared at 1:20"),
    "static-and-dynamic": ("""\
sort Nat = 0..3
static c : -> Nat = builtin zero
dynamic c : -> Nat output
init c = 0
program:
  halt
""", "3:9: c is already declared at 2:8"),
    # succ(red) raised a TypeError, plus joined element names and lt
    # compared them as strings
    "numeric-builtin-over-enum": ("""\
sort Col = {red, green}
static s : Col -> Col = builtin succ
dynamic c : -> Col output
init c = red
program:
  c := s(c)
""", "2:25: builtin succ computes on numbers, but Col is not a range sort"),
    # the first x was bound and the second ignored
    "init-parameter-twice": ("""\
sort Nat = 0..3
dynamic f : Nat Nat -> Nat output
init f(x, x) = x
program:
  halt
""", "3:11: x is already a parameter at 3:8"),
    # the last row won
    "table-row-twice": ("""\
sort Nat = 0..3
static t : Nat -> Nat = {0 -> 1, 0 -> 2}
dynamic c : -> Nat output
init c = t(0)
program:
  halt
""", "2:34: this row repeats the arguments of the row at 2:26"),
    # the last init won
    "init-twice": ("""\
sort Nat = 0..3
dynamic c : -> Nat output
init c = 0
init c = 3
program:
  halt
""", "4:6: c already has an init rule at 3:6"),
    # the declaration replaced the conjunction of the compiler's own
    # guards, so theta failed where the machine ran
    "connective-declared": ("""\
sort Nat = 0..3
static and : Bool Bool -> Bool = builtin or
static lt : Nat Nat -> Bool = builtin lt
static succ : Nat -> Nat = builtin succ
input n : Nat
dynamic i : -> Nat output
init i = 0
program:
  if lt(i, n) then if lt(i, 2) then i := succ(i) else i := succ(succ(i))
""", "2:8: and is injected into every vocabulary and cannot be declared"),
    "constant-declared": ("""\
sort Nat = 0..3
static true : -> Bool = builtin false
dynamic c : -> Nat output
init c = 0
program:
  if true then halt else c := 1
""", "2:8: true is injected into every vocabulary and cannot be declared"),
    "eq-declared-after-its-sort": ("""\
sort Nat = 0..3
static eq_Nat : Nat Nat -> Bool = builtin lt
dynamic c : -> Nat output
init c = 0
program:
  if eq_Nat(c, 0) then c := 1 else halt
""", "2:8: eq_Nat is injected into every vocabulary and cannot be declared"),
    "eq-declared-before-its-sort": ("""\
static eq_Nat : Nat Nat -> Bool = builtin eq
sort Nat = 0..3
dynamic c : -> Nat output
init c = 0
program:
  if eq_Nat(c, 0) then c := 1 else halt
""", "1:8: eq_Nat is injected into every vocabulary and cannot be declared"),
}


@pytest.mark.parametrize("command, source, message", [
    ("compile", NO_DYNAMICS, "machine has no dynamic symbols"),
    ("compile", UNDEFINED_INIT, "dynamic constant c has no defined initial value"),
    ("verify", UNDEFINED_INIT, "dynamic constant c has no defined initial value"),
    ("compile", ILL_SORTED, "condition must be Boolean"),
    ("run", UNDEFINED_INIT.replace("init c = rem(zero, zero)\n", ""),
     "dynamic symbol c has no init rule"),
    ("run", NO_DYNAMICS.replace("builtin zero", "builtin zero\nstatic f : Nat Nat -> Bool = builtin plus"),
     "PATH:3:30: builtin plus has arity 2 and a non-Bool result, but f is declared Nat Nat -> Bool"),
    *[(command, source, f"PATH:{message}") for source, message in REFUSED.values()
      for command in ("run", "compile", "verify")],
], ids=["no-dynamics", "undefined-init", "verify-undefined-init", "ill-sorted", "no-init-rule",
        "builtin-misfit",
        *[f"{name}-{command}" for name in REFUSED for command in ("run", "compile", "verify")]])
def test_compile_error_is_one_error_line(capsys, tmp_path, command, source, message):
    path = tmp_path / "m.asm"
    path.write_text(source)
    code, out, err = run_cli_err(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n".replace("PATH", str(path))


def test_run_shows_undefined_constant(capsys, tmp_path):
    path = tmp_path / "m.asm"
    path.write_text(UNDEFINED_INIT.replace("  halt", "  skip"))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 1
    assert out == "step 0: c=undefined\noutcome: implicit-halt\noutput c = undefined\n"


@pytest.mark.parametrize("path", sorted(MACHINES.glob("*.asm")), ids=lambda p: p.stem)
def test_verify_every_bundled_machine(capsys, path):
    # --grid only takes effect on a machine with inputs
    code, out = run_cli(capsys, "verify", str(path), "--grid", "3")
    assert code == 0
    K, L = BUNDLED_COSTS[path.stem][1]
    assert out.splitlines()[0] == f"(K, L) = ({K}, {L})"
    assert out.splitlines()[-1].endswith(f"runs in lockstep at ({K}, {L})")


def test_verify_input_dependent_program(capsys):
    code, out = run_cli(capsys, "verify", DOUBLING, "--grid", "3")
    assert code == 0
    assert "verified 3/3 runs" in out


# Inputs over an enumeration and over Bool, read only by init rules.
NON_NUMERIC_INPUTS = """\
sort Col = {red, green, blue}
sort Nat = 0..3
static zero : -> Nat = builtin zero
static succ : Nat -> Nat = builtin succ
input c0 : Col
input go : Bool
dynamic c : -> Col output
dynamic g : -> Bool output
dynamic n : -> Nat
init c = c0
init g = go
init n = zero
program:
  if eq_Nat(n, zero) then n := succ(n) else halt
"""


def test_verify_grid_over_non_numeric_inputs(capsys, tmp_path):
    # --grid 2 takes the first two elements of Col and both Booleans
    path = tmp_path / "m.asm"
    path.write_text(NON_NUMERIC_INPUTS)
    code, out = run_cli(capsys, "verify", str(path), "--grid", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("verified 4/4 runs in lockstep")


# Programs that read an input: a Bool input in a guard, a bare Bool
# input as the guard, a partial static over an input, and inputs named
# like theta's own binders w and d (padded over L, so theta binds d).
INPUT_GUARD = """\
sort Nat = 0..{top}
static zero : -> Nat = builtin zero
static succ : Nat -> Nat = builtin succ
{inputs}
dynamic n : -> Nat output
init n = zero
program:
  if {guard} then {then} else {orelse}
"""


@pytest.mark.parametrize("top, inputs, guard, then, orelse, grid, budget, runs", [
    pytest.param("3", "input go : Bool", "and(go, eq_Nat(n, zero))", "n := succ(n)", "halt",
                 "2", (), 2, id="bool-input"),
    pytest.param("3", "input go : Bool", "go", "n := succ(n)", "halt",
                 "2", (), 2, id="bare-bool-input"),
    pytest.param("8", "input stop : Nat", "eq_Nat(n, succ(stop))", "halt", "n := succ(n)",
                 "8", (), 8, id="partial-static-over-input"),
    pytest.param("4", "input w : Nat\ninput d : Nat", "or(eq_Nat(n, w), eq_Nat(n, d))", "halt",
                 "n := succ(n)", "4", ("--headroom-K", "9", "--headroom-L", "12"), 16,
                 id="inputs-w-and-d"),
])
def test_verify_grid_binds_the_inputs_that_the_program_reads(
        capsys, tmp_path, top, inputs, guard, then, orelse, grid, budget, runs):
    path = tmp_path / "m.asm"
    path.write_text(INPUT_GUARD.format(top=top, inputs=inputs, guard=guard, then=then,
                                       orelse=orelse))
    code, out = run_cli(capsys, "verify", str(path), "--grid", grid, *budget)
    assert code == 0, out
    lines = out.splitlines()
    kl = lines[0].removeprefix("(K, L) = ")
    assert lines[1:] == [f"verified {runs}/{runs} runs in lockstep at {kl}"]


def test_verify_builds_theta_once(capsys, monkeypatch):
    # each case binds doubling's stop in the one theta
    calls = []
    build = compiler.build_branch_combinator
    monkeypatch.setattr(compiler, "build_branch_combinator",
                        lambda *a: calls.append(a) or build(*a))
    code, out = run_cli(capsys, "verify", DOUBLING, "--grid", "8")
    assert code == 0
    assert out.splitlines()[-1] == "verified 8/8 runs in lockstep at (8, 11)"
    assert len(calls) == 1


def test_encode_decode_roundtrip(capsys):
    code, out = run_cli(capsys, "encode", "nat", "7")
    assert code == 0
    code, out2 = run_cli(capsys, "decode", out.strip())
    assert code == 0 and out2.strip() == "nat 7"
    code, out3 = run_cli(capsys, "encode", "bool", "false")
    code, out4 = run_cli(capsys, "decode", out3.strip())
    assert out4.strip() == "bool false"


def cli_process(*argv, **kwargs) -> subprocess.CompletedProcess:
    """Run the command line in a fresh interpreter on this checkout's
    source."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "asmlc.cli", *argv],
                          text=True, env=env, timeout=120, **kwargs)


def test_encode_deep_numeral_prints():
    # a numeral nested 200k deep; the printer once overflowed the
    # Python stack on it
    r = cli_process("encode", "nat", "200000", capture_output=True)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("\\z. z (\\x y. y) (\\z. z (\\x y. y)")
    assert r.stdout.count("(\\z. ") == 200_000


def test_closed_stdout_exits_without_traceback():
    # as in `asmlc compile machines/euclid.asm --term | head -1`, but the
    # reader is gone before the first write, so the pipe always breaks
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = cli_process("compile", EUCLID, "--term", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert r.returncode == 1 and r.stderr == ""  # no traceback


def test_decode_rejects_garbage(capsys):
    code, out = run_cli(capsys, "decode", r"\x. x x")
    assert code == 1


def test_audit(capsys):
    code, out = run_cli(capsys, "audit")
    assert code == 0
    assert "curry-fixpoint" in out and "projection" in out


def test_trace_counts(capsys):
    code, out = run_cli(capsys, "trace", r"(\x. x) (#not (\x y. x))")
    assert code == 0
    assert "steps: 2 (beta 1, f 1)" in out
    assert "[f]" in out and "[beta]" in out


# The connectives ``asmlc trace`` gives semantics to: not, and, or.
_ARITY = {name: f.arity for name, f in standard_bool_signature().functions.items()}
_OMEGA = r"(\x. x x) (\x. x x)"


def _mixed_term(rng, depth, bound=()):
    """A random closed term over lambda booleans, the connectives and
    abstractions: connectives applied to their arguments, beta redexes,
    a term applied to two more, and abstractions, nested ``depth`` deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return rng.choice([*map(Var, bound), TRUE_TERM, FALSE_TERM])
    if roll < 0.5:
        c = rng.choice(sorted(_ARITY))
        return app(Const(c), *(_mixed_term(rng, depth - 1, bound) for _ in range(_ARITY[c])))
    v = rng.choice("xyz")
    if roll < 0.7:
        return App(Abs(v, _mixed_term(rng, depth - 1, bound + (v,))),
                   _mixed_term(rng, depth - 1, bound))
    if roll < 0.85:
        return app(*(_mixed_term(rng, depth - 1, bound) for _ in range(3)))
    return Abs(v, _mixed_term(rng, depth - 1, bound + (v,)))


def _traced_text(t, max_steps) -> str:
    """What ``asmlc trace`` prints, rendered from the traced reducer."""
    r = reduce_leftmost_f(t, standard_bool_signature(), max_steps)
    lines = [f"0: {print_term(t)}"]
    lines += [f"{i}: [{s.kind}] {print_term(s.after)}"
              for i, s in enumerate(r.trace.steps, start=1)]
    lines.append(f"steps: {len(r.trace)} (beta {r.trace.beta_count}, f {r.trace.f_count}); "
                 f"status {r.status.name.lower()}")
    return "\n".join(lines) + "\n"


def test_trace_prints_the_traced_reduction(capsys, rng):
    """The engine, run one step at a time, prints the traced reducer's
    trace: every step with its kind, the counts and the status."""
    texts = [_OMEGA] + [print_term(_mixed_term(rng, rng.randint(1, 4))) for _ in range(60)]
    statuses = set()
    for text in texts:
        for budget in (0, 1, 3, 50):
            code, out = run_cli(capsys, "trace", text, "--max-steps", str(budget))
            assert code == 0
            assert out == _traced_text(parse_term(text), budget), (text, budget)
            statuses.add(out.rsplit(" ", 1)[1].strip())
    assert statuses == {"normal", "budget"}


def test_deterministic_output(capsys):
    _, a = run_cli(capsys, "compile", EUCLID)
    _, b = run_cli(capsys, "compile", EUCLID)
    assert a == b


def test_missing_file_errors(capsys):
    code, _ = run_cli(capsys, "run", "no/such/file.asm")
    assert code not in (0, None)
