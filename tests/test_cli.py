import json
from pathlib import Path

import pytest

from asmlc.cli import main

MACHINES = Path(__file__).resolve().parent.parent / "machines"
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
    assert cost["unfold"] + cost["load"] + cost["select"] + cost["pad_K"] == manifest["K"] == 23
    assert sum(cost["F_branches"]) + cost["pad_L"] == manifest["L"] == 8


def test_compile_below_minima_is_one_error_line(capsys):
    code, out, err = run_cli_err(capsys, "compile", EUCLID, "--headroom-K", "20")
    assert code == 1
    assert out == ""
    assert err == "error: requested (K,L)=(20,8) below the minima (23,8)\n"


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


def test_verify_below_minima_is_one_error_line(capsys):
    code, out, err = run_cli_err(capsys, "verify", EUCLID, "--grid", "2",
                                 "--headroom-L", "7")
    assert code == 1
    assert out == ""
    assert err == "error: requested (K,L)=(23,7) below the minima (23,8)\n"


def test_verify_input_dependent_program(capsys):
    code, out = run_cli(capsys, "verify", DOUBLING, "--grid", "3")
    assert code == 0
    assert "verified 3/3 runs" in out


def test_encode_decode_roundtrip(capsys):
    code, out = run_cli(capsys, "encode", "nat", "7")
    assert code == 0
    code, out2 = run_cli(capsys, "decode", out.strip())
    assert code == 0 and out2.strip() == "nat 7"
    code, out3 = run_cli(capsys, "encode", "bool", "false")
    code, out4 = run_cli(capsys, "decode", out3.strip())
    assert out4.strip() == "bool false"


def test_decode_rejects_garbage(capsys):
    code, out = run_cli(capsys, "decode", r"\x. x x")
    assert code == 1


def test_audit(capsys):
    code, out = run_cli(capsys, "audit")
    assert code == 0
    assert "curry-fixpoint" in out and "padding" in out


def test_trace_counts(capsys):
    code, out = run_cli(capsys, "trace", r"(\x. x) (#not (\x y. x))")
    assert code == 0
    assert "steps: 2 (beta 1, f 1)" in out
    assert "[f]" in out and "[beta]" in out


def test_deterministic_output(capsys):
    _, a = run_cli(capsys, "compile", EUCLID)
    _, b = run_cli(capsys, "compile", EUCLID)
    assert a == b


def test_missing_file_errors(capsys):
    code, _ = run_cli(capsys, "run", "no/such/file.asm")
    assert code not in (0, None)
