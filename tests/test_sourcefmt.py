import math

import pytest

from asmlc import sourcefmt
from asmlc.asm import BUILTINS, run
from asmlc.sourcefmt import (
    SourceError,
    SourceMachine,
    parse_source,
    print_program,
    print_typed_term,
)

from conftest import MACHINES

EUCLID = (MACHINES / "euclid.asm").read_text()
DOUBLING = (MACHINES / "doubling.asm").read_text()


def print_source(sm: SourceMachine) -> str:
    lines: list[str] = []
    for s in sm.sorts:
        if s.elements:
            lines.append(f"sort {s.name} = {{{', '.join(s.elements)}}}")
        else:
            lines.append(f"sort {s.name} = {s.lo}..{s.hi}")
    for st in sm.statics:
        if st.impl[0] == "input":
            lines.append(f"input {st.name} : {st.result}")
        elif st.impl[0] == "builtin":
            prof = " ".join(st.arg_sorts) + (" " if st.arg_sorts else "")
            lines.append(f"static {st.name} : {prof}-> {st.result} = builtin {st.impl[1]}")
        elif st.impl[0] == "table":
            rows = ", ".join(
                " ".join(_show_lit(x) for x in r[:-1]) + " -> " + _show_lit(r[-1])
                for r in st.impl[1]
            )
            prof = " ".join(st.arg_sorts) + (" " if st.arg_sorts else "")
            lines.append(f"static {st.name} : {prof}-> {st.result} = {{{rows}}}")
        # literal/element constants are re-created by the parser
    for d in sm.dynamics:
        prof = " ".join(d.arg_sorts) + (" " if d.arg_sorts else "")
        out = " output" if d.output else ""
        lines.append(f"dynamic {d.name} : {prof}-> {d.result}{out}")
    for ini in sm.inits:
        params = f"({', '.join(ini.params)})" if ini.params else ""
        lines.append(f"init {ini.name}{params} = {print_typed_term(ini.term)}")
    lines.append("program:")
    lines.append(print_program(sm.program, indent=1))
    return "\n".join(lines) + "\n"


def _show_lit(x) -> str:
    if x is True:
        return "true"
    if x is False:
        return "false"
    return str(x)


def test_parse_and_run_gcd():
    sm = parse_source(EUCLID)
    machine = sm.machine()
    for a, b in ((36, 24), (7, 3), (10, 10)):
        r = run(machine, sm.state({"a0": a, "b0": b}), 200)
        assert r.kind == "implicit-halt"
        assert r.outcome.outputs["a"] == math.gcd(a, b)


def test_parse_and_run_doubling():
    sm = parse_source(DOUBLING)
    machine = sm.machine()
    r = run(machine, sm.state({"stop": 3}), 50)
    assert r.kind == "halt"
    f = r.outcome.outputs["f"]
    assert all(f[(i,)] == 2 * i for i in range(3))


def test_machine_and_states_share_one_vocabulary():
    sm = parse_source(EUCLID)
    voc = sm.machine().voc
    a, b = sm.state({"a0": 3, "b0": 2}), sm.state({"a0": 5, "b0": 4})
    assert voc is a.voc is b.voc is sm.vocabulary()
    assert a.statics["a0"]() == 3 and b.statics["a0"]() == 5


def test_states_share_one_static_table(monkeypatch):
    """The carriers and every static but the inputs are built once per
    source file: every state shares the carriers dict and each non-input
    static, and a state after the first clips nothing again."""
    sm = parse_source(EUCLID)
    first = sm.state({"a0": 3, "b0": 2})
    clip = sourcefmt._clip
    clipped = []

    def counting(*args):
        clipped.append(args)
        return clip(*args)

    monkeypatch.setattr(sourcefmt, "_clip", counting)
    states = [sm.state({"a0": n % 60, "b0": 7}) for n in range(100)]
    assert clipped == []
    inputs = {"a0", "b0"}
    for st in states:
        assert st.carriers is first.carriers
        assert st.statics.keys() == first.statics.keys()
        assert all(st.statics[name] is fn for name, fn in first.statics.items()
                   if name not in inputs)
    assert [st.statics["a0"]() for st in states[:3]] == [0, 1, 2]
    assert first.statics["a0"]() == 3 and states[0].statics["b0"]() == 7


def test_inputs_default_to_first_carrier_element():
    sm = parse_source(EUCLID)
    r = run(sm.machine(), sm.state({}), 50)  # a0 = b0 = 0
    assert r.kind == "implicit-halt"
    assert r.outcome.outputs["a"] == 0


def test_state_rejects_bad_bindings():
    sm = parse_source("""
sort Color = {red, green}
input c : Color
input flag : Bool
dynamic d : -> Color
init d = c
program:
  skip
""")
    assert sm.state({"c": "green", "flag": False}).statics["c"]() == "green"
    for bindings, message in (({"x": 1}, "x is not an input of this machine (inputs: c, flag)"),
                              ({"c": "blue"}, "input c = 'blue' is outside the carrier of Color"),
                              ({"flag": 1}, "input flag = 1 is outside the carrier of Bool")):
        with pytest.raises(SourceError) as e:
            sm.state(bindings)
        assert str(e.value) == message


def test_printer_roundtrip():
    for src in (EUCLID, DOUBLING):
        printed = print_source(parse_source(src))
        assert print_source(parse_source(printed)) == printed


def test_out_of_carrier_result_is_undefined():
    src = """
sort Nat = 0..3
static succ : Nat -> Nat = builtin succ
dynamic c : -> Nat output
init c = 3
program:
  c := succ(c)
"""
    sm = parse_source(src)
    r = run(sm.machine(), sm.state({}), 10)
    assert r.kind == "fail"  # succ(3) leaves the carrier: undefined update


def test_table_statics():
    src = """
sort Color = {red, green, blue}
static next : Color -> Color = {red -> green, green -> blue, blue -> red}
dynamic c : -> Color output
init c = red
program:
  if not(eq_Color(c, blue)) then
    c := next(c)
  else
    halt
"""
    sm = parse_source(src)
    r = run(sm.machine(), sm.state({}), 10)
    assert r.kind == "halt"
    assert r.outcome.outputs["c"] == "blue"
    assert len(r.trajectory) == 3


def test_numeric_literals_become_constants():
    src = """
sort Nat = 0..9
static plus : Nat Nat -> Nat = builtin plus
dynamic c : -> Nat output
init c = 0
program:
  c := plus(c, 3)
"""
    sm = parse_source(src)
    r = run(sm.machine(), sm.state({}), 3)
    assert r.trajectory[1].dynamics["c"][()] == 3


def test_unknown_symbol_is_diagnosed():
    src = """
sort Nat = 0..9
dynamic c : -> Nat output
init c = 0
program:
  if lt_missing then skip
"""
    with pytest.raises(SourceError) as e:
        parse_source(src)
    assert "lt_missing" in str(e.value)


@pytest.mark.parametrize("decl, message", [
    ("static f : Nat Nat -> Bool = builtin plus",
     "builtin plus has arity 2 and a non-Bool result, but f is declared Nat Nat -> Bool"),
    ("static f : Nat -> Nat = builtin not",
     "builtin not has arity 1, Bool arguments and a Bool result, but f is declared Nat -> Nat"),
    ("static f : Nat -> Nat = builtin plus",
     "builtin plus has arity 2 and a non-Bool result, but f is declared Nat -> Nat"),
    ("static f : Nat -> Nat = builtin zero",
     "builtin zero has arity 0 and a non-Bool result, but f is declared Nat -> Nat"),
    ("static f : -> Bool = builtin lt",
     "builtin lt has arity 2 and a Bool result, but f is declared -> Bool"),
    ("static both : Nat Nat -> Bool = builtin and",
     "builtin and has arity 2, Bool arguments and a Bool result, "
     "but both is declared Nat Nat -> Bool"),
], ids=["bool-for-plus", "nat-for-not", "plus-arity", "zero-arity", "lt-arity",
        "and-over-nat"])
def test_builtin_profile_must_fit_its_function(decl, message):
    """A builtin declared with another arity, with a Bool result where
    its function returns none (or the converse), or with a non-Bool
    argument where it takes Bool ones, is refused where it is declared,
    not run with values outside its carrier.  (``and`` returns one of
    its arguments, so over Nat it could return a number that the Bool
    clip lets through: ``and(1, 0)`` is 0, which equals False.)"""
    src = f"""
sort Nat = 0..3
{decl}
dynamic c : -> Nat
init c = 0
program:
  skip
"""
    with pytest.raises(SourceError) as e:
        parse_source(src)
    assert str(e.value) == f"3:{decl.index('builtin') + 1}: {message}"


@pytest.mark.parametrize("decl, message", [
    ("static p : Nat -> Bool = {0 -> 1}", "1 is not a literal of sort Bool"),
    ("static p : Nat -> Nat = {0 -> true}", "true is not a literal of sort Nat"),
    ("static p : Nat -> Nat = {red -> 0}", "red is not a literal of sort Nat"),
    ("static p : Color -> Nat = {0 -> 0}", "0 is not a literal of sort Color"),
    ("static p : Color -> Color = {red -> blue}", "blue is not a literal of sort Color"),
    ("static p : Bool -> Color = {true -> red, 1 -> red}",
     "1 is not a literal of sort Bool"),
], ids=["number-into-bool", "bool-into-nat", "element-into-nat", "number-into-enum",
        "foreign-element", "number-for-bool-argument"])
def test_table_literal_must_fit_its_sort(decl, message):
    """A table's arguments and results are true or false in Bool,
    numbers in a range sort, and elements in an enumeration.  (True
    equals 1, so ``{0 -> 1}`` into Bool would pass the carrier clip
    and run with a number where the compiled term has a truth value.)"""
    src = f"""
sort Nat = 0..3
sort Color = {{red, green}}
{decl}
dynamic c : -> Nat
init c = 0
program:
  skip
"""
    with pytest.raises(SourceError) as e:
        parse_source(src)
    [d] = e.value.diagnostics
    assert (d.line, d.message) == (4, message)
    assert decl[d.column - 1:].startswith(message.split()[0])


def test_out_of_range_table_number_is_undefined():
    sm = parse_source("""
sort Nat = 0..3
static p : Nat -> Nat = {0 -> 9, 1 -> 2}
static q : Nat -> Bool = {0 -> true}
dynamic c : -> Nat
init c = 0
program:
  skip
""")
    st = sm.state()
    assert [st.statics["p"](a) for a in range(3)] == [None, 2, None]
    assert st.statics["q"](0) is True and st.statics["q"](1) is None


def test_empty_range_is_refused():
    with pytest.raises(SourceError) as e:
        parse_source("sort Nat = 5..2\nprogram:\n  skip\n")
    assert str(e.value) == "1:12: sort Nat = 5..2 is empty"
    assert parse_source("sort Nat = 2..2\nprogram:\n  skip\n").sorts[0].carrier == (2,)


def test_diagnostics_carry_positions():
    with pytest.raises(SourceError) as e:
        parse_source("sort Nat = 0..")
    d = e.value.diagnostics[-1]
    assert d.line == 1 and d.column >= 14


def test_missing_program_section():
    with pytest.raises(SourceError) as e:
        parse_source("sort Nat = 0..3\n")
    assert "program" in str(e.value)


def test_init_rule_parameter_permutation():
    src = """
sort Nat = 0..3
static zero : -> Nat = builtin zero
dynamic g : Nat Nat -> Nat output
init g(x, y) = y
program:
  halt
"""
    sm = parse_source(src)
    r = run(sm.machine(), sm.state({}), 5)
    g = r.outcome.outputs["g"]
    assert g[(1, 2)] == 2 and g[(2, 1)] == 1


def test_statics_clip_through_one_set_per_carrier():
    """A static's value outside its result carrier reads as undefined,
    and the statics of every state test membership in one shared set
    per carrier, not one set per static per state.  A Bool-valued
    builtin only returns True or False, so it is not clipped."""
    sm = parse_source("""
sort Nat = 0..3
static s : Nat -> Nat = builtin succ
static lt : Nat Nat -> Bool = builtin lt
dynamic d : -> Nat
init d = s(0)
program:
  skip
""")
    states = [sm.state(), sm.state()]
    assert states[0].statics["s"](2) == 3 and states[0].statics["s"](3) is None
    for st in states:
        assert st.statics["s"](3) is None  # succ at the carrier's top
        assert st.statics["lt"] is BUILTINS["lt"].fn
        assert st.statics["and"] is BUILTINS["and"].fn  # injected, over Bool
        assert [st.statics["lt"](a, 2) for a in (1, 2)] == [True, False]
        assert all(type(st.statics["lt"](a, b)) is bool
                   for a in range(4) for b in range(4))
    sets = {id(cell.cell_contents) for st in states for fn in st.statics.values()
            for cell in fn.__closure__ or () if isinstance(cell.cell_contents, frozenset)}
    assert len(sets) == 1  # Nat; no Bool-valued static is clipped
