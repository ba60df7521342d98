"""Every name a module of the package or a test module imports is used
in that module, every name a module of the package defines at top level
is reached from what the package runs, and every function the
benchmark's tracer wraps by name still exists.  Only two classes of the
package are dataclasses, and every other one, as every record of the
traced reducer (``tests/traced.py``), keeps what a dataclass gave it:
field names and order, construction, ``repr``, equality, hash and,
unless it is a mutable helper, immutability.

Reachability is a walk over the package's top-level definitions.  It
starts from ``main``, from every name the benchmarks refer to, and from
the module-level statements of the package that define nothing, and it
follows every name a reached definition refers to.  The tests are not
roots, so code that only tests call belongs under ``tests/``.  The walk
goes by name, not by module: a name reached anywhere reaches every
definition with that name.  That over-approximation is deliberate; it
keeps the walk free of import resolution, and it errs only towards
passing."""
import ast
import functools
import importlib
from pathlib import Path

import pytest

from asmlc.asm import (
    FailI,
    HaltI,
    If,
    InitRule,
    Machine,
    Outcome,
    Par,
    RunResult,
    Skip,
    State,
    Symbol,
    TApp,
    TVar,
    Update,
    Vocabulary,
)
from asmlc.combinators import Certificate, ExitBranch, Slot, UpdateBranch
from asmlc.compiler import DecodedResult, Translator
from asmlc.cosim import AuditRow, LockstepReport, RoundRecord
from asmlc.lambda_f import DeltaType, FFunction, FSignature
from asmlc.normalize import Clause, GuardedProgram
from asmlc.sourcefmt import (
    Diagnostic,
    DynamicDecl,
    InitDecl,
    SortDecl,
    SourceMachine,
    StaticDecl,
    _Ctx,
    _Tok,
)
from asmlc.terms import Const, Var

from traced import ReduceResult, Status, Step, Trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "asmlc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
TRACED = ROOT / "tests" / "traced.py"
# Where the reachability walk starts, besides ``main``: both benchmarks.
BENCHMARKS = ("benchmarks", "perfbench")


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - used, f"unused imports in {path.name}: {sorted(imported - used)}"


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class
    or the targets of an assignment; none for any other statement."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced(tree: ast.AST) -> set[str]:
    """Every name read, imported or looked up by attribute under
    ``tree``, and every string that is an identifier: perfbench's tracer
    finds the functions it wraps by name."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
    return out


@functools.cache
def _reached() -> frozenset:
    """The names the walk in the module docstring reaches.  A module-level
    import defines the name it binds, which leads to the name it imports."""
    roots = {"main"}
    for path in (p for d in BENCHMARKS for p in (ROOT / d).glob("*.py")):
        roots |= _referenced(ast.parse(path.read_text()))
    definitions: dict[str, list[ast.AST]] = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    definitions.setdefault(a.asname or a.name, []).append(a)
            elif names := _defined(node):
                for name in names:
                    definitions.setdefault(name, []).append(node)
            else:
                roots |= _referenced(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in definitions.get(name, ()):
                todo.extend(_referenced(node))
    return frozenset(reached)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_top_level_names(path):
    """Every top-level definition is reached from what the package runs;
    dunders are exempt."""
    names = {n for node in ast.parse(path.read_text()).body for n in _defined(node)
             if not (n.startswith("__") and n.endswith("__"))}
    unreached = sorted(names - _reached())
    assert not unreached, f"only tests reach {path.name}: {unreached}"


# Trace targets whose functions left the package, which the tracer
# reports absent: the engine's tuple format; the concrete block
# function that "combinators.certify" wraps, which certification
# stopped calling when it became one abstract block; and the traced
# reducer's searches and contractions, which moved to tests/traced.py
# with the rest of the oracle, and whose home module "asmlc.reduction"
# is gone.
RETIRED_TARGETS = {"engine.to_tuple", "engine.from_tuple", "combinators.certify",
                   "lambda_f.f_search", "lambda_f.f_contract",
                   "reduction.beta_search", "reduction.beta_contract"}


def _home(name: str):
    """The module ``name``, or None when there is none: the tracer
    reads a target in a module that is not loaded as absent."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise
        return None


def test_trace_targets_exist():
    """perfbench/tracing.py finds what it wraps by module and name, and
    perfbench/compare.py pairs runs by engine.KERNEL_NAME; read TARGETS
    from the source, without running the benchmark.  A target whose
    home module is gone is absent.  A retired target must really be
    gone, so the list hides no target that exists."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    missing, present, retired = [], [], set()
    for entry in targets.elts:
        name, home, attr = (ast.literal_eval(e) for e in entry.elts[:3])
        exists = callable(getattr(_home(home), attr, None))
        if name in RETIRED_TARGETS:
            retired.add(name)
            if exists:
                present.append(f"{home}.{attr}")
        elif not exists:
            missing.append(f"{home}.{attr}")
    assert not missing, f"trace targets missing: {missing}"
    assert not present, f"retired trace targets still exist: {present}"
    assert retired == RETIRED_TARGETS, f"not trace targets: {RETIRED_TARGETS - retired}"
    assert hasattr(importlib.import_module("asmlc.engine"), "KERNEL_NAME")


# The classes that keep @dataclass: they use dataclasses.replace, fields
# left out of ==, and an init=False field.  Every other decorated class
# costs about 1 ms of every start-up, spent writing its methods.
KEPT_DATACLASSES = {"CompiledCombinator", "CompiledMachine"}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass"
            or isinstance(node, ast.Attribute) and node.attr == "dataclass")


def test_only_the_kept_classes_are_dataclasses():
    decorated = {f"{path.name}:{node.name}"
                 for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ClassDef)
                 and any(map(_is_dataclass_decorator, node.decorator_list))}
    extra = sorted(d for d in decorated if d.split(":")[1] not in KEPT_DATACLASSES)
    assert not extra, f"classes that generate dataclass code at import: {extra}"


_VOC = Vocabulary(("Bool",), {})
# One factory and the repr a dataclass gave its instance, per class.
_CLASSES = [
    (lambda: Symbol("c", "dynamic", ("Nat",), "Nat", is_output=True),
     "Symbol(name='c', kind='dynamic', arg_sorts=('Nat',), result_sort='Nat', "
     "is_input=False, is_output=True)"),
    (lambda: Vocabulary(("Bool",), {}), "Vocabulary(sorts=('Bool',), symbols={})"),
    (lambda: TVar("x1", "Nat"), "TVar(name='x1', sort='Nat')"),
    (lambda: TApp("succ", (TVar("x1", "Nat"),)),
     "TApp(head='succ', args=(TVar(name='x1', sort='Nat'),))"),
    (lambda: State(_VOC, {"Bool": (True, False)}, {}, {}),
     "State(voc=Vocabulary(sorts=('Bool',), symbols={}), carriers={'Bool': (True, False)}, "
     "statics={}, dynamics={})"),
    (lambda: InitRule((1,), TVar("x1", "Nat")),
     "InitRule(sigma=(1,), term=TVar(name='x1', sort='Nat'))"),
    (Skip, "Skip()"),
    (HaltI, "HaltI()"),
    (FailI, "FailI()"),
    (lambda: Update("c", (), TApp("zero")),
     "Update(symbol='c', args=(), rhs=TApp(head='zero', args=()))"),
    (lambda: If(TApp("true"), HaltI()),
     "If(cond=TApp(head='true', args=()), then=HaltI(), orelse=Skip())"),
    (lambda: Par((HaltI(), FailI())), "Par(blocks=(HaltI(), FailI()))"),
    (lambda: Outcome("halt", outputs={"c": 0}),
     "Outcome(kind='halt', next_state=None, outputs={'c': 0}, reason=None)"),
    (lambda: RunResult(Outcome("diverged"), (), 3),
     "RunResult(outcome=Outcome(kind='diverged', next_state=None, outputs=None, "
     "reason=None), trajectory=(), steps=3)"),
    (lambda: Machine(_VOC, Skip(), {}),
     "Machine(voc=Vocabulary(sorts=('Bool',), symbols={}), program=Skip(), init={})"),
    (lambda: UpdateBranch(Const("true"), (Var("a"),), label="step"),
     "UpdateBranch(guard=Const(symbol='true'), updates=(Var(name='a'),), label='step')"),
    (lambda: ExitBranch(Const("true"), (Var("a"),)),
     "ExitBranch(guard=Const(symbol='true'), parts=(Var(name='a'),), tuple_form=False, "
     "label='')"),
    (lambda: Slot("f", "L_f", DeltaType("f", ("Nat",), "Nat")),
     "Slot(name='f', datatype='L_f', delta=DeltaType(name='f', arg_datatypes=('Nat',), "
     "result_datatype='Nat'))"),
    (lambda: Certificate(2, 21), "Certificate(paths=2, steps=21)"),
    (lambda: Translator(_VOC, {}, {}, set(), FSignature()),
     "Translator(voc=Vocabulary(sorts=('Bool',), symbols={}), init={}, slots={}, "
     "partials=set(), sig=FSignature(functions={}))"),
    (lambda: DecodedResult("fail"), "DecodedResult(kind='fail', values=None, outputs=None)"),
    (lambda: RoundRecord(1, 8, 7, "running", True),
     "RoundRecord(index=1, beta_count=8, f_count=7, kind='running', match=True, note='')"),
    (lambda: LockstepReport(8, 7, (), "halt", "success", "pass"),
     "LockstepReport(K=8, L=7, rounds=(), asm_outcome='halt', term_outcome='success', "
     "verdict='pass')"),
    (lambda: AuditRow("nat", "n=3", "1", "1", True),
     "AuditRow(name='nat', parameters='n=3', claimed='1', measured='1', match=True, note='')"),
    (lambda: FFunction(1, ("Int",), "Int", abs, "neg"),
     "FFunction(arity=1, arg_datatypes=('Int',), result_datatype='Int', "
     "fn=<built-in function abs>, name='neg')"),
    (FSignature, "FSignature(functions={})"),
    (lambda: DeltaType("f", ("Nat",), "Nat"),
     "DeltaType(name='f', arg_datatypes=('Nat',), result_datatype='Nat')"),
    (lambda: Clause(((TApp("true"), False),), (HaltI(),)),
     "Clause(literals=((TApp(head='true', args=()), False),), instructions=(HaltI(),))"),
    (lambda: GuardedProgram((TApp("true"),), ()),
     "GuardedProgram(conditions=(TApp(head='true', args=()),), clauses=())"),
    (lambda: Step("beta", ("fun",), Var("x")),
     "Step(kind='beta', address=('fun',), after=Var(name='x'))"),
    (lambda: Trace((Step("f", (), Var("x")),)),
     "Trace(steps=(Step(kind='f', address=(), after=Var(name='x')),))"),
    (lambda: ReduceResult(Var("x"), Trace(()), Status.NORMAL),
     "ReduceResult(term=Var(name='x'), trace=Trace(steps=()), status=<Status.NORMAL: 'normal'>)"),
    (lambda: Diagnostic(1, 2, "bad"), "Diagnostic(line=1, column=2, message='bad')"),
    (lambda: SortDecl("Nat", 0, 3), "SortDecl(name='Nat', lo=0, hi=3, elements=())"),
    (lambda: StaticDecl("stop", (), "Nat", ("input",)),
     "StaticDecl(name='stop', arg_sorts=(), result='Nat', impl=('input',))"),
    (lambda: DynamicDecl("c", (), "Nat", False),
     "DynamicDecl(name='c', arg_sorts=(), result='Nat', output=False)"),
    (lambda: InitDecl("c", ("x",), TVar("x", "Nat")),
     "InitDecl(name='c', params=('x',), term=TVar(name='x', sort='Nat'))"),
    (lambda: SourceMachine([], [], [], [], Skip()),
     "SourceMachine(sorts=[], statics=[], dynamics=[], inits=[], program=Skip())"),
    (lambda: _Tok("ident", "x", 1, 2), "_Tok(kind='ident', text='x', line=1, col=2)"),
    (lambda: _Ctx([], [], []), "_Ctx(sorts=[], statics=[], dynamics=[])"),
]
_IDS = [type(make()).__name__ for make, _ in _CLASSES]
MUTABLE_HELPERS = {"Translator", "FSignature", "SourceMachine", "_Tok", "_Ctx"}


def test_the_table_holds_every_converted_class():
    defined = {node.name for path in MODULES + [TRACED] for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef)}
    assert set(_IDS) <= defined and len(_IDS) == 40
    assert not KEPT_DATACLASSES & set(_IDS)


@pytest.mark.parametrize("make, expected", _CLASSES, ids=_IDS)
def test_class_keeps_repr_construction_equality_and_hash(make, expected):
    obj = make()
    assert repr(obj) == expected
    fields = obj.__match_args__
    values = tuple(getattr(obj, f) for f in fields)
    assert make() == obj == type(obj)(*values) == type(obj)(**dict(zip(fields, values)))
    assert obj != object()
    if type(obj).__name__ in MUTABLE_HELPERS:
        with pytest.raises(TypeError):
            hash(obj)
        return
    try:
        structural = hash(values)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == structural == hash(make())


@pytest.mark.parametrize("make, expected", _CLASSES, ids=_IDS)
def test_class_refuses_assignment_unless_a_mutable_helper(make, expected):
    obj = make()
    if type(obj).__name__ in MUTABLE_HELPERS:
        obj.extra = 1
        return
    for name in obj.__match_args__:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert repr(obj) == expected
