"""Every name a module of the package or a test module imports is used
in that module, every name a module of the package defines at top level
is referred to somewhere, and every function the benchmark's tracer
wraps by name still exists."""
import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "asmlc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
# Where a reference counts: the package, its tests and both benchmarks.
SCANNED = ("src", "tests", "benchmarks", "perfbench")


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


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


@functools.cache
def _referenced() -> frozenset:
    """Every name read, imported or looked up by attribute in a scanned
    file, and every string that is an identifier: perfbench's tracer
    finds the functions it wraps by name."""
    out = set()
    for path in (p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and n.value.isidentifier():
                out.add(n.value)
    return frozenset(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_top_level_names(path):
    names = {n for n in _top_level_names(ast.parse(path.read_text()))
             if not (n.startswith("__") and n.endswith("__"))}
    unreferenced = sorted(names - _referenced())
    assert not unreferenced, f"nothing refers to {path.name}: {unreferenced}"


# Trace targets whose functions left the package, which the tracer
# reports absent: the engine's tuple format, and the concrete block
# function that "combinators.certify" wraps, which certification
# stopped calling when it became one abstract block.
RETIRED_TARGETS = {"engine.to_tuple", "engine.from_tuple", "combinators.certify"}


def test_trace_targets_exist():
    """perfbench/tracing.py finds what it wraps by module and name, and
    perfbench/compare.py pairs runs by engine.KERNEL_NAME; read TARGETS
    from the source, without running the benchmark.  A retired target
    must really be gone, so the list hides no target that exists."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    missing, present, retired = [], [], set()
    for entry in targets.elts:
        name, home, attr = (ast.literal_eval(e) for e in entry.elts[:3])
        exists = callable(getattr(importlib.import_module(home), attr, None))
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
