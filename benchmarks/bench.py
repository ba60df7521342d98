"""Every benchmark of asmlc, written to one record.

    python3 benchmarks/bench.py [--parent-src PATH] [--json BENCH_package.json]

Each round runs ``measure`` in a fresh child process that imports asmlc
from one checkout's ``src`` (``checkouts.py``), ``ROUNDS`` children of
each side.  With ``--parent-src`` the children alternate between this
checkout ("change") and the parent's, in an order that flips every
round, so drift in the machine's load falls on both sides alike.  Both
sides read this checkout's ``machines/`` and ``tests/``.  A child
returns these sections:

- ``kernel``: the reduction engine on the bundled machines, one
  ``engine.advance_term(t, cm.sig, K + L, cm.theta_free)`` call per
  machine step, as lockstep makes it but with no round memo, so every
  round is reduced.  euclid runs every input pair in 1..``GRID`` under
  one compile; doubling runs its stops 1..8 under one compile, each
  bound by ``CompiledMachine.with_inputs``, ``DOUBLING_REPS`` times
  over, since one pass is far shorter than euclid's.  Compiling,
  binding, building the initial terms and decoding are not timed;
- ``lockstep_grid``: what ``asmlc verify --grid 12`` does on euclid,
  ``cosim.lockstep`` on every input pair under one compile, with its
  round memo.  Each timing starts from a fresh compile, so none reads a
  memo an earlier one filled.  It counts the engine runs (calls of
  ``engine._advance``) and the decodes (of ``decode_result`` as
  ``cosim`` binds it), one per distinct round, against the rounds;
- ``verify_doubling``: ``asmlc verify machines/doubling.asm --grid 8``
  through ``cli.main``, and the theta builds it makes (calls of the
  ``build_branch_combinator`` that ``asmlc.compiler`` binds);
- ``certify_wide7``: a compile of ``conftest.wide(7)``, a ``par`` of
  seven guarded increments whose certificate has 129 paths that share
  long prefixes;
- ``interp``: the loop of the Tier-1 test
  ``test_acceptance.py::test_08_normalizer_run_equivalence`` on its
  corpus (seed 1108, 20 two-counter states, 100 programs of depth at
  most 4): each program is normalized and checked against its normal
  form on the 20 states, 200 steps at most, and the runs (4,000) and
  their interpreter steps are counted;
- ``cost``: the per-step budget of every bundled machine at the inputs
  ``conftest.BUNDLED_COSTS`` pins, of ``counter_family(n)`` for n in
  1..5, of ``tests/halves.asm`` at start 0 and of wide-7: (K_min,
  L_min), theta's nodes, the branches in guard order, the cost split of
  L (F-work per branch and padding), and what certifying took, in
  engine steps (at ``combinators._advance``), paths and calls of the
  F-redex walk made during ``combinators.certify``.  The
  ``random-1108`` record compiles the 120 machines of
  ``conftest.random_machines``, which ``test_random_programs_lockstep``
  runs, each at its minima, and holds the largest K+L and the sums.

A timing is the best of ``REPEAT`` passes (``_s`` keys), except the
interpreter loop, which runs once.  Every kernel, lockstep, verify and
certify record also counts, in one more untimed pass, the
substitutions (calls of ``engine._subst`` from outside it, as
``engine`` and ``combinators`` bind it) and the share whose
replacements are all closed (``asmlc.engine``'s docstring,
"Substitution"); a kernel record also counts F-search visits, the nodes
with ``const`` and outside the F-redex-free memo that
``engine._Reducer._contract`` is called on, and the ``App`` and ``Abs``
nodes built.  Every record that compiles keeps ``theta_sha256``, the
SHA-256 of the printed theta (``syntax.print_term``; a cost record
hashes theta and template, random-1108 all 120 of them).

After the children, the parent process times start-up, ``STARTUP_RUNS``
rounds of three commands per side, each its own process's wall clock:
``python3 -c pass``, importing ``asmlc.cli``, and ``asmlc compile
machines/euclid.asm``.  One more process per side counts, while it
imports ``asmlc.cli``, the classes ``dataclasses`` processes (about 1
ms each), the ``asmlc`` modules loaded and their source lines.

``summarize`` turns each side's rounds into one record: every timing
into its median and quartiles, with the rate it gives in steps or
rounds per second, and every other value, a counter, must repeat
exactly between rounds.  ``compare`` then exits non-zero where the
sides disagree on work they must share: a record's rounds always; every
counter that theta fixes (steps, rounds, certificate paths and the
rest) of a record whose theta is the same on both sides; and the
interpreter's counts.  The engine's work on an equal theta
(``ENGINE_WORK``: nodes built, F-search visits, their per-step ratios,
substitutions, their closed share and the certificate's contract
calls) may differ, and is printed as parent -> change where it does.
Where a record's budget differs, it prints both.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

import checkouts

sys.path.insert(0, str(checkouts.ROOT / "tests"))

MACHINES = checkouts.ROOT / "machines"
ROUNDS = 11  # children of each side
REPEAT = 5  # passes of each timing in a child
GRID = 12
DOUBLING_STOPS = range(1, 9)
# At (K, L) = (8, 11) one pass over the doubling stops takes about
# 0.003 s (Python 3.11, 2 CPUs), so ten take about as long as euclid's.
DOUBLING_REPS = 10
COUNTERS = range(1, 6)
# test_08's corpus (module docstring)
INTERP_SEED, INTERP_STATES, INTERP_PROGRAMS = 1108, 20, 100
INTERP_DEPTH, INTERP_MAX_STEPS = 4, 200
STARTUP_RUNS = 21
# What the engine spends on a θ, not what θ fixes: at an equal
# theta_sha256 an engine change may move these, and compare prints them
ENGINE_WORK = ("nodes_built", "f_search_visits", "visits_per_step", "nodes_built_per_step",
               "substitutions", "closed_share", "certify_contract_calls")
STARTUP = {
    "python_pass_s": ["-c", "pass"],
    "import_cli_s": ["-c", "import asmlc.cli"],
    "compile_euclid_s": ["-c", "import sys; from asmlc.cli import main; sys.exit(main())",
                         "compile", str(MACHINES / "euclid.asm")],
}
# Run in a fresh process: the import counts of the module docstring.
IMPORT_COUNTS = """
import dataclasses, json, os, sys
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
cache = os.path.join(os.path.dirname(asmlc.__file__), "__pycache__")
print(json.dumps({"dataclasses_processed": len(names), "dataclasses": names,
                  "asmlc_modules": len(modules), "asmlc_source_lines": lines,
                  "bytecode_cached": os.path.isdir(cache)}))
"""


def _load(name: str):
    from asmlc.sourcefmt import parse_source
    return parse_source((MACHINES / f"{name}.asm").read_text(encoding="utf-8"))


def _theta_sha256(cm) -> str:
    from asmlc.syntax import print_term
    return hashlib.sha256(print_term(cm.theta).encode()).hexdigest()


def _timed(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _best(fn, *args) -> float:
    return min(_timed(fn, *args)[0] for _ in range(REPEAT))


@contextlib.contextmanager
def _wrapped(wrap, name: str, *owners):
    """Replace attribute ``name`` of every one of ``owners`` (all bound
    to the same function) by ``wrap(function)`` while the block runs."""
    fn = getattr(owners[0], name)
    wrapped = wrap(fn)
    for owner in owners:
        setattr(owner, name, wrapped)
    try:
        yield
    finally:
        for owner in owners:
            setattr(owner, name, fn)


def _counter(counts: dict, key: str):
    """A wrap for ``_wrapped`` that counts the calls in ``counts[key]``."""
    counts[key] = 0

    def wrap(fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call
    return wrap


@contextlib.contextmanager
def counting_substitutions():
    """Yield a dict that counts, while the block runs, the substitutions
    and the share of them with closed replacements (module docstring)."""
    from asmlc import combinators, engine
    counts = {"substitutions": 0}
    closed = depth = 0

    def wrap(subst):
        def counted(t, env):
            nonlocal closed, depth
            if not depth:
                counts["substitutions"] += 1
                closed += not any(r.fv for r in env.values())
            depth += 1
            try:
                return subst(t, env)
            finally:
                depth -= 1
        return counted

    with _wrapped(wrap, "_subst", engine, combinators):
        yield counts
    counts["closed_share"] = round(closed / counts["substitutions"], 4)


# ---------------------------------------------------------------------------
# kernel, lockstep_grid, verify_doubling and certify_wide7


def _kernel_cases() -> dict:
    """machine name -> list of (compiled machine, initial term)."""
    from asmlc.compiler import compile_machine
    euclid = _load("euclid")
    cm = compile_machine(euclid.machine(), euclid.state({"a0": 1, "b0": 1}))
    out = {"euclid": [(cm, cm.initial_term(euclid.state({"a0": a, "b0": b})))
                      for a in range(1, GRID + 1) for b in range(1, GRID + 1)]}
    doubling = _load("doubling")
    cm = compile_machine(doubling.machine(), doubling.state({}))
    once = []
    for stop in DOUBLING_STOPS:
        state = doubling.state({"stop": stop})
        inst = cm.with_inputs(state)
        once.append((inst, inst.initial_term(state)))
    out["doubling"] = once * DOUBLING_REPS
    return out


def _run(cases) -> tuple[int, int]:
    """(engine steps, machine steps) over every trajectory."""
    from asmlc.engine import STATUS_RAN, advance_term
    steps = rounds = 0
    for cm, t in cases:
        budget = cm.K + cm.L
        status = STATUS_RAN
        while status == STATUS_RAN:
            t, beta, f, status = advance_term(t, cm.sig, budget, cm.theta_free)
            steps += beta + f
            rounds += 1
    return steps, rounds


def _count_work(cases) -> dict:
    """F-search visits, nodes built and substitutions over every
    trajectory, in one untimed pass (module docstring)."""
    from asmlc import engine
    from asmlc.terms import Abs, App
    counts = {"f_search_visits": 0, "nodes_built": 0}

    def visiting(contract):
        def walk(self, t):
            if t.const and id(t) not in self.f_free:
                counts["f_search_visits"] += 1
            return contract(self, t)
        return walk

    def building(init):
        def build(self, *args):
            counts["nodes_built"] += 1
            init(self, *args)
        return build

    with _wrapped(visiting, "_contract", engine._Reducer), \
            _wrapped(building, "__init__", App), _wrapped(building, "__init__", Abs), \
            counting_substitutions() as substitutions:
        _run(cases)
    return {**counts, **substitutions}


def kernel() -> dict:
    from asmlc.terms import term_size
    out = {}
    for name, cases in _kernel_cases().items():
        times, counts = zip(*(_timed(_run, cases) for _ in range(REPEAT)))
        if len(set(counts)) > 1:
            raise RuntimeError(f"{name}: step counts drifted between passes: {counts}")
        (steps, rounds), cm, work = counts[0], cases[0][0], _count_work(cases)
        out[name] = {"K": cm.K, "L": cm.L, "theta_nodes": term_size(cm.theta),
                     "theta_sha256": _theta_sha256(cm), "trajectories": len(cases),
                     "rounds": rounds, "steps": steps, "best_s": min(times), **work,
                     "visits_per_step": round(work["f_search_visits"] / steps, 2),
                     "nodes_built_per_step": round(work["nodes_built"] / steps, 2)}
    return out


def lockstep_grid() -> dict:
    from asmlc import cosim, engine
    from asmlc.compiler import compile_machine
    euclid = _load("euclid")
    machine = euclid.machine()
    base = euclid.state({"a0": 1, "b0": 1})
    states = [euclid.state({"a0": a, "b0": b})
              for a in range(1, GRID + 1) for b in range(1, GRID + 1)]

    def one_pass(cm) -> int:
        rounds = 0
        for s in states:
            rep = cosim.lockstep(machine, cm, s)
            if not rep.passed:
                raise RuntimeError(f"lockstep {rep.verdict} from {s.dynamics}")
            rounds += len(rep.rounds)
        return rounds

    best = min(_timed(one_pass, compile_machine(machine, base))[0] for _ in range(REPEAT))
    cm, calls = compile_machine(machine, base), {}
    with _wrapped(_counter(calls, "engine_runs"), "_advance", engine), \
            _wrapped(_counter(calls, "decode_calls"), "decode_result", cosim), \
            counting_substitutions() as substitutions:
        rounds = one_pass(cm)
    return {"theta_sha256": _theta_sha256(cm), "cases": len(states), "rounds": rounds,
            **calls, **substitutions, "best_s": best}


def verify_doubling() -> dict:
    from asmlc import cli, compiler
    argv = ["verify", str(MACHINES / "doubling.asm"), "--grid", "8"]
    built = []

    def verify() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"verify exited with {code}")

    def keeping(build):
        def call(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        return call

    with _wrapped(keeping, "build_branch_combinator", compiler), \
            counting_substitutions() as substitutions:
        verify()
    return {"theta_sha256": _theta_sha256(built[0]), "theta_builds": len(built),
            **substitutions, "best_s": _best(verify)}


def certify_wide7() -> dict:
    from asmlc.compiler import compile_machine
    from conftest import wide
    machine, state = wide(7)
    with counting_substitutions() as substitutions:
        cm = compile_machine(machine, state)
    return {"theta_sha256": _theta_sha256(cm), "K": cm.K, "L": cm.L,
            "certify_paths": cm.certificate.paths, "certify_steps": cm.certificate.steps,
            **substitutions, "best_s": _best(compile_machine, machine, state)}


# ---------------------------------------------------------------------------
# interp and cost


def interp() -> dict:
    """Time test_08's loop once, then count its runs and steps."""
    from asmlc.asm import run_from_state
    from asmlc.normalize import check_equivalence, normalize, to_program
    from conftest import counter_state, counter_vocabulary, random_program
    rng = random.Random(INTERP_SEED)
    voc = counter_vocabulary()
    states = [counter_state(voc, rng.randrange(5), rng.randrange(5))
              for _ in range(INTERP_STATES)]
    programs = [random_program(rng, INTERP_DEPTH) for _ in range(INTERP_PROGRAMS)]
    loop_s, agreed = _timed(lambda: sum(
        check_equivalence(p, to_program(normalize(p)), states, INTERP_MAX_STEPS)
        for p in programs))
    runs = steps = 0
    for p in programs:
        for form in (p, to_program(normalize(p))):
            for s in states:
                runs += 1
                steps += run_from_state(s, form, INTERP_MAX_STEPS).steps
    return {"agreed": agreed, "runs": runs, "steps": steps, "loop_s": loop_s}


def _counted_compile(machine, state):
    """Compile, and count certification's engine steps and the calls of
    the F-redex walk while ``combinators.certify`` runs."""
    from asmlc import combinators, engine
    from asmlc.compiler import compile_machine
    counts = {"steps": 0, "contracts": 0}
    certifying = False

    def stepping(advance):
        def call(*args, **kwargs):
            out = advance(*args, **kwargs)
            counts["steps"] += out[1] + out[2]
            return out
        return call

    def flagging(certify):
        def call(*args, **kwargs):
            nonlocal certifying
            certifying = True
            try:
                return certify(*args, **kwargs)
            finally:
                certifying = False
        return call

    def walking(contract):
        def walk(self, t):
            counts["contracts"] += certifying
            return contract(self, t)
        return walk

    with _wrapped(stepping, "_advance", combinators), \
            _wrapped(flagging, "certify", combinators), \
            _wrapped(walking, "_contract", engine._Reducer):
        cm = compile_machine(machine, state)
    return cm, counts["steps"], counts["contracts"]


def _hash_terms(digest, cm) -> None:
    from asmlc.syntax import print_term
    for t in (cm.theta, cm.template):
        digest.update(print_term(t).encode() + b"\n")


def _random_record() -> dict:
    from asmlc.terms import term_size
    from conftest import RANDOM_PROGRAMS, RANDOM_SEED, counter_state, counter_vocabulary, \
        random_machines
    state = counter_state(counter_vocabulary(), 0, 0)
    sums = dict.fromkeys(("K_plus_L", "L", "theta_nodes", "certify_steps",
                          "certify_contract_calls"), 0)
    largest = None
    digest = hashlib.sha256()
    for i, machine in enumerate(random_machines()):
        cm, steps, contracts = _counted_compile(machine, state)
        _hash_terms(digest, cm)
        for key, value in (("K_plus_L", cm.K + cm.L), ("L", cm.L),
                           ("theta_nodes", term_size(cm.theta)), ("certify_steps", steps),
                           ("certify_contract_calls", contracts)):
            sums[key] += value
        if largest is None or cm.K + cm.L > largest["K_plus_L"]:
            largest = {"index": i, "K": cm.K, "L": cm.L, "K_plus_L": cm.K + cm.L}
    return {"seed": RANDOM_SEED, "programs": RANDOM_PROGRAMS, "largest": largest, "sum": sums,
            "theta_sha256": digest.hexdigest()}


def cost() -> dict:
    from asmlc.terms import term_size
    from conftest import BUNDLED_COSTS, bundled, counter_family, halves, wide
    cases = {}
    for name, (inputs, _) in BUNDLED_COSTS.items():
        sm = bundled(name)
        cases[name] = (sm.machine(), sm.state(inputs))
    for n in COUNTERS:
        cases[f"counter-{n}"] = counter_family(n)
    cases["halves"] = (halves().machine(), halves().state({"start": 0}))
    cases["wide-7"] = wide(7)
    out = {}
    for name, (machine, state) in cases.items():
        cm, steps, contracts = _counted_compile(machine, state)
        m = cm.manifest()
        digest = hashlib.sha256()
        _hash_terms(digest, cm)
        out[name] = {"K_min": m["K_min"], "L_min": m["L_min"],
                     "theta_nodes": term_size(cm.theta), "branches": m["branches"],
                     "guard_order": m["guard_order"], "F_branches": m["cost"]["F_branches"],
                     "pad_L": m["cost"]["pad_L"], "certify_steps": steps,
                     "certify_paths": cm.certificate.paths,
                     "certify_contract_calls": contracts, "theta_sha256": digest.hexdigest()}
    out["random-1108"] = _random_record()
    return out


def measure() -> dict:
    """Every section of one side, measured in this process."""
    import asmlc
    return {"package": asmlc.__file__, "kernel": kernel(), "lockstep_grid": lockstep_grid(),
            "verify_doubling": verify_doubling(), "certify_wide7": certify_wide7(),
            "interp": interp(), "cost": cost()}


# ---------------------------------------------------------------------------
# start-up, summaries and the comparison of the sides


def startup(sides: dict[str, Path]) -> dict[str, list[dict]]:
    """Side label -> one row of the start-up timings per round."""
    def run(src, argv) -> float:
        return _timed(checkouts.run_python, src, argv)[0]

    for src in sides.values():  # warm the file cache, untimed
        for argv in STARTUP.values():
            run(src, argv)
    rows: dict[str, list[dict]] = {label: [] for label in sides}
    for label, src in checkouts.alternate(sides, STARTUP_RUNS):
        rows[label].append({key: run(src, argv) for key, argv in STARTUP.items()})
    return rows


def summarize(rows: list[dict]) -> dict:
    """One record from the rounds' rows: every timing (an ``_s`` key)
    becomes the median and quartiles over the rounds, with the rate it
    gives in the record's steps or rounds per second, and every other
    value must repeat exactly."""
    first, out = rows[0], {}
    for key, value in first.items():
        values = [r[key] for r in rows]
        if key.endswith("_s"):
            out[key] = checkouts.quartiles(values)
            work = next((w for w in ("steps", "rounds") if w in first), None)
            if work is not None:
                out[f"{work}_per_s"] = checkouts.quartiles([first[work] / t for t in values], 0)
        elif isinstance(value, dict):
            out[key] = summarize(values)
        elif key != "package":
            if any(v != value for v in values):
                raise RuntimeError(f"{key} differs between rounds: {values}")
            out[key] = value
    return out


def _records(side: dict, where: str = ""):
    """(name, record) for every record of a summarized side: a dict
    that holds some value other than a dict.  Timings (``_s`` keys) are
    part of their record."""
    for key, value in side.items():
        if isinstance(value, dict) and not key.endswith("_s"):
            if all(isinstance(v, dict) for v in value.values()):
                yield from _records(value, f"{where}{key} ")
            else:
                yield f"{where}{key}", value


def _agree(name: str, parent: dict, change: dict, free=()) -> None:
    """Exit non-zero where the sides' counters differ, except the keys
    in ``free``, which are printed as parent -> change instead."""
    differ = {key: (parent.get(key), value) for key, value in change.items()
              if not key.endswith("_s") and parent.get(key) != value}
    for key in free:
        if key in differ:
            print(f"{name}: {key} {differ[key][0]} -> {differ.pop(key)[1]}")
    if differ:
        sys.exit(f"{name}: the sides differ, (parent, change) {differ}")


def compare(parent: dict, change: dict) -> None:
    """Exit non-zero where the summarized sides disagree on work they
    must share, and print the engine's work where it moved (module
    docstring)."""
    parents = dict(_records(parent))
    for name, c in _records(change):
        p = parents.get(name)
        if p is None or "theta_sha256" not in c:
            continue
        if p.get("rounds") != c.get("rounds"):
            sys.exit(f"{name}: {p.get('rounds')} rounds at the parent, "
                     f"{c.get('rounds')} in the change")
        budget = [tuple(r[k] for k in ("K", "L", "K_min", "L_min") if k in r) for r in (p, c)]
        if budget[0] != budget[1]:
            print(f"{name}: (K, L) = {budget[0]} at the parent, {budget[1]} in the change")
        elif p["theta_sha256"] == c["theta_sha256"]:
            _agree(name, p, c, ENGINE_WORK)
    _agree("interp", parent["interp"], change["interp"])


def _print(label: str, side: dict) -> None:
    """One line per record: its timings' medians and quartiles and its
    counters, leaving out digests and lists, which only the JSON keeps."""
    for name, record in _records(side):
        print(f"{label:>7} {name}: " + ", ".join(
            f"{key} {value['median']:,} ({value['q1']:,}-{value['q3']:,})"
            if key.endswith("_s") else f"{key} {value}"
            for key, value in record.items()
            if key != "theta_sha256" and not isinstance(value, list)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent-src", type=Path, metavar="PATH",
                    help="a parent checkout's src directory, run in turn with this one's")
    ap.add_argument("--json", type=Path, help="write the record to this file")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure()))
        return

    sides = checkouts.sides(args.parent_src)
    found: dict[str, list[dict]] = {label: [] for label in sides}
    for label, src in checkouts.alternate(sides, ROUNDS):
        row = json.loads(checkouts.run_python(src, [__file__, "--child"]).splitlines()[-1])
        if Path(row["package"]).resolve().parent.parent != src:
            sys.exit(f"{label}: asmlc was imported from {row['package']}, not {src}")
        found[label].append(row)
        print(f"{label:>7}: kernel euclid {row['kernel']['euclid']['best_s']:.4f} s, "
              f"doubling {row['kernel']['doubling']['best_s']:.4f} s, "
              f"lockstep grid {row['lockstep_grid']['best_s']:.4f} s, "
              f"verify doubling {row['verify_doubling']['best_s']:.4f} s, "
              f"certify wide-7 {row['certify_wide7']['best_s']:.4f} s, "
              f"interp {row['interp']['loop_s']:.2f} s", flush=True)
    timed = startup(sides)
    record = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "rounds": ROUNDS, "repeat": REPEAT, "euclid_grid": GRID,
              "doubling_stops": [DOUBLING_STOPS[0], DOUBLING_STOPS[-1]],
              "doubling_reps": DOUBLING_REPS, "startup_runs": STARTUP_RUNS,
              "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
              "sides": {}}
    for label, src in sides.items():
        side = record["sides"][label] = summarize(found[label])
        side["startup"] = {**summarize(timed[label]),
                           **json.loads(checkouts.run_python(src, ["-c", IMPORT_COUNTS]))}
        _print(label, side)
    if "parent" in sides:
        parent, change = record["sides"]["parent"], record["sides"]["change"]
        compare(parent, change)
        parents = dict(_records(parent))
        record["change_over_parent"] = ratios = {
            f"{name} {key}": round(value["median"] / parents[name][key]["median"], 3)
            for name, row in _records(change) for key, value in row.items()
            if key.endswith("_s") and key in parents.get(name, {})}
        print("change / parent medians: " + ", ".join(f"{k} {r:.3f}" for k, r in ratios.items()))
    if args.json:
        args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
