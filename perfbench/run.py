"""asmlc benchmark: lockstep, certification and interpreter workloads.

    python3 perfbench/run.py --workload lockstep-euclid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # all three, one child process each

One closed-loop client, no threads: each case starts when the previous
one has finished.  Without ``--workload`` the workloads run one after
another, each in a process of its own, so that each reports its own
peak memory.  A run sets up ``SETUP_REPEATS`` times (import asmlc
from ``src/``, parse the ``.asm`` sources, generate the seeded inputs)
and reports the median as ``setup_s``.  It then runs whole passes over
the workload's cases, starting another pass only while it is expected
to end within ``--seconds``; at least one pass always runs.

Set-up and untraced passes run under ``calibrate.py``: their times
leave out the calibration slices and are scaled to reference seconds.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untraced pass, then one pass with every layer
wrapped (``tracing.py``), and reports the per-layer metrics of the
traced pass, its time, the tracing overhead (spans times the measured
cost of one wrapper) and the share of the traced time each layer's self
time covers.

Every output is checked against the references in ``reference.py``.
Deterministic counters must repeat exactly: across the cases and passes
of a run, and across earlier runs of the same code recorded in
``perfbench/out/runs.jsonl``.  A drift counts as a failed case.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import metrics as metric_spec
import tracing
import workloads
from calibrate import Calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
MODULES = ("asm", "compiler", "cosim", "engine", "normalize", "sourcefmt")
BUDGET = ("K", "L", "theta_nodes")  # per-compile values, equal on every case


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, foreign package)."""


def import_asmlc() -> SimpleNamespace:
    """Import a fresh copy of asmlc from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "asmlc" or n.startswith("asmlc.")]:
        del sys.modules[name]
    if not (SRC / "asmlc" / "__init__.py").is_file():
        raise BenchError(f"no asmlc package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"asmlc.{m}") for m in MODULES}
    if Path(sys.modules["asmlc"].__file__).resolve().parent != SRC / "asmlc":
        raise BenchError("asmlc was imported from outside this checkout")
    return SimpleNamespace(**mods)


def setup(wl_cls, seed: int):
    """(modules, workload, median set-up time in reference seconds)."""
    times = []
    with Calibration() as cal:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous repetition's modules are garbage now
            t0 = cal.clock()
            a = import_asmlc()
            wl = wl_cls()
            wl.setup(a, seed)
            times.append(cal.clock() - t0)
    return a, wl, statistics.median(times) * cal.factor


class Pass:
    """Measured seconds of one pass; ``factor`` turns them into reference
    seconds (1 when the pass ran without calibration)."""

    def __init__(self):
        self.factor = 1.0
        self.time = 0.0
        self.latencies: dict = {}  # case -> seconds
        self.compiles: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.counters: dict = {}


def _add_counters(total: dict, counters: dict, errors: list) -> None:
    for k, v in counters.items():
        if k in BUDGET:
            if total.setdefault(k, v) != v:
                errors.append(f"{k} drifted from {total[k]} to {v}")
        else:
            total[k] = total.get(k, 0) + v


def run_pass(wl, seen: dict, tracer=None, cal=None) -> Pass:
    """One timed pass over the cases; ``seen`` holds the counters of each
    case's first execution, which every later execution must repeat.
    Time spent in ``cal``'s slices is taken out of every case."""
    call = tracer.root if tracer else (lambda case, fn, *args: fn(*args))
    clock = wl.clock = cal.clock if cal else perf_counter
    p = Pass()
    compiled = len(wl.compile_times)
    t0 = clock()
    call("prelude", wl.prelude)
    p.time += clock() - t0
    _add_counters(p.counters, wl.prelude_counters(), p.errors)
    for case in wl.cases:
        t0 = clock()
        try:
            result = call(case, wl.run_case, case)
        except Exception:  # a case that raises is a failed case
            p.time += clock() - t0
            p.failed += 1
            p.errors.append(f"case {case!r} raised:\n{traceback.format_exc()}")
            continue
        dt = clock() - t0
        p.time += dt
        p.latencies[case] = dt
        errors, counters, steps = wl.check(case, result)
        if seen.setdefault(case, counters) != counters:
            errors.append(f"counters drifted from {seen[case]} to {counters}")
        _add_counters(p.counters, {**counters, "cases": 1, "machine_steps": steps}, errors)
        if errors:
            p.failed += 1
            p.errors.append(f"case {case!r}: " + "; ".join(errors))
    p.compiles = wl.compile_times[compiled:]
    return p


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(passes: list[Pass], setup_s: float, wl) -> dict:
    """Times in reference seconds (see calibrate.py); ``verdict_raw_s`` is
    the median pass in seconds as measured, and ``host_slowdown`` the
    median slice time over the reference, 1.0 at reference speed."""
    lat = [x * p.factor for p in passes for x in p.latencies.values()]
    compiles = [x * p.factor for p in passes for x in p.compiles]
    m = {
        "setup_s": setup_s,
        "verdict_s": _median([p.time * p.factor for p in passes]),
        "machine_steps_per_s": _median([p.counters.get("machine_steps", 0) / (p.time * p.factor)
                                        for p in passes]),
        "case_ms_p50": 1000 * _median(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": sum(p.failed for p in passes) / sum(len(wl.cases) for _ in passes),
        "verdict_raw_s": _median([p.time for p in passes]),
        "host_slowdown": _median([1 / p.factor for p in passes]),
    }
    if len(lat) >= 100:
        m["case_ms_p90"] = 1000 * statistics.quantiles(lat, n=10)[-1]
    if compiles:
        m["compile_s"] = _median(compiles)
    for k in BUDGET:
        if k in passes[0].counters:
            m[{"K": "budget_K", "L": "budget_L"}.get(k, k)] = passes[0].counters[k]
    return m


# ---------------------------------------------------------------------------
# Run records


def code_hash() -> str:
    h = hashlib.sha256()
    files = sorted([*SRC.rglob("*.py"), *(ROOT / "machines").glob("*.asm"),
                    *BENCH.glob("*.py"), *BENCH.glob("*.asm")])
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def environment(a) -> dict:
    return {"kernel": getattr(a.engine, "KERNEL_NAME", "absent"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def earlier_drift(record: dict) -> list[str]:
    """Counters of this run that differ from an earlier run of the same
    code on the same inputs."""
    path = OUT / "runs.jsonl"
    if not path.exists():
        return []
    drift = []
    for line in path.read_text().splitlines():
        old = json.loads(line)
        if (old["workload"], old["code"], old["inputs"]) != (
                record["workload"], record["code"], record["inputs"]):
            continue
        for key in ("counters", "trace_counts"):
            for k, v in record.get(key, {}).items():
                if k in old.get(key, {}) and old[key][k] != v:
                    drift.append(f"{k} = {v}, an earlier run (seed {old['seed']}) had {old[key][k]}")
    return sorted(set(drift))


def write_outputs(record: dict, wl, seen: dict, passes: list[Pass], tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}"
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    with open(OUT / f"cases-{stem}.jsonl", "w") as fh:
        for case in wl.cases:
            ms = [round(1000 * p.latencies[case], 4) for p in passes if case in p.latencies]
            fh.write(json.dumps({"case": case, "counters": seen.get(case), "ms": ms}) + "\n")
    if tracer is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wl_cls = workloads.WORKLOADS[name]
    a, wl, setup_s = setup(wl_cls, seed)
    seen: dict = {}
    passes: list[Pass] = []
    tracer = None
    if trace:
        passes.append(run_pass(wl, seen))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for src in wl.sources:
                tracer.root("setup", a.sourcefmt.parse_source, src.read_text(encoding="utf-8"))
            traced = run_pass(wl, seen, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
    else:
        while not passes or sum(p.time for p in passes) + _median(
                [p.time for p in passes]) <= seconds:
            with Calibration() as cal:
                passes.append(run_pass(wl, seen, cal=cal))
            passes[-1].factor = cal.factor

    counters = passes[0].counters
    errors = [e for p in passes for e in p.errors]
    failed = sum(p.failed for p in passes)
    for p in passes[1:]:
        if p.counters != counters:
            errors.append(f"pass counters drifted from {counters} to {p.counters}")
            failed += 1
    record = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
              "code": code_hash(), "inputs": seed if wl.seeded_counters else None,
              **environment(a), "passes": len(passes), "cases": len(wl.cases),
              "counters": counters}
    if "clauses" in counters:
        record["clause_tail"] = clause_tail(seen, passes[0])
    if trace:
        layer = tracer.layer_metrics(traced.time)
        layer["trace.verdict_s"] = traced.time
        layer["trace.overhead_s"] = tracer.overhead()
        layer["trace.accounted_share"] = sum(tracer.layer_shares(traced.time).values())
        record["trace_counts"] = {k: v for k, v in layer.items()
                                  if spec["units"].get(k) == "count"}
        record["absent"] = tracer.absent_metrics()
        mismatch = trace_consistency(traced, tracer)
        errors += mismatch
        failed += bool(mismatch)
        metrics = layer
    else:
        metrics = end_to_end(passes, setup_s, wl)
    drift = earlier_drift(record)
    if drift:
        errors += [f"counter drift against an earlier run: {d}" for d in drift]
        failed += 1
    record["metrics"] = metrics
    record["failed"] = failed
    write_outputs(record, wl, seen, passes, tracer)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    report(record, metrics, spec, errors)
    return {"correct": failed == 0,
            "attempted": sum(len(wl.cases) for _ in passes),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": spec["units"][k]} for k in wanted}}


def clause_tail(seen: dict, p: Pass) -> dict:
    """Programs and share of the pass time by clause count, in powers of
    two, so that a heavy tail shows when a seed draws one."""
    bins: dict = {}
    for case, dt in p.latencies.items():
        n = 1 << (seen[case]["clauses"] - 1).bit_length()
        count, t = bins.get(n, (0, 0.0))
        bins[n] = (count + 1, t + dt)
    return {str(n): [count, round(t / p.time, 4)] for n, (count, t) in sorted(bins.items())}


def trace_consistency(traced: Pass, tracer) -> list[str]:
    """Counts seen through the wrappers must equal the checked ones."""
    c, got = traced.counters, tracer.counts
    if "rounds" in c:
        want = {"cosim.rounds": c["rounds"], "engine.beta_steps": c["beta_steps"],
                "engine.f_steps": c["f_steps"]}
    else:
        want = {"normalize.clauses": c["clauses"], "asm.steps": c["machine_steps"]}
    return [f"traced {k} = {got[k]}, checked {v}" for k, v in want.items()
            if k not in tracer.absent_metrics() and got[k] != v]


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(record: dict, metrics: dict, spec: dict, errors: list) -> None:
    head = " ".join(f"{k}={record[k]}" for k in
                    ("workload", "seed", "trace", "kernel", "python", "nproc", "passes"))
    print(f"{head} cases/pass={record['cases']}")
    absent = set(record.get("absent", ()))
    for k, v in metrics.items():
        shown = "absent" if k in absent else _fmt(v)
        print(f"  {k:<30} {shown:>14} {spec['units'].get(k, '')}")
    print(f"  counters: {json.dumps(record['counters'])}")
    if "clause_tail" in record:
        print(f"  clauses <= n: [programs, share of pass time]: {json.dumps(record['clause_tail'])}")
    for e in errors[:20]:
        print(f"  ERROR {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              metric_spec.load())
    except (BenchError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a child process of its own, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            sys.stdout.write(child.stdout)
            return child.returncode
        *report_lines, result = child.stdout.splitlines()
        print("\n".join(report_lines), flush=True)
        results[name] = json.loads(result)
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {n: r["metrics"] for n, r in results.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
