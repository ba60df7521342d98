"""Summarize benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py RUNS.jsonl             # one set: medians, spreads, layer shares
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl   # two sets: regressions and changed counters

RUNS files are the ``perfbench/out/runs.jsonl`` that ``run.py`` appends
to.  A metric's spread is the distance between the first and third
quartiles of its runs over their median.  A comparison flags a metric
whose new median is worse than the base median by more than its bound,
and calls it unresolved when the base spread is wider than the bound.
On a workload whose inputs depend on the seed it compares only the
seeds that both sets ran, and skips the workload when they share none.
It refuses to pair runs on the compiled kernel with runs on the
pure-Python one, and exits 1 when a regression is flagged.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import metrics


def load(path: str) -> dict:
    """(workload, trace) -> list of run records."""
    groups = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def stats(values: list[float]) -> tuple[float, float]:
    """(median, spread)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def kernels(groups: dict) -> set:
    return {r["kernel"] for runs in groups.values() for r in runs}


def summarize(groups: dict) -> dict:
    out = {}
    for (workload, trace), runs in sorted(groups.items()):
        row = {}
        for k in runs[0]["metrics"]:
            med, spread = stats([r["metrics"][k] for r in runs if k in r["metrics"]])
            row[k] = {"median": round(med, 6), "spread": round(spread, 4)}
        out[f"{workload} trace={trace}"] = {
            **{k: sorted({r[k] for r in runs}) for k in ("code", "kernel", "python", "nproc")},
            "seeds": [r["seed"] for r in runs],
            "counters": runs[0]["counters"],
            "metrics": row,
        }
    return out


def compare(base: dict, new: dict) -> int:
    kb, kn = kernels(base), kernels(new)
    if ("compiled" in kb | kn) and kb != kn:
        print(f"refused: kernels differ (base {sorted(kb)}, new {sorted(kn)})")
        return 2
    limits = metrics.load()["bounds"]
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        runs_b, runs_n = base[key], new[key]
        if any(r["inputs"] is not None for r in runs_b + runs_n):
            shared = {r["inputs"] for r in runs_b} & {r["inputs"] for r in runs_n}
            runs_b = [r for r in runs_b if r["inputs"] in shared]
            runs_n = [r for r in runs_n if r["inputs"] in shared]
            if not shared:
                print(f"{workload} trace={trace}: skipped, the sets share no seed")
                continue
        print(f"{workload} trace={trace}: {len(runs_b)} base runs, {len(runs_n)} new runs")
        for k, (better, bound) in limits.items():
            b = [r["metrics"][k] for r in runs_b if k in r["metrics"]]
            n = [r["metrics"][k] for r in runs_n if k in r["metrics"]]
            if trace or not b or not n:
                continue
            (bm, bs), (nm, ns) = stats(b), stats(n)
            change = nm - bm if better == "lower" else bm - nm
            worse = change / bm if bm else (float("inf") if change > 0 else 0.0)
            verdict = "ok"
            if worse > bound:
                verdict = "unresolved" if bs > bound else "REGRESSION"
                regressions += verdict == "REGRESSION"
            print(f"  {k:<22} base {bm:.6g} (spread {bs:.3f})  new {nm:.6g} "
                  f"(spread {ns:.3f})  worse by {worse:+.3f} of base, bound {bound}: {verdict}")
        counts = "trace_counts" if trace else "counters"
        old_by_inputs = {json.dumps(r["inputs"]): r[counts] for r in runs_b}
        changed = set()
        for r in runs_n:
            old = old_by_inputs.get(json.dumps(r["inputs"]), {})
            changed |= {(k, old[k], v) for k, v in r[counts].items() if k in old and old[k] != v}
        for k, was, now in sorted(changed):
            print(f"  counter {k}: {was} -> {now}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        print(json.dumps(summarize(load(argv[0])), indent=1))
        return 0
    if len(argv) == 2:
        return compare(load(argv[0]), load(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
