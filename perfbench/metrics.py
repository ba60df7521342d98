"""The metrics that run.py reports and compare.py bounds."""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Printed and recorded next to BENCHMARK.json's end-to-end metrics, but not
# in it: not every workload has them, they read 0, or their spread across
# runs is too wide for a bound.  name -> (unit, better, bound); compare.py
# flags a metric that worsens by more than its bound and only prints one
# whose bound is None.
EXTRA = {
    # Euclid's median case sits where the 3-round and 4-round cases meet,
    # and doubling has 8 cases a pass: its ten-seed spread reached 0.24.
    "case_ms_p50": ("ms", "lower", None),
    "case_ms_p90": ("ms", "lower", 0.25),  # runs with at least 100 cases
    "compile_s": ("s", "lower", 0.25),  # lockstep workloads
    "budget_K": ("count", "lower", 0.0),
    "budget_L": ("count", "lower", 0.0),
    "theta_nodes": ("count", "lower", 0.0),
    "error_rate": ("share", "lower", 0.0),
    "verdict_raw_s": ("s", "lower", None),  # uncalibrated (calibrate.py)
    "host_slowdown": ("x", "lower", None),
}


def load() -> dict:
    """Names of BENCHMARK.json's metrics, and units and bounds of all."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    return {
        "end_to_end": [m["name"] for m in e2e],
        "per_layer": [m["name"] for m in layer],
        "units": {**{m["name"]: m["unit"] for m in e2e + layer},
                  **{k: unit for k, (unit, _, _) in EXTRA.items()}},
        "bounds": {**{m["name"]: (m["better"], m["bound"]) for m in e2e},
                   **{k: (better, bound) for k, (_, better, bound) in EXTRA.items()
                      if bound is not None}},
    }
