"""``benchmarks/bench.py``'s summaries and its comparison of the sides,
on synthetic rows: a counter must repeat between rounds, and the sides
must agree on the work they share."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench import compare, summarize  # noqa: E402


def _row(seconds: float, kernel=(), cost=(), interp=()) -> dict:
    """One child's row, with ``kernel``, ``cost`` and ``interp`` pairs
    overriding the euclid kernel record, the euclid cost case and the
    interpreter record."""
    return {
        "package": "src/asmlc/__init__.py",
        "kernel": {"euclid": {"K": 8, "L": 7, "theta_sha256": "aa", "rounds": 482,
                              "steps": 7230, "nodes_built": 13978, "best_s": seconds,
                              **dict(kernel)}},
        "cost": {"euclid": {"K_min": 8, "L_min": 7, "theta_sha256": "bb",
                            "certify_steps": 21, "guard_order": ["fail", "halt", "clause-0"],
                            **dict(cost)}},
        "interp": {"agreed": 100, "runs": 4000, "steps": 124470, "loop_s": 10 * seconds,
                   **dict(interp)},
    }


def _side(**overrides) -> dict:
    return summarize([_row(s, **overrides) for s in (0.03, 0.02, 0.04)])


def test_summary_keeps_counters_and_quartiles_of_timings():
    side = _side()
    euclid = side["kernel"]["euclid"]
    assert euclid["steps"] == 7230 and "package" not in side
    assert euclid["best_s"]["median"] == 0.03
    assert euclid["steps_per_s"]["median"] == 241000
    assert side["interp"]["steps_per_s"]["median"] == 414900


def test_a_counter_that_drifts_between_rounds_raises():
    rows = [_row(0.03), _row(0.03, kernel={"nodes_built": 13979})]
    with pytest.raises(RuntimeError, match="nodes_built differs between rounds"):
        summarize(rows)


@pytest.mark.parametrize("change", [
    {"kernel": {"steps": 7229}},
    {"cost": {"certify_steps": 20}},
    {"interp": {"steps": 124471}},
], ids=["kernel-steps", "cost-counter", "interp-steps"])
def test_a_counter_that_differs_between_the_sides_exits(change):
    with pytest.raises(SystemExit) as exc:
        compare(_side(), _side(**change))
    key = next(iter(next(iter(change.values()))))
    assert key in str(exc.value.code)


@pytest.mark.parametrize("change, printed", [
    ({"nodes_built": 13000}, "nodes_built 13978 -> 13000"),
], ids=["kernel-nodes-built"])
def test_engine_work_that_differs_at_an_equal_theta_passes_and_prints(capsys, change, printed):
    """The nodes an engine builds for one θ are its own work, not θ's:
    an engine change may move them while θ's steps stay equal."""
    compare(_side(), _side(kernel=change))
    assert capsys.readouterr().out == f"kernel euclid: {printed}\n"


def test_a_moved_budget_passes_and_prints_both(capsys):
    """A θ with another (K, L) may take other steps and build other
    nodes, over the same rounds."""
    change = _side(kernel={"K": 9, "theta_sha256": "cc", "steps": 7712, "nodes_built": 12000})
    compare(_side(), change)
    assert capsys.readouterr().out == (
        "kernel euclid: (K, L) = (8, 7) at the parent, (9, 7) in the change\n")


def test_rounds_must_agree_whatever_the_budget():
    change = _side(kernel={"K": 9, "theta_sha256": "cc", "rounds": 483})
    with pytest.raises(SystemExit, match="482 rounds at the parent, 483 in the change"):
        compare(_side(), change)
