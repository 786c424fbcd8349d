"""The verdicts `scripts/bench_pairs.py` prints for each end-to-end metric."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RATE = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def _records(parent: list[float], change: list[float], name: str,
             change_failed: int = 0) -> list[dict]:
    """Alternating pairs of runs, each reading `name` once per side; the
    change's run of the first pair fails `change_failed` operations."""
    out = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            failed = change_failed if (pair, side) == (0, "change") else 0
            out.append({"pair": pair, "side": side,
                        "result": {"correct": True, "failed": failed,
                                   "metrics": {name: {"value": value}}}})
    return out


def _verdict(parent, change, metric, change_failed=0):
    records = _records(parent, change, metric["name"], change_failed)
    lines = bench_pairs.summarize(records, [metric])
    assert lines[0].startswith(f"{len(parent)} complete pairs")
    return lines[1].rsplit(": ", 1)[1]


PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


@pytest.mark.parametrize("metric, parent, change, failed, want", [
    # 10/10 better, median +20 against a quartile spread of about 1.5
    (RATE, PARENT, [v + 20 for v in PARENT], 0, "claim met"),
    # 9/10 better is enough
    (RATE, PARENT, [v + 20 for v in PARENT[:9]] + [90], 0, "claim met"),
    # 8/10 better is not
    (RATE, PARENT, [v + 20 for v in PARENT[:8]] + [90, 90], 0, "within bound"),
    # always better, by less than the parent's spread
    (RATE, [90, 110] * 5, [91, 111] * 5, 0, "within bound"),
    # a gain does not count when the change fails more operations
    (RATE, PARENT, [v + 20 for v in PARENT], 1, "within bound"),
    # median 30% lower against a 25% bound
    (RATE, PARENT, [v * 0.7 for v in PARENT], 0, "worse"),
    # for a lower-is-better metric, 30% higher is worse and 20% lower a claim
    (WALL, PARENT, [v * 1.3 for v in PARENT], 0, "worse"),
    (WALL, PARENT, [v * 0.8 for v in PARENT], 0, "claim met"),
    # a parent spread wider than the bound cannot tell
    (RATE, [60, 140] * 5, [70, 150] * 5, 0, "unresolved"),
    # ... unless every change run beats every parent run
    (RATE, [60, 140] * 5, [141, 150] * 5, 0, "within bound"),
    # ... and a win by more than that spread is still a claim
    (RATE, [60, 140] * 5, [150, 240] * 5, 0, "claim met"),
], ids=["claim", "nine-of-ten", "eight-of-ten", "inside-spread", "more-failed", "worse",
        "wall-worse", "wall-claim", "unresolved", "wide-but-all-better", "wide-claim"])
def test_verdict(metric, parent, change, failed, want):
    assert _verdict(parent, change, metric, failed) == want


def test_pairs_missing_a_side_are_left_out():
    records = _records(PARENT, [v + 20 for v in PARENT], "items_per_s")
    records[1]["result"] = None  # the change's run of pair 0 failed
    lines = bench_pairs.summarize(records, [RATE])
    assert lines[0].startswith("9 complete pairs")
    assert "change better in 9/9" in lines[1] and lines[1].endswith(": claim met")
