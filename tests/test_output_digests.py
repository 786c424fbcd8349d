"""`scripts/output_digests.py` lists the sha256 of every pinned benchmark output."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digests.py"


def test_curate_at_one_seed_lists_its_four_outputs():
    # one (workload, seed) round, as the script runs each in its own process
    done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), "--seeds", "1",
                           "--round", "curate", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["curate", "1", "filter/filtered.jsonl"], ["curate", "1", "filter/filter_report.json"],
        ["curate", "1", "tok/vocab.json"], ["curate", "1", "stats/stats_report.json"]]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[3]) for line in lines)
