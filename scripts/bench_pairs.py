"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seed0 S --out FILE [--seconds 30]

Pair i runs `bench/run.py --workload W --seed S+i --seconds ... --trace 0`
once in each checkout, as a fresh process started in that directory. Even
pairs run the parent first and odd pairs the change first, so a drift in
machine speed does not favour one side. Every run appends one JSON line to
FILE (side, pair, seed, return code, machine, and the run's own JSON line),
so several workloads can share one file. At the end it prints, for each
end-to-end metric of CHANGE_DIR/BENCHMARK.json, each side's median and
quartiles, the median change, and in how many pairs the change was better.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version()}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple[int, dict | None, str]:
    """(return code, the run's final JSON object or None, stderr tail)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr[-2000:]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records: list[dict], end_to_end: list[dict]) -> list[str]:
    by_pair: dict[int, dict[str, dict]] = {}
    for r in records:
        if r["result"] is not None:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    lines = [f"{len(pairs)} complete pairs; "
             f"correct: parent {sum(p['parent']['correct'] for p in pairs)}, "
             f"change {sum(p['change']['correct'] for p in pairs)}; "
             f"failed ops: parent {sum(p['parent']['failed'] for p in pairs)}, "
             f"change {sum(p['change']['failed'] for p in pairs)}"]
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        rows = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not rows:
            continue
        parent = quartiles([a for a, _ in rows])
        change = quartiles([b for _, b in rows])
        wins = sum((b < a) if lower else (b > a) for a, b in rows)
        gain = (change[1] - parent[1]) / parent[1] * 100 if parent[1] else float("nan")
        lines.append(
            f"{name:12s} parent {parent[1]:.4g} [{parent[0]:.4g}, {parent[2]:.4g}]  "
            f"change {change[1]:.4g} [{change[0]:.4g}, {change[2]:.4g}]  "
            f"median {gain:+.1f}%  change better in {wins}/{len(rows)} "
            f"({metric['better']} is better)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True, help="pair i runs with seed seed0 + i")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True, help="JSON-lines file to append to")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "bench" / "run.py").is_file():
            ap.error(f"{root} has no bench/run.py")
    end_to_end = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    host = machine()
    records = []
    with open(args.out, "a", encoding="utf-8") as out:
        for pair in range(args.pairs):
            seed = args.seed0 + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                code, result, err = run_side(sides[side], args.workload, seed, args.seconds)
                record = {"workload": args.workload, "pair": pair, "side": side, "seed": seed,
                          "seconds": args.seconds, "returncode": code, "machine": host,
                          "result": result}
                records.append(record)
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                status = "ok" if code == 0 and result is not None else f"exit {code}"
                print(f"pair {pair} {side}: {status}", file=sys.stderr)
                if status != "ok":
                    print(err, file=sys.stderr)
    print(f"{args.workload}: {args.pairs} alternating pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, {args.seconds:g} s each")
    for line in summarize(records, end_to_end):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
