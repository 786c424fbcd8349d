"""Grid-search demo on a separable synthetic task.

Builds the marker-word entailment task, initializes a tiny encoder from
scratch, and sweeps a small custom grid. The canonical 36-point grid uses
learning rates sized for large pre-trained models (1e-6..1e-5); they barely
move a randomly initialized desk-scale net, so the demo grid runs at 1e-3
and 3e-4 instead. Pass --full to run the canonical grid anyway.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from lusoforge.encoder import init_params, preset
from lusoforge.finetune import (
    GRID_SEEDS,
    TASKS,
    GridPoint,
    full_grid,
    report_csv_summary,
    run_grid,
    synthetic_task_examples,
)
from lusoforge.tokenizer import train_tokenizer


def demo_grid() -> list[GridPoint]:
    return [GridPoint(d, lr, "fp32", s)
            for d in (0.0, 0.1) for lr in (1e-3, 3e-4) for s in GRID_SEEDS]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true", help="run the canonical 36-point grid")
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--out", type=Path, default=Path("runs/sweep_demo"))
    args = ap.parse_args()

    rte = TASKS["rte"]
    train_ex = synthetic_task_examples(rte, 128, seed=10)
    dev_ex = synthetic_task_examples(rte, 32, seed=11)
    test_ex = synthetic_task_examples(rte, 32, seed=12)
    corpus = [ex.sentence_a for ex in train_ex] + [ex.sentence_b for ex in train_ex]
    tokenizer = train_tokenizer(corpus, vocab_size=128)

    cfg = preset("tiny", vocab_size=tokenizer.vocab_size)
    params = init_params(cfg, np.random.default_rng(np.random.SeedSequence(5)))

    grid = full_grid() if args.full else demo_grid()
    t0 = time.time()
    rep = run_grid(cfg, params, rte, tokenizer, train_ex, dev_ex, test_ex,
                   grid=grid, seq_len=32, epochs=args.epochs, batch_size=16)
    dt = time.time() - t0

    print(f"{len(rep.runs)} runs over {len(rep.configs)} configs in {dt:.0f}s "
          f"({rep.n_failed} failed)")
    print("dropout  lr       precision  dev_mean  test_mean")
    for row in rep.configs:
        print(f"{row.dropout:<8g} {row.lr:<8g} {row.precision:<10} "
              f"{row.dev_mean if row.dev_mean is not None else float('nan'):<9.4f} "
              f"{row.test_mean if row.test_mean is not None else float('nan'):.4f}")
    print(f"selected: {rep.selected_config}")
    print(f"reported test {rep.metric}: {rep.reported_test_score}")

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "metrics_report.json").write_text(rep.to_json(), encoding="utf-8")
    summary = report_csv_summary([(rep.task, rep.reported_test_score)], "tiny-demo")
    (args.out / "summary.csv").write_text(summary, encoding="utf-8")
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
