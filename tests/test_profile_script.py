"""`scripts/profile.py` runs one CLI call under the benchmark's tracer."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

from lusoforge import tokenizer as tok_mod
from lusoforge.checkpoint import save_checkpoint
from lusoforge.encoder import init_params, preset
from lusoforge.finetune import TASKS, attach_head, synthetic_task_examples, write_task_tsv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile.py"


def test_profile_of_a_tiny_eval_prints_the_block_table(tmp_path):
    rte = TASKS["rte"]
    examples = synthetic_task_examples(rte, 8, seed=3)
    tokenizer = tok_mod.train_tokenizer([e.sentence_a for e in examples], vocab_size=64)
    tok_mod.save_tokenizer(tokenizer, tmp_path / "vocab.json")
    write_task_tsv(examples, tmp_path / "data.tsv", rte)
    config = preset("micro", vocab_size=tokenizer.vocab_size)
    model = attach_head(config, init_params(config, np.random.default_rng(0)),
                        rte.head_type, seed=1)
    save_checkpoint(tmp_path / "ft.ckpt", model.config, model.params,
                    meta={"task": "rte", "head_type": rte.head_type})

    done = subprocess.run(
        [sys.executable, str(SCRIPT), "eval", "--task", "rte",
         "--checkpoint", str(tmp_path / "ft.ckpt"), "--tokenizer", str(tmp_path / "vocab.json"),
         "--data", str(tmp_path / "data.tsv"), "--seq-len", "32", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "eval_report.json").exists()
    rows = {line.split()[0]: float(line.split()[1])
            for line in done.stdout.splitlines()[1:]}
    assert rows["encoder.ffn.fwd_ms"] > 0.0
    assert rows["finetune.predict_examples"] == 8
    assert rows["optim.steps"] == 0
