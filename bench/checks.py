"""Output checks: each returns a list of failures, empty when the output is right.

The checks take parsed outputs, so the tests in `tests/` can hand them
deliberately wrong ones.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

GRID_DROPOUTS = (0.0, 0.1)
GRID_LRS = (1e-6, 5e-6, 1e-5)
GRID_PRECISIONS = ("fp32", "fp16")
GRID_SEEDS = (41, 42, 43)
GRID_RUNS = len(GRID_DROPOUTS) * len(GRID_LRS) * len(GRID_PRECISIONS) * len(GRID_SEEDS)
CURATE_VOCAB = 512
STAGES = ("tld", "dedup", "near-dup", "quality")


def tiny_shapes(vocab: int) -> dict[str, tuple[int, ...]]:
    """Parameter shapes of the tiny preset: 4 layers, hidden 128, FFN 512,
    128 positions, relative window 32, conv kernel 3, 2 segments, 1 EMD layer."""
    h, f = 128, 512
    shapes = {"embed.tokens": (vocab, h), "embed.segments": (2, h), "embed.ln.gain": (h,),
              "embed.ln.bias": (h,), "relpos.table": (64, h), "abspos.table": (128, h),
              "conv.kernel": (3, h, h), "conv.bias": (h,)}
    for prefix in [f"layer{i}" for i in range(4)] + ["emd0"]:
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.attn.{w}"] = (h, h)
        for b in ("bq", "bk", "bv", "bo", "ln.gain", "ln.bias"):
            shapes[f"{prefix}.attn.{b}"] = (h,)
        shapes.update({f"{prefix}.ffn.w1": (h, f), f"{prefix}.ffn.b1": (f,), f"{prefix}.ffn.w2": (f, h),
                       f"{prefix}.ffn.b2": (h,), f"{prefix}.ffn.ln.gain": (h,), f"{prefix}.ffn.ln.bias": (h,)})
    return shapes


def check_pretrain(rows: list[dict], arrays: dict, *, steps: int, warmup: int, peak_lr: float,
                   vocab: int) -> list[str]:
    """rows: the loss log as dicts of floats; arrays: the reloaded final checkpoint."""
    errors = []
    if [int(r["step"]) for r in rows] != list(range(1, steps + 1)):
        errors.append(f"loss log steps {[r['step'] for r in rows][:5]}... are not 1..{steps}")
    for r in rows:
        want = ref.lr_at(int(r["step"]), warmup, steps, peak_lr)
        if r["lr"] != want:
            errors.append(f"step {int(r['step'])}: lr {r['lr']!r} != warmup/linear-decay {want!r}")
    losses = [r["loss"] for r in rows]
    if losses:
        if not abs(losses[0] - math.log(vocab)) <= 0.5:
            errors.append(f"first loss {losses[0]} is not within 0.5 of ln {vocab}")
        if not max(losses[-3:]) < losses[0]:
            errors.append(f"final losses {losses[-3:]} do not fall below the first {losses[0]}")
    shapes = tiny_shapes(vocab)
    if set(arrays) != set(shapes):
        errors.append(f"checkpoint tensors differ from the tiny preset: "
                      f"missing {sorted(set(shapes) - set(arrays))}, extra {sorted(set(arrays) - set(shapes))}")
    for name, arr in arrays.items():
        if name in shapes and tuple(arr.shape) != shapes[name]:
            errors.append(f"{name}: shape {tuple(arr.shape)} != {shapes[name]}")
        if not np.all(np.isfinite(arr)):
            errors.append(f"{name}: non-finite values")
    return errors


def _multiple_of(x, n: int) -> bool:
    return x is not None and abs(x * n - round(x * n)) < 1e-9


def check_sweep(report: dict, *, n_dev: int, n_test: int) -> list[str]:
    """report: the parsed metrics_report.json of a full-grid accuracy sweep."""
    errors = []
    runs = report["runs"]
    if len(runs) != GRID_RUNS:
        errors.append(f"{len(runs)} run records, expected {GRID_RUNS}")
    if len(report["configs"]) != GRID_RUNS // len(GRID_SEEDS):
        errors.append(f"{len(report['configs'])} config rows, expected {GRID_RUNS // len(GRID_SEEDS)}")
    ok = [r for r in sorted(runs, key=lambda r: r["index"]) if r["status"] == "ok"]
    rows = {(d, lr, p): [] for d in GRID_DROPOUTS for lr in GRID_LRS for p in GRID_PRECISIONS}
    for r in runs:
        key = (r["dropout"], r["lr"], r["precision"])
        if key not in rows:
            errors.append(f"run {r['index']} has a config {key} outside the grid")
    for r in ok:
        rows.get((r["dropout"], r["lr"], r["precision"]), []).append(r)
    for key, members in rows.items():
        seeds = sorted(r["seed"] for r in members)
        if seeds != list(GRID_SEEDS):
            errors.append(f"config {key} has seeds {seeds}, expected {list(GRID_SEEDS)}")
    for r in ok:
        if not _multiple_of(r["dev_score"], n_dev):
            errors.append(f"run {r['index']}: dev accuracy {r['dev_score']} is not a multiple of 1/{n_dev}")
        if not _multiple_of(r["test_score"], n_test):
            errors.append(f"run {r['index']}: test accuracy {r['test_score']} is not a multiple of 1/{n_test}")

    best_key, best_mean = None, None
    for key, members in rows.items():        # grid order; strict > keeps the earliest of tied rows
        if not members:
            continue
        mean = sum(r["dev_score"] for r in members) / len(members)
        if best_mean is None or mean > best_mean:
            best_key, best_mean = key, mean
    sel = report["selected_config"]
    got = None if sel is None else (sel["dropout"], sel["lr"], sel["precision"])
    if got != best_key:
        errors.append(f"selected {got}, but the argmax of dev means is {best_key}")
    elif best_key is not None:
        members = rows[best_key]
        want = sum(r["test_score"] for r in members) / len(members)
        if not math.isclose(report["reported_test_score"], want, rel_tol=1e-12, abs_tol=1e-12):
            errors.append(f"reported test score {report['reported_test_score']} != "
                          f"mean of the selected row's test scores {want}")
    return errors


def check_curate(report: dict, kept: list[dict], vocab_model: dict, stats: dict, expected) -> list[str]:
    """report/stats: parsed filter and stats reports; kept: filtered.jsonl rows;
    vocab_model: the trained vocab.json; expected: the generator's CurateCorpus."""
    errors = []
    stages = {s["name"]: s for s in report["stages"]}
    if [s["name"] for s in report["stages"]] != list(STAGES):
        errors.append(f"stages {[s['name'] for s in report['stages']]} != {list(STAGES)}")
    for stage in STAGES:
        got = stages.get(stage, {}).get("rejected")
        if got != expected.rejects[stage]:
            errors.append(f"stage {stage}: rejects {got} != planted {expected.rejects[stage]}")
    ids = [d["id"] for d in kept]
    if ids != expected.kept_ids:
        errors.append(f"kept ids are not the {len(expected.kept_ids)} expected survivors in input order "
                      f"({len(ids)} kept)")

    vocab, merges = vocab_model["vocab"], vocab_model["merges"]
    if len(vocab) != CURATE_VOCAB:
        errors.append(f"vocabulary has {len(vocab)} entries, expected {CURATE_VOCAB}")
    if sorted(vocab.values()) != list(range(len(vocab))):
        errors.append("vocabulary ids are not 0..n-1")
    missing = [a + b for a, b in merges if a + b not in vocab]
    if missing:
        errors.append(f"{len(missing)} merge outputs missing from the vocabulary, e.g. {missing[0]!r}")
    bpe = ref.BPE(vocab, merges)
    tokens = {}
    for doc in kept:
        try:
            ids_ = bpe.encode(doc["text"])
        except KeyError as e:
            errors.append(f"{doc['id']}: piece {e} not in the vocabulary")
            continue
        if bpe.decode(ids_) != ref.normalize(doc["text"]):
            errors.append(f"{doc['id']}: decode(encode(text)) does not reproduce the text")
        tokens[doc["source"]] = tokens.get(doc["source"], 0) + len(ids_)

    sources = stats["sources"]
    docs_per_source = {s: row["documents"] for s, row in sources.items()}
    if docs_per_source != expected.kept_per_source:
        errors.append(f"per-source documents {docs_per_source} != generated {expected.kept_per_source}")
    tokens_per_source = {s: row["tokens"] for s, row in sources.items()}
    if not missing and tokens_per_source != tokens:
        errors.append(f"per-source subword counts {tokens_per_source} != reference encoding {tokens}")
    return errors
