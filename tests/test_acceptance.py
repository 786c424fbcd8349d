"""Acceptance gate: ten numbered end-to-end checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Each check recomputes its expected values from an independent oracle
(loop implementations, closed forms, byte comparisons) rather than trusting
the code under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_documents
from gradcheck import check_gradients
from oracles import relative_bucket

import lusoforge.cli as cli
from lusoforge import autodiff as ad
from lusoforge import corpus as corpus_mod
from lusoforge.autodiff import Tensor
from lusoforge.encoder import (
    DisentangledEncoder,
    EncoderConfig,
    disentangled_attention,
    disentangled_scores,
    init_params,
    preset,
)
from lusoforge.finetune import TASKS, full_grid, run_grid, synthetic_task_examples, write_task_tsv
from lusoforge.metrics import accuracy, f1_binary, pearson
from lusoforge.pretrain import TrainRunConfig, apply_mlm_masking, lr_at, train
from lusoforge.tokenizer import CLS, MASK, PAD, SEP, UNK, train_tokenizer


def report(num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPT {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


SPECIALS = frozenset((PAD, UNK, CLS, SEP, MASK))


# ---------------------------------------------------------------------------
# 01 gradient fidelity: every parameter tensor of the micro preset passes
# central finite differences (rel 1e-2, abs floor 1e-6) in under 2 minutes


def test_a01_gradient_fidelity():
    cfg = preset("micro", vocab_size=29)
    params = init_params(cfg, np.random.default_rng(np.random.SeedSequence(17)),
                         dtype=np.float64)
    model = DisentangledEncoder(cfg, params)
    rng = np.random.default_rng(3)
    ids = rng.integers(5, 29, size=(2, 10))
    labels = np.full((2, 10), -100, dtype=np.int64)
    labels[0, 2], labels[0, 5] = 7, 11
    labels[1, 3], labels[1, 6] = 21, 9
    mask = np.ones((2, 10), dtype=np.float64)
    mask[1, 8:] = 0.0  # include padded keys in the checked graph

    def loss_fn():
        logits = model.mlm_logits(ids, attn_mask=mask, rng=None)
        flat = ad.reshape(logits, (20, 29))
        return ad.cross_entropy(flat, labels.reshape(-1))

    t0 = time.time()
    res = check_gradients(loss_fn, params, rtol=1e-2, atol=1e-6)
    dt = time.time() - t0
    ok = res.passed and dt < 120.0
    report(1, "gradient-fidelity", ok,
           f"{res.checked} entries over {len(params)} tensors, "
           f"worst rel {res.worst_rel:.2e}, {dt:.1f}s")
    assert res.passed, res.summary()
    assert dt < 120.0


# ---------------------------------------------------------------------------
# 02 attention oracles: zeroed-P reduction within 1e-5 of plain attention at
# temperature sqrt(3*dh); score terms within 1e-6 of per-entry loop oracles


def loop_score_terms(Hd, Pd, wq, bq, wk, bk, nh, k):
    b, s, h = Hd.shape
    dh = h // nh
    Q = (Hd @ wq + bq).reshape(b, s, nh, dh).transpose(0, 2, 1, 3)
    K = (Hd @ wk + bk).reshape(b, s, nh, dh).transpose(0, 2, 1, 3)
    Qr = (Pd @ wq).reshape(2 * k, nh, dh).transpose(1, 0, 2)
    Kr = (Pd @ wk).reshape(2 * k, nh, dh).transpose(1, 0, 2)
    c2c = np.einsum("bnid,bnjd->bnij", Q, K)
    c2p = np.zeros_like(c2c)
    p2c = np.zeros_like(c2c)
    for i in range(s):
        for j in range(s):
            c2p[:, :, i, j] = np.sum(Q[:, :, i, :] * Kr[None, :, relative_bucket(i, j, k), :], axis=-1)
            p2c[:, :, i, j] = np.sum(K[:, :, j, :] * Qr[None, :, relative_bucket(j, i, k), :], axis=-1)
    return c2c, c2p, p2c


def test_a02_attention_oracles():
    cfg = EncoderConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                        vocab_size=23, max_seq_len=12, relative_window=3,
                        dropout_rate=0.0, emd_layers=1, conv_kernel_size=3)
    params = init_params(cfg, np.random.default_rng(np.random.SeedSequence(21)),
                         dtype=np.float64)
    rng = np.random.default_rng(8)
    b, s, h, nh, k = 2, 7, 8, 2, cfg.relative_window
    Hd = rng.normal(size=(b, s, h))
    Pd = rng.normal(size=(2 * k, h))
    H, P = Tensor(Hd), Tensor(Pd)
    mask = np.ones((b, s))

    c2c, c2p, p2c = disentangled_scores(H, P, params, "layer0", nh)
    pick = lambda name: params[f"layer0.attn.{name}"].data
    o_c2c, o_c2p, o_p2c = loop_score_terms(Hd, Pd, pick("wq"), pick("bq"),
                                           pick("wk"), pick("bk"), nh, k)
    term_err = max(np.max(np.abs(c2c.data - o_c2c)),
                   np.max(np.abs(c2p.data - o_c2p)),
                   np.max(np.abs(p2c.data - o_p2c)))

    # zeroed position table: the three-term sum collapses to plain content
    # attention at temperature sqrt(3*dh)
    ctx, _ = disentangled_attention(H, Tensor(np.zeros_like(Pd)), mask,
                                    params, "layer0", nh)
    dh = h // nh
    scores = o_c2c / math.sqrt(3 * dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    V = (Hd @ pick("wv") + pick("bv")).reshape(b, s, nh, dh).transpose(0, 2, 1, 3)
    o_ctx = (probs @ V).transpose(0, 2, 1, 3).reshape(b, s, h)
    red_err = np.max(np.abs(ctx.data - o_ctx))

    ok = term_err < 1e-6 and red_err < 1e-5
    report(2, "attention-oracles", ok,
           f"term err {term_err:.2e} < 1e-6, zeroed-P err {red_err:.2e} < 1e-5")
    assert term_err < 1e-6
    assert red_err < 1e-5


# ---------------------------------------------------------------------------
# 03 masking statistics: >=100k tokens, selection rate in [0.145, 0.155],
# mask/keep/randomize split within +-1.5 points of 80/10/10


def test_a03_masking_statistics():
    rng = np.random.default_rng(3)
    n = 120_000
    ids = rng.integers(5, 500, size=n)
    masked, labels = apply_mlm_masking(ids, SPECIALS, 0.15,
                                       np.random.default_rng(42), vocab_size=500)
    selected = labels != -100
    frac = float(selected.mean())
    sel = np.nonzero(selected)[0]
    to_mask = float((masked[sel] == MASK).mean())
    unchanged = float((masked[sel] == ids[sel]).mean())
    randomized = 1.0 - to_mask - unchanged
    ok = (0.145 <= frac <= 0.155
          and abs(to_mask - 0.80) <= 0.015
          and abs(unchanged - 0.10) <= 0.015
          and abs(randomized - 0.10) <= 0.015)
    report(3, "masking-statistics", ok,
           f"{n} tokens: rate {frac:.4f}, split "
           f"{to_mask:.3f}/{unchanged:.3f}/{randomized:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 04 schedule closed form: exact values at the published constants


def test_a04_schedule_exact():
    vals = (lr_at(0, 10_000, 200_000, 1e-5),
            lr_at(10_000, 10_000, 200_000, 1e-5),
            lr_at(200_000, 10_000, 200_000, 1e-5),
            lr_at(105_000, 10_000, 200_000, 1e-5))
    ok = vals == (0.0, 1e-5, 0.0, 5e-6)
    report(4, "schedule-closed-form", ok,
           "lr(0)=%g lr(warmup)=%g lr(total)=%g lr(midpoint)=%g" % vals)
    assert vals == (0.0, 1e-5, 0.0, 5e-6)


# ---------------------------------------------------------------------------
# 05 training sanity: tiny preset on 32 synthetic sentences reaches
# loss < ln(V) within 200 steps and < 0.3 within 2000; < 10 min


def test_a05_training_sanity():
    rng = np.random.default_rng(123)
    words = ["w%02d" % i for i in range(64)]
    sents = [" ".join(rng.choice(words, size=rng.integers(12, 20))) for _ in range(32)]
    tok = train_tokenizer(sents, vocab_size=256)
    config = TrainRunConfig(seed=7, preset="tiny", seq_len=64, micro_batch_size=8,
                            accumulation_steps=1, peak_lr=5e-4, warmup_steps=100,
                            total_steps=2000, dropout_rate=0.0, checkpoint_every=0)
    t0 = time.time()
    _, log = train(config, sents, tok)
    dt = time.time() - t0
    ln_v = math.log(tok.vocab_size)
    early = min(e.loss for e in log.entries if e.step <= 200)
    overall = min(e.loss for e in log.entries)
    ok = early < ln_v and overall < 0.3 and dt < 600.0
    report(5, "training-sanity", ok,
           f"vocab {tok.vocab_size}: min loss@200 {early:.3f} < ln(V)={ln_v:.3f}, "
           f"min loss@2000 {overall:.3f} < 0.3, {dt:.0f}s")
    assert early < ln_v
    assert overall < 0.3
    assert dt < 600.0


# ---------------------------------------------------------------------------
# 06 accumulation equivalence: 4x2 accumulated vs 1x8 large-batch match to
# < 1e-5 relative over the whole parameter vector after 5 optimizer steps


def test_a06_accumulation_equivalence():
    rng = np.random.default_rng(321)
    words = ["w%02d" % i for i in range(64)]
    sents = [" ".join(rng.choice(words, size=rng.integers(12, 20))) for _ in range(16)]
    tok = train_tokenizer(sents, vocab_size=128)
    base = dict(preset="micro", seq_len=32, peak_lr=5e-4, warmup_steps=2,
                total_steps=5, dropout_rate=0.0, checkpoint_every=0, seed=11)
    model_a, log_a = train(TrainRunConfig(micro_batch_size=2, accumulation_steps=4, **base),
                           sents, tok)
    model_b, log_b = train(TrainRunConfig(micro_batch_size=8, accumulation_steps=1, **base),
                           sents, tok)
    assert len(log_a) == len(log_b) == 5
    sq_diff = 0.0
    sq_ref = 0.0
    worst_abs = 0.0
    for k in model_a.params:
        d = model_a.params[k].data - model_b.params[k].data
        sq_diff += float(np.sum(d * d))
        sq_ref += float(np.sum(model_b.params[k].data ** 2))
        worst_abs = max(worst_abs, float(np.max(np.abs(d))))
    rel = math.sqrt(sq_diff) / math.sqrt(sq_ref)
    # key biases are gradient-free (softmax shift invariance), so per-tensor
    # relative ratios are meaningless there; the trajectory is compared as
    # one vector, with a tight absolute guard per entry
    ok = rel < 1e-5 and worst_abs < 1e-6
    report(6, "accumulation-equivalence", ok,
           f"5 steps: rel {rel:.2e} < 1e-5, worst abs {worst_abs:.2e} < 1e-6")
    assert rel < 1e-5
    assert worst_abs < 1e-6


# ---------------------------------------------------------------------------
# 07 grid protocol: the full sweep yields 36 records, 12 config rows,
# argmax-on-dev selection, and three-seed test averaging


def test_a07_grid_protocol():
    rte = TASKS["rte"]
    train_ex = synthetic_task_examples(rte, 16, seed=20)
    dev_ex = synthetic_task_examples(rte, 8, seed=21)
    test_ex = synthetic_task_examples(rte, 8, seed=22)
    corpus = [ex.sentence_a for ex in train_ex] + [ex.sentence_b for ex in train_ex]
    tok = train_tokenizer(corpus, vocab_size=128)
    cfg = preset("micro", vocab_size=tok.vocab_size)
    params = init_params(cfg, np.random.default_rng(np.random.SeedSequence(6)))
    t0 = time.time()
    rep = run_grid(cfg, params, rte, tok, train_ex, dev_ex, test_ex,
                   grid=full_grid(), seq_len=32, epochs=1, batch_size=16)
    dt = time.time() - t0

    n_records = len(rep.runs)
    n_rows = len(rep.configs)
    all_ok = all(r.status == "ok" for r in rep.runs)
    three_seeds = all(len(row.dev_scores) == 3 and len(row.test_scores) == 3
                      for row in rep.configs)
    by_key = {}
    for r in rep.runs:
        by_key.setdefault((r.dropout, r.lr, r.precision), []).append(r.seed)
    seeds_ok = all(sorted(v) == [41, 42, 43] for v in by_key.values())

    means = [row.dev_mean for row in rep.configs]
    best = rep.configs[int(np.argmax(means))]  # argmax takes the earliest tie
    sel_ok = rep.selected_config == {
        "dropout": best.dropout, "lr": best.lr, "precision": best.precision,
        "dev_mean": best.dev_mean,
    }
    avg_ok = rep.reported_test_score == pytest.approx(np.mean(best.test_scores))

    ok = (n_records == 36 and n_rows == 12 and all_ok and three_seeds
          and seeds_ok and sel_ok and avg_ok)
    report(7, "grid-protocol", ok,
           f"{n_records} records, {n_rows} rows, selected dev_mean "
           f"{best.dev_mean:.3f}, reported {rep.reported_test_score:.3f}, {dt:.1f}s")
    assert n_records == 36 and rep.n_failed == 0
    assert n_rows == 12 and three_seeds and seeds_ok
    assert sel_ok and avg_ok


# ---------------------------------------------------------------------------
# 08 metric oracles: brute-force agreement on 1000 random cases each within
# 1e-9, plus the fixed examples exactly


def brute_pearson(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx, dy = x - x.mean(), y - y.mean()
    return float(np.sum(dx * dy) / math.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def brute_f1(preds, golds):
    tp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(preds, golds) if p == 0 and g == 1)
    if tp == 0:
        return 0.0
    prec, rec = tp / (tp + fp), tp / (tp + fn)
    return 2 * prec * rec / (prec + rec)


def test_a08_metric_oracles():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        worst = max(worst, abs(pearson(list(x), list(y)) - brute_pearson(x, y)))
        preds = [int(v) for v in rng.integers(0, 2, size=n)]
        golds = [int(v) for v in rng.integers(0, 2, size=n)]
        worst = max(worst, abs(f1_binary(preds, golds) - brute_f1(preds, golds)))
        worst = max(worst, abs(accuracy(preds, golds)
                               - sum(p == g for p, g in zip(preds, golds)) / n))
    pinned = (pearson([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
              and f1_binary([1, 1, 0], [1, 0, 1]) == 0.5)  # TP=FP=FN=1
    ok = worst < 1e-9 and pinned
    report(8, "metric-oracles", ok,
           f"3000 brute comparisons, worst diff {worst:.2e}; pinned examples exact")
    assert worst < 1e-9
    assert pinned


# ---------------------------------------------------------------------------
# 09 corpus pipeline: golden per-source proportions plus TLD, dedup,
# idempotence, and order-stability properties


def test_a09_corpus_pipeline():
    docs = make_documents({"OSCAR": 15, "DCEP": 20, "Europarl": 31, "ParlamentoPT": 34})
    config = corpus_mod.PipelineConfig()
    kept, rep = corpus_mod.run_pipeline(docs, config)
    stats = corpus_mod.corpus_stats(kept, None)
    props = {s: stats.sources[s]["doc_proportion"] for s in stats.sources}
    props_ok = props == {"OSCAR": 0.15, "DCEP": 0.20, "Europarl": 0.31,
                         "ParlamentoPT": 0.34}

    # TLD filtering drops foreign hosts when a country code is set
    foreign = [replace(d, id=f"com-{i}", url=f"https://example.com/{i}")
               for i, d in enumerate(docs[:10])]
    kept_cc, _ = corpus_mod.run_pipeline(docs + foreign,
                                         corpus_mod.PipelineConfig(country_code="pt"))
    tld_ok = {d.id for d in kept_cc} == {d.id for d in docs}

    # exact duplicates keep only the first occurrence
    dup = replace(docs[0], id="dup-0000")
    kept_dup, _ = corpus_mod.run_pipeline(docs + [dup], config)
    dedup_ok = {d.id for d in kept_dup} == {d.id for d in docs}

    # running the pipeline on its own output changes nothing
    kept_again, _ = corpus_mod.run_pipeline(kept, config)
    idem_ok = [d.id for d in kept_again] == [d.id for d in kept]

    # input order does not affect the kept set, and output follows input order
    shuffled = [docs[i] for i in np.random.default_rng(5).permutation(len(docs))]
    kept_shuf, _ = corpus_mod.run_pipeline(shuffled, config)
    stable_ok = ({d.id for d in kept_shuf} == {d.id for d in kept}
                 and [d.id for d in kept_shuf]
                 == [d.id for d in shuffled if d.id in {x.id for x in kept}])

    ok = props_ok and tld_ok and dedup_ok and idem_ok and stable_ok
    report(9, "corpus-pipeline", ok,
           f"kept {rep.kept_count}/{rep.input_count}, proportions "
           + "/".join(f"{props[s]:.2f}" for s in ("OSCAR", "DCEP", "Europarl", "ParlamentoPT"))
           + f", tld {tld_ok}, dedup {dedup_ok}, idem {idem_ok}, stable {stable_ok}")
    assert props_ok, props
    assert tld_ok and dedup_ok and idem_ok and stable_ok


# ---------------------------------------------------------------------------
# 10 reproducibility: two identical CLI chains give byte-identical vocab,
# checkpoint, and report files


def run_chain(root, corpus_path, train_tsv, test_tsv):
    filt, tok, pre, sweep = (root / n for n in ("filter", "tok", "pre", "sweep"))
    assert cli.main(["corpus", "filter", "--input", str(corpus_path),
                     "--seed", "7", "--out", str(filt)]) == 0
    assert cli.main(["tokenizer", "train", "--input", str(filt / "filtered.jsonl"),
                     "--vocab-size", "160", "--seed", "7", "--out", str(tok)]) == 0
    assert cli.main(["pretrain", "--input", str(filt / "filtered.jsonl"),
                     "--tokenizer", str(tok / "vocab.json"), "--preset", "micro",
                     "--seq-len", "32", "--micro-batch-size", "4",
                     "--accumulation-steps", "1", "--peak-lr", "5e-4",
                     "--warmup-steps", "2", "--total-steps", "8",
                     "--dropout-rate", "0.0", "--checkpoint-every", "0",
                     "--seed", "7", "--out", str(pre)]) == 0
    assert cli.main(["sweep", "--task", "rte", "--checkpoint", str(pre / "model.ckpt"),
                     "--tokenizer", str(tok / "vocab.json"), "--train", str(train_tsv),
                     "--test", str(test_tsv), "--grid", "quick", "--epochs", "1",
                     "--batch-size", "8", "--seq-len", "32",
                     "--seed", "7", "--out", str(sweep)]) == 0
    return [filt / "filtered.jsonl", filt / "filter_report.json", tok / "vocab.json",
            pre / "model.ckpt", pre / "loss_log.csv", pre / "loss_curve.csv",
            pre / "loss_curve.svg", sweep / "metrics_report.json", sweep / "summary.csv"]


def test_a10_reproducibility(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_mod.write_jsonl(make_documents({"OSCAR": 12, "DCEP": 12}), corpus_path)
    rte = TASKS["rte"]
    train_tsv = tmp_path / "rte_train.tsv"
    test_tsv = tmp_path / "rte_test.tsv"
    write_task_tsv(synthetic_task_examples(rte, 24, seed=30), train_tsv, rte)
    write_task_tsv(synthetic_task_examples(rte, 8, seed=31), test_tsv, rte)

    files_1 = run_chain(tmp_path / "r1", corpus_path, train_tsv, test_tsv)
    files_2 = run_chain(tmp_path / "r2", corpus_path, train_tsv, test_tsv)
    mismatched = [a.name for a, b in zip(files_1, files_2)
                  if a.read_bytes() != b.read_bytes()]
    ok = not mismatched
    report(10, "reproducibility", ok,
           f"{len(files_1)} artifacts byte-compared"
           + (f"; mismatched: {mismatched}" if mismatched else ", all identical"))
    assert not mismatched
