"""Each output check accepts a right output and fails on a deliberately wrong one."""

import copy
import math

import numpy as np
import pytest

import checks
import gen
import reference as ref

# ---------------------------------------------------------------------------
# pretrain-v8k


STEPS, WARMUP, PEAK, V = 10, 2, 1e-3, 8192


def good_pretrain():
    # lr written out from the closed form: peak*s/2 for s<=2, then peak*(10-s)/8
    lrs = [0.0005, 0.001, 0.000875, 0.00075, 0.000625, 0.0005, 0.000375, 0.00025, 0.000125, 0.0]
    losses = [9.0 - 0.1 * s for s in range(STEPS)]
    rows = [{"step": float(s), "epoch": 0.0, "lr": lr, "loss": loss, "ema_loss": loss}
            for s, lr, loss in zip(range(1, STEPS + 1), lrs, losses)]
    arrays = {n: np.zeros(s, dtype=np.float32) for n, s in checks.tiny_shapes(V).items()}
    return rows, arrays


def run_pretrain(rows, arrays):
    return checks.check_pretrain(rows, arrays, steps=STEPS, warmup=WARMUP, peak_lr=PEAK, vocab=V)


def test_reference_schedule_matches_closed_form():
    rows, _ = good_pretrain()
    assert [ref.lr_at(int(r["step"]), WARMUP, STEPS, PEAK) for r in rows] == pytest.approx(
        [r["lr"] for r in rows], rel=1e-15, abs=0)


def test_pretrain_accepts_good_output():
    assert run_pretrain(*good_pretrain()) == []


@pytest.mark.parametrize("mutate", [
    lambda rows, arrays: rows[4].update(lr=rows[4]["lr"] * (1 + 1e-9)),   # one lr perturbed
    lambda rows, arrays: rows.pop(),                                        # a step missing
    lambda rows, arrays: rows[0].update(loss=math.log(V) + 0.6),            # first loss far from ln V
    lambda rows, arrays: rows[-1].update(loss=rows[0]["loss"] + 0.01),      # last loss not below the first
    lambda rows, arrays: arrays["layer1.ffn.w1"].__setitem__((0, 0), np.nan),
    lambda rows, arrays: arrays.update({"embed.tokens": np.zeros((V - 1, 128), np.float32)}),
    lambda rows, arrays: arrays.pop("emd0.attn.wq"),
])
def test_pretrain_rejects_wrong_output(mutate):
    rows, arrays = good_pretrain()
    mutate(rows, arrays)
    assert run_pretrain(rows, arrays)


# ---------------------------------------------------------------------------
# sweep-grid


N_DEV, N_TEST = 5, 96
ROW_KEYS = [(d, lr, p) for d in checks.GRID_DROPOUTS for lr in checks.GRID_LRS for p in checks.GRID_PRECISIONS]


def good_sweep():
    """Rows 2 and 7 tie for the best dev mean (3/5 each); the earlier row wins."""
    dev = {i: [1, 2, 2] for i in range(12)}
    dev[2] = dev[7] = [3, 3, 3]
    runs = []
    for row, key in enumerate(ROW_KEYS):
        for j, seed in enumerate(checks.GRID_SEEDS):
            runs.append({"index": len(runs), "dropout": key[0], "lr": key[1], "precision": key[2],
                         "seed": seed, "status": "ok", "dev_score": dev[row][j] / N_DEV,
                         "test_score": (40 + row + j) / N_TEST, "best_epoch": 0, "error": ""})
    configs = [{"dropout": k[0], "lr": k[1], "precision": k[2]} for k in ROW_KEYS]
    test2 = [(40 + 2 + j) / N_TEST for j in range(3)]
    return {"task": "rte", "metric": "accuracy", "runs": runs, "configs": configs,
            "selected_config": {"dropout": 0.0, "lr": 5e-6, "precision": "fp32", "dev_mean": 0.6},
            "reported_test_score": sum(test2) / 3, "n_failed": 0}


def run_sweep(report):
    return checks.check_sweep(report, n_dev=N_DEV, n_test=N_TEST)


def test_sweep_accepts_good_output():
    assert ROW_KEYS[2] == (0.0, 5e-6, "fp32")
    assert run_sweep(good_sweep()) == []


def swap_selection(r):
    r["selected_config"].update(dropout=0.1, lr=5e-6, precision="fp16")   # the tied later row 7


@pytest.mark.parametrize("mutate", [
    swap_selection,
    lambda r: r.update(reported_test_score=r["reported_test_score"] + 1 / N_TEST),
    lambda r: r["runs"][5].update(dev_score=0.5),                           # not a multiple of 1/5
    lambda r: r["runs"][30].update(test_score=0.5 + 1e-6),
    lambda r: r["runs"].pop(),
    lambda r: r["runs"][4].update(seed=41),
    lambda r: r["configs"].pop(),
])
def test_sweep_rejects_wrong_output(mutate):
    report = good_sweep()
    mutate(report)
    assert run_sweep(report)


# ---------------------------------------------------------------------------
# curate


def good_curate():
    texts = ["uma casa velha", "o rio corre depressa", "casa nova no rio"]
    sources = ["OSCAR", "DCEP", "OSCAR"]
    kept = [{"id": f"cu-{i:05d}", "text": t, "source": s} for i, (t, s) in enumerate(zip(texts, sources))]
    expected = gen.CurateCorpus(rows=kept, kept_ids=[d["id"] for d in kept],
                                rejects=copy.deepcopy(gen.PLANTED),
                                kept_per_source={"OSCAR": 2, "DCEP": 1})
    report = {"stages": [{"name": s, "rejected": dict(r)} for s, r in gen.PLANTED.items()]}
    words = sorted({w for t in texts for w in t.split()})
    vocab = gen.build_vocab(words, checks.CURATE_VOCAB, np.random.default_rng(0))
    stats = {"sources": {"DCEP": {"documents": 1, "tokens": 4}, "OSCAR": {"documents": 2, "tokens": 7}}}
    return report, kept, vocab, stats, expected


def test_curate_accepts_good_output():
    assert checks.check_curate(*good_curate()) == []


def drop_vocab_entry(vocab):
    token = max(vocab["vocab"], key=vocab["vocab"].get)
    del vocab["vocab"][token]


def test_curate_rejects_wrong_output():
    cases = {
        "reject count off by one": lambda rep, kept, voc, st: rep["stages"][3]["rejected"].update(
            {"url-ratio": gen.PLANTED["quality"]["url-ratio"] - 1}),
        "tld reason renamed": lambda rep, kept, voc, st: rep["stages"][0]["rejected"].update(
            {"tld": 0}),
        "kept order swapped": lambda rep, kept, voc, st: kept.reverse(),
        "survivor dropped": lambda rep, kept, voc, st: kept.pop(),
        "vocabulary short": lambda rep, kept, voc, st: drop_vocab_entry(voc),
        "source count off": lambda rep, kept, voc, st: st["sources"]["DCEP"].update(documents=2),
        "subword count off": lambda rep, kept, voc, st: st["sources"]["OSCAR"].update(tokens=8),
    }
    for name, mutate in cases.items():
        report, kept, vocab, stats, expected = good_curate()
        mutate(report, kept, vocab, stats)
        assert checks.check_curate(report, kept, vocab, stats, expected), name
