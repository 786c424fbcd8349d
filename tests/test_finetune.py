"""Fine-tuning harness: task specs, splits, the 36-point grid, reports."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import task_forward_reference

import lusoforge.finetune as ft
from lusoforge import tokenizer as tok_mod
from lusoforge.checkpoint import load_checkpoint, save_checkpoint
from lusoforge.encoder import init_params, param_shapes, preset
from lusoforge.errors import DataError
from lusoforge.finetune import (
    GRID_SEEDS,
    TASKS,
    ConfigRow,
    GridPoint,
    RunRecord,
    TaskExample,
    TaskSpec,
    attach_head,
    finetune,
    full_grid,
    group_runs,
    load_task_model,
    metric_fn,
    predict,
    read_task_tsv,
    report_csv_summary,
    run_grid,
    select_config,
    split_train_dev,
    synthetic_task_examples,
    write_task_tsv,
)
from lusoforge.metrics import accuracy, f1_binary, pearson


# ---------------------------------------------------------------------------
# shared fixtures: a separable toy task plus a tokenizer trained on it

RTE = TASKS["rte"]
STS = TASKS["sts"]


@pytest.fixture(scope="module")
def task_train():
    return synthetic_task_examples(RTE, 128, seed=10)


@pytest.fixture(scope="module")
def task_dev():
    return synthetic_task_examples(RTE, 32, seed=11)


@pytest.fixture(scope="module")
def task_tokenizer(task_train):
    corpus = [ex.sentence_a for ex in task_train] + [ex.sentence_b for ex in task_train]
    return tok_mod.train_tokenizer(corpus, vocab_size=128)


@pytest.fixture(scope="module")
def task_micro(task_tokenizer):
    cfg = preset("micro", vocab_size=task_tokenizer.vocab_size)
    params = init_params(cfg, np.random.default_rng(np.random.SeedSequence(6)))
    return cfg, params


@pytest.fixture(scope="module")
def small_splits():
    train = synthetic_task_examples(RTE, 16, seed=20)
    dev = synthetic_task_examples(RTE, 8, seed=21)
    test = synthetic_task_examples(RTE, 8, seed=22)
    return train, dev, test


@pytest.fixture(scope="module")
def grid_report(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, test = small_splits
    grid = [GridPoint(0.0, 1e-3, "fp32", s) for s in (41, 42, 43)]
    return run_grid(cfg, params, RTE, task_tokenizer, train, dev, test,
                    grid=grid, seq_len=32, epochs=1, batch_size=16)


def encode_all(tokenizer, examples, seq_len=32):
    return [tok_mod.encode_pair(tokenizer, ex.sentence_a, ex.sentence_b, seq_len)
            for ex in examples]


# ---------------------------------------------------------------------------
# task table


def test_tasks_table():
    assert set(TASKS) == {"sts", "stsb", "rte", "wnli", "mrpc"}
    assert TASKS["sts"].head_type == "regression"
    assert TASKS["sts"].metric == "pearson"
    assert TASKS["sts"].label_range == (1.0, 5.0)
    assert TASKS["stsb"].label_range == (0.0, 5.0)
    assert TASKS["rte"].metric == "accuracy"
    assert TASKS["wnli"].metric == "accuracy"
    assert TASKS["mrpc"].metric == "f1"
    for spec in TASKS.values():
        assert spec.head_type in ("regression", "binary_classification")


def test_taskspec_rejects_incompatible_metric():
    with pytest.raises(ValueError, match="incompatible"):
        TaskSpec("bad", "regression", "accuracy")
    with pytest.raises(ValueError, match="incompatible"):
        TaskSpec("bad", "binary_classification", "pearson")


def test_metric_fn_dispatch():
    assert metric_fn(TASKS["sts"]) is pearson
    assert metric_fn(TASKS["rte"]) is accuracy
    assert metric_fn(TASKS["mrpc"]) is f1_binary


# ---------------------------------------------------------------------------
# tsv io


def test_tsv_round_trip_regression(tmp_path):
    examples = [
        TaskExample("o gato dorme", "um animal dorme", 4.25),
        TaskExample("chove muito", "faz sol", 1.0),
        TaskExample("a casa azul", "a casa azul", 5.0),
    ]
    path = tmp_path / "sts.tsv"
    write_task_tsv(examples, path, STS)
    back = read_task_tsv(path, STS)
    assert [(e.sentence_a, e.sentence_b, e.label) for e in back] == [
        (e.sentence_a, e.sentence_b, e.label) for e in examples
    ]


def test_tsv_round_trip_classification(tmp_path):
    examples = [
        TaskExample("sim claro", "ok", 1.0),
        TaskExample("nada disso", "ok", 0.0),
    ]
    path = tmp_path / "rte.tsv"
    write_task_tsv(examples, path, RTE)
    back = read_task_tsv(path, RTE)
    assert [e.label for e in back] == [1.0, 0.0]


def test_tsv_requires_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\t1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        read_task_tsv(path, STS)


def test_tsv_field_count_error(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sentence_a\tsentence_b\tlabel\nonly two fields\there\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        read_task_tsv(path, STS)


def test_tsv_class_label_must_be_binary(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sentence_a\tsentence_b\tlabel\na\tb\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match="0 or 1"):
        read_task_tsv(path, RTE)


def test_tsv_regression_label_validation(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sentence_a\tsentence_b\tlabel\na\tb\t7.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="outside"):
        read_task_tsv(path, STS)
    path.write_text("sentence_a\tsentence_b\tlabel\na\tb\tmuito\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad regression label"):
        read_task_tsv(path, STS)


def test_tsv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_task_tsv(tmp_path / "absent.tsv", STS)


def test_tsv_sanitizes_tabs_and_newlines(tmp_path):
    examples = [TaskExample("com\ttab", "com\nquebra", 3.0)]
    path = tmp_path / "sts.tsv"
    write_task_tsv(examples, path, STS)
    back = read_task_tsv(path, STS)
    assert back[0].sentence_a == "com tab"
    assert back[0].sentence_b == "com quebra"
    assert back[0].label == 3.0


def test_tsv_skips_blank_lines(tmp_path):
    path = tmp_path / "rte.tsv"
    path.write_text("sentence_a\tsentence_b\tlabel\na\tb\t1\n\nc\td\t0\n", encoding="utf-8")
    back = read_task_tsv(path, RTE)
    assert len(back) == 2


# ---------------------------------------------------------------------------
# train/dev split


def make_examples(n):
    return [TaskExample(f"frase {i}", f"par {i}", float(i % 2)) for i in range(n)]


def test_split_100_gives_90_10():
    train, dev = split_train_dev(make_examples(100), dev_fraction=0.1, seed=0)
    assert (len(train), len(dev)) == (90, 10)


def test_split_71_gives_64_7():
    train, dev = split_train_dev(make_examples(71), dev_fraction=0.1, seed=0)
    assert (len(train), len(dev)) == (64, 7)


def test_split_dev_never_empty():
    train, dev = split_train_dev(make_examples(5), dev_fraction=0.1, seed=0)
    assert (len(train), len(dev)) == (4, 1)


def test_split_deterministic_per_seed():
    a1, d1 = split_train_dev(make_examples(50), seed=3)
    a2, d2 = split_train_dev(make_examples(50), seed=3)
    assert [e.sentence_a for e in d1] == [e.sentence_a for e in d2]
    assert [e.sentence_a for e in a1] == [e.sentence_a for e in a2]
    _, d3 = split_train_dev(make_examples(50), seed=4)
    assert [e.sentence_a for e in d1] != [e.sentence_a for e in d3]


def test_split_partitions_and_relabels():
    examples = make_examples(37)
    train, dev = split_train_dev(examples, dev_fraction=0.2, seed=9)
    got = sorted((e.sentence_a, e.sentence_b, e.label) for e in train + dev)
    want = sorted((e.sentence_a, e.sentence_b, e.label) for e in examples)
    assert got == want


def test_split_needs_two_examples():
    for n in (0, 1):
        with pytest.raises(DataError, match="at least 2"):
            split_train_dev(make_examples(n))


def test_split_fraction_range():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="dev_fraction"):
            split_train_dev(make_examples(10), dev_fraction=bad)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 200), frac=st.floats(0.02, 0.95), seed=st.integers(0, 50))
def test_split_sizes_property(n, frac, seed):
    train, dev = split_train_dev(make_examples(n), dev_fraction=frac, seed=seed)
    assert len(dev) == max(1, int(n * frac))
    assert len(train) + len(dev) == n
    names = {e.sentence_a for e in train} | {e.sentence_a for e in dev}
    assert len(names) == n


# ---------------------------------------------------------------------------
# grid protocol


def test_full_grid_is_36_points():
    grid = full_grid()
    assert len(grid) == 36
    assert len(set(grid)) == 36
    keys = [(gp.dropout, gp.lr, gp.precision) for gp in grid]
    assert len(set(keys)) == 12
    for key in set(keys):
        seeds = [gp.seed for gp, k in zip(grid, keys) if k == key]
        assert sorted(seeds) == [41, 42, 43]
    assert set(gp.dropout for gp in grid) == {0.0, 0.1}
    assert set(gp.lr for gp in grid) == {1e-6, 5e-6, 1e-5}
    assert set(gp.precision for gp in grid) == {"fp32", "fp16"}
    assert GRID_SEEDS == (41, 42, 43)


def test_grid_order_is_stable():
    grid = full_grid()
    assert grid[0] == GridPoint(0.0, 1e-6, "fp32", 41)
    assert grid[1] == GridPoint(0.0, 1e-6, "fp32", 42)
    assert grid[-1] == GridPoint(0.1, 1e-5, "fp16", 43)
    assert grid == full_grid()  # regeneration yields the same order


def test_grid_point_frozen():
    gp = GridPoint(0.0, 1e-6, "fp32", 41)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gp.lr = 1.0


# ---------------------------------------------------------------------------
# task model assembly


def test_attach_head_output_shapes(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    encoded = encode_all(task_tokenizer, small_splits[1][:3])
    for head_type, out_dim in (("regression", 1), ("binary_classification", 2)):
        model = attach_head(cfg, params, head_type, dropout=0.0, seed=7)
        assert model.slice(0)["head.w"].shape == (cfg.hidden_size, out_dim)
        assert np.array_equal(model.slice(0)["head.b"], np.zeros(out_dim, dtype=np.float32))
        ids, segs, mask = ft._pad_batch(encoded)
        out = model.forward(ids, segs, mask, rng=None)
        assert out.data[0].shape == (3, out_dim)


def test_attach_head_seeded_init(task_micro):
    cfg, params = task_micro
    m1 = attach_head(cfg, params, "binary_classification", seed=7)
    m2 = attach_head(cfg, params, "binary_classification", seed=7)
    assert np.array_equal(m1.params["head.w"].data, m2.params["head.w"].data)
    expected = np.random.default_rng(np.random.SeedSequence([7, 77])).normal(
        0.0, 0.02, size=(cfg.hidden_size, 2)
    ).astype(np.float32)
    assert np.array_equal(m1.slice(0)["head.w"], expected)
    m3 = attach_head(cfg, params, "binary_classification", seed=8)
    assert not np.array_equal(m1.params["head.w"].data, m3.params["head.w"].data)


def test_attach_head_copies_encoder_params(task_micro):
    cfg, params = task_micro
    model = attach_head(cfg, params, "regression", seed=0)
    name = next(iter(params))
    assert np.array_equal(model.slice(0)[name], params[name].data)
    before = params[name].data.copy()
    model.params[name].data += 1.0
    assert np.array_equal(params[name].data, before)


def test_attach_head_sets_dropout(task_micro):
    cfg, params = task_micro
    before = cfg.dropout_rate
    model = attach_head(cfg, params, "regression", dropout=0.3, seed=0)
    assert model.config.dropout_rate == 0.3
    assert cfg.dropout_rate == before  # source config untouched


def test_task_model_carries_encoder_only(task_micro):
    cfg, params = task_micro
    model = attach_head(cfg, params, "binary_classification", seed=0)
    assert not [k for k in model.params if k.startswith(("abspos.", "emd"))]
    schema = param_shapes(cfg, "binary_classification")
    assert list(model.params) == list(schema)
    assert {k: a.shape for k, a in model.slice(0).items()} == schema


def task_batch(vocab_size, s, seed=0):
    """ids, segments and mask [3, s]; the second row is padded after the CLS
    position and the third after position s // 2."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, vocab_size, size=(3, s))
    segs = (np.arange(s) >= s // 2).astype(np.int64)[None, :].repeat(3, axis=0)
    mask = np.ones((3, s), dtype=np.float32)
    mask[1, 1:] = 0.0
    mask[2, s // 2 + 1:] = 0.0
    return ids, segs, mask


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("s", [1, 2, 17])
def test_task_model_matches_the_full_encoder_reference(dtype, tol, num_layers, s):
    cfg = preset("micro", num_layers=num_layers)
    params = init_params(cfg, np.random.default_rng(2), dtype=dtype)
    model = attach_head(cfg, params, "binary_classification", seed=3)
    for name in ("head.w", "head.b"):
        model.params[name].data = model.params[name].data.astype(dtype)
    ids, segs, mask = task_batch(cfg.vocab_size, s)
    got = model.forward(ids, segs, mask).data[0]
    want = task_forward_reference(model, ids, segs, mask).data
    assert got.dtype == want.dtype == dtype
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_task_model_training_forward_draws_dropout_as_the_full_graph():
    cfg = preset("micro")
    model = attach_head(cfg, init_params(cfg, np.random.default_rng(2)),
                        "binary_classification", dropout=0.1, seed=3)
    ids, segs, mask = task_batch(cfg.vocab_size, 17)
    rng, full_rng = np.random.default_rng(13), np.random.default_rng(13)
    got = model.forward(ids, segs, mask, rng=rng).data[0]
    want = task_forward_reference(model, ids, segs, mask, rng=full_rng).data
    assert rng.bit_generator.state == full_rng.bit_generator.state
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_load_task_model_accepts_decoder_tensors(task_micro, tmp_path):
    # fine-tuned checkpoints written before the decoder was dropped still hold
    # it: the loader drops those tensors
    cfg, params = task_micro
    arrays = {k: v.data.copy() for k, v in params.items()}
    arrays["head.w"] = np.ones((cfg.hidden_size, 2), dtype=np.float32)
    arrays["head.b"] = np.zeros(2, dtype=np.float32)
    save_checkpoint(tmp_path / "old.ckpt", cfg, arrays, meta={"head_type": "binary_classification"})
    _, loaded, _ = load_checkpoint(tmp_path / "old.ckpt")
    assert list(loaded) == list(param_shapes(cfg, "binary_classification"))
    model = load_task_model(cfg, loaded, "binary_classification")
    assert list(model.params) == list(param_shapes(cfg, "binary_classification"))
    assert np.array_equal(model.slice(0)["head.w"], arrays["head.w"])


def test_load_task_model_requires_head(task_micro, tmp_path):
    # a checkpoint whose meta names a head type must hold that head
    cfg, params = task_micro
    arrays = {k: v.data.copy() for k, v in params.items()}
    save_checkpoint(tmp_path / "headless.ckpt", cfg, arrays, meta={"head_type": "regression"})
    with pytest.raises(DataError, match="lacks tensor 'head.w'"):
        load_checkpoint(tmp_path / "headless.ckpt")


def test_load_task_model_round_trip(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    model = attach_head(cfg, params, "binary_classification", seed=3)
    arrays = {k: v.copy() for k, v in model.slice(0).items()}
    rebuilt = load_task_model(cfg, arrays, "binary_classification")
    encoded = encode_all(task_tokenizer, small_splits[2][:4])
    ids, segs, mask = ft._pad_batch(encoded)
    a = model.forward(ids, segs, mask, rng=None).data
    b = rebuilt.forward(ids, segs, mask, rng=None).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# predict


def test_predict_regression_returns_raw_outputs(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    model = attach_head(cfg, params, "regression", seed=1)
    model.params["head.b"].data[0] = np.array([10.0], dtype=np.float32)
    encoded = encode_all(task_tokenizer, small_splits[1])  # one forward's worth
    (preds,) = predict(model, encoded)
    assert preds.shape == (len(encoded),)
    # above every task's label range, and not clipped to it
    assert np.all(preds > 5.0)
    out = model.forward(*ft._pad_batch(encoded), rng=None).data
    assert np.array_equal(preds, out[0, :, 0].astype(np.float64))


def test_predict_classification_returns_class_ids(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    model = attach_head(cfg, params, "binary_classification", seed=1)
    (preds,) = predict(model, encode_all(task_tokenizer, small_splits[0]))
    assert set(np.unique(preds)) <= {0.0, 1.0}


def test_predict_empty_input(task_micro):
    cfg, params = task_micro
    model = attach_head(cfg, params, "regression", seed=1)
    (preds,) = predict(model, [])
    assert preds.shape == (0,)


def test_predict_batch_size_invariant(task_micro, task_tokenizer, small_splits, monkeypatch):
    cfg, params = task_micro
    model = attach_head(cfg, params, "binary_classification", dropout=0.3, seed=1)
    encoded = encode_all(task_tokenizer, small_splits[0][:10])
    a = predict(model, encoded)
    monkeypatch.setattr(ft, "PREDICT_BATCH_SIZE", 2)
    b = predict(model, encoded)
    # dropout is inert without an rng, so chunking must not matter
    assert np.array_equal(a, b)


def test_evaluate_scores_raw_regression(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    model = attach_head(cfg, params, "regression", seed=1)
    encoded = encode_all(task_tokenizer, small_splits[1])
    # centre the raw outputs on the top of STS's label range, so half lie above it
    model.params["head.b"].data += np.float32(5.0 - np.median(predict(model, encoded)[0]))
    (raw,) = predict(model, encoded)
    assert raw.min() < 5.0 < raw.max()
    gold = np.clip(raw, 1.0, 5.0)  # labels within the range
    (score,) = ft.evaluate(model, encoded, gold, STS)
    assert isinstance(score, float)
    assert score == pearson(list(raw), list(gold))
    assert score < pearson(list(gold), list(gold))  # which clipped predictions would score


def test_evaluate_casts_classification_labels_to_int(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    model = attach_head(cfg, params, "binary_classification", seed=1)
    encoded = encode_all(task_tokenizer, small_splits[0])
    (preds,) = predict(model, encoded)
    # int() truncates 0.5 and 1.5 back to the predicted classes
    (score,) = ft.evaluate(model, encoded, preds + 0.5, RTE)
    assert isinstance(score, float) and score == 1.0
    assert ft.evaluate(model, encoded, 1.0 - preds, RTE) == [0.0]


# ---------------------------------------------------------------------------
# finetune


def test_finetune_zero_lr_is_identity(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, _ = small_splits
    gp = GridPoint(0.0, 0.0, "fp32", 41)
    model = attach_head(cfg, params, "binary_classification", dropout=0.0, seed=41)
    initial = {k: v.data.copy() for k, v in model.params.items()}
    dev_enc = encode_all(task_tokenizer, dev)
    dev_labels = [int(ex.label) for ex in dev]
    before = accuracy([int(p) for p in predict(model, dev_enc)[0]], dev_labels)
    (res,) = finetune(model, train, dev, [gp], RTE, task_tokenizer,
                      seq_len=32, epochs=2, batch_size=16)
    assert res.dev_score == before
    assert res.epoch_scores == [before, before]
    assert res.best_epoch == 0
    for k, v in model.params.items():
        assert np.array_equal(v.data, initial[k]), k


def test_finetune_deterministic(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, _ = small_splits
    gp = GridPoint(0.1, 1e-3, "fp32", 42)
    results, models = [], []
    for _ in range(2):
        model = attach_head(cfg, params, "binary_classification",
                            dropout=gp.dropout, seed=gp.seed)
        results += finetune(model, train, dev, [gp], RTE, task_tokenizer,
                            seq_len=32, epochs=2, batch_size=8)
        models.append(model)
    assert results[0].epoch_scores == results[1].epoch_scores
    assert results[0].best_epoch == results[1].best_epoch
    for k in models[0].params:
        assert np.array_equal(models[0].params[k].data,
                              models[1].params[k].data), k


def test_finetune_restores_best_epoch(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, _ = small_splits
    gp = GridPoint(0.0, 1e-3, "fp32", 43)
    model = attach_head(cfg, params, "binary_classification", dropout=0.0, seed=43)
    (res,) = finetune(model, train, dev, [gp], RTE, task_tokenizer,
                      seq_len=32, epochs=3, batch_size=8)
    assert len(res.epoch_scores) == 3
    assert res.dev_score == max(res.epoch_scores)
    assert res.best_epoch == res.epoch_scores.index(max(res.epoch_scores))
    # returned weights really are the best epoch's weights
    dev_enc = encode_all(task_tokenizer, dev)
    dev_labels = [int(ex.label) for ex in dev]
    rescored = accuracy([int(p) for p in predict(model, dev_enc)[0]], dev_labels)
    assert rescored == res.dev_score


def test_finetune_learns_separable_task(task_train, task_dev, task_tokenizer):
    # marker-word task: solvable from scratch at desk scale
    cfg = preset("tiny", vocab_size=task_tokenizer.vocab_size)
    params = init_params(cfg, np.random.default_rng(np.random.SeedSequence(5)))
    gp = GridPoint(0.0, 1e-3, "fp32", 41)
    model = attach_head(cfg, params, "binary_classification", dropout=0.0, seed=41)
    (res,) = finetune(model, task_train, task_dev, [gp], RTE, task_tokenizer,
                      seq_len=32, epochs=5, batch_size=16)
    assert res.dev_score == 1.0
    assert res.epoch_scores[0] < 1.0  # started below ceiling, so it learned


def test_finetune_rejects_empty_splits(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, _ = small_splits
    model = attach_head(cfg, params, "binary_classification", seed=0)
    gp = GridPoint(0.0, 1e-3, "fp32", 41)
    with pytest.raises(DataError, match="dev"):
        finetune(model, train, [], [gp], RTE, task_tokenizer)
    with pytest.raises(DataError, match="train"):
        finetune(model, [], dev, [gp], RTE, task_tokenizer)


def test_finetune_fp16_rounds_every_param(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, _ = small_splits
    gp = GridPoint(0.0, 1e-3, "fp16", 41)
    model = attach_head(cfg, params, "binary_classification", dropout=0.0, seed=41)
    finetune(model, train, dev, [gp], RTE, task_tokenizer,
             seq_len=32, epochs=1, batch_size=8)
    for k, p in model.params.items():
        half = p.data.astype(np.float16).astype(np.float32)
        assert np.array_equal(p.data, half), k


def test_finetune_precision_changes_trajectory(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, _ = small_splits

    def run(precision):
        gp = GridPoint(0.0, 1e-3, precision, 41)
        model = attach_head(cfg, params, "binary_classification",
                            dropout=0.0, seed=41)
        finetune(model, train, dev, [gp], RTE, task_tokenizer,
                 seq_len=32, epochs=1, batch_size=8)
        return model

    a, b = run("fp32"), run("fp16")
    assert any(not np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)


def test_finetune_dropout_changes_trajectory(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, _ = small_splits

    def run(dropout):
        gp = GridPoint(dropout, 1e-3, "fp32", 41)
        model = attach_head(cfg, params, "binary_classification",
                            dropout=dropout, seed=41)
        finetune(model, train, dev, [gp], RTE, task_tokenizer,
                 seq_len=32, epochs=1, batch_size=8)
        return model

    a, b = run(0.0), run(0.3)
    assert any(not np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)


# ---------------------------------------------------------------------------
# aggregation over synthetic run records (no training involved)


def records_for_full_grid(dev_fn, test_fn):
    records = []
    for i, gp in enumerate(full_grid()):
        records.append(RunRecord(index=i, dropout=gp.dropout, lr=gp.lr,
                                 precision=gp.precision, seed=gp.seed,
                                 dev_score=dev_fn(i, gp), test_score=test_fn(i, gp)))
    return records


def test_group_runs_aggregates_in_grid_order():
    records = records_for_full_grid(lambda i, gp: i / 100.0, lambda i, gp: i / 10.0)
    rows = group_runs(records)
    assert len(rows) == 12
    assert (rows[0].dropout, rows[0].lr, rows[0].precision) == (0.0, 1e-6, "fp32")
    assert (rows[-1].dropout, rows[-1].lr, rows[-1].precision) == (0.1, 1e-5, "fp16")
    for row in rows:
        assert len(row.dev_scores) == 3
        assert len(row.test_scores) == 3
        assert row.n_failed == 0
        assert row.dev_mean == pytest.approx(np.mean(row.dev_scores))
    # first row aggregates grid indices 0..2
    assert rows[0].dev_scores == [0.0, 0.01, 0.02]


def test_group_runs_excludes_failed_from_means():
    records = records_for_full_grid(lambda i, gp: 0.5, lambda i, gp: 0.5)
    records[1].status = "failed"
    records[1].dev_score = None
    records[1].test_score = None
    records[1].error = "RuntimeError: boom"
    rows = group_runs(records)
    assert rows[0].n_failed == 1
    assert len(rows[0].dev_scores) == 2
    assert rows[0].dev_mean == pytest.approx(0.5)


def test_select_config_argmax_with_earliest_tie():
    rows = [
        ConfigRow(0.0, 1e-6, "fp32", dev_scores=[0.5, 0.5, 0.5]),
        ConfigRow(0.0, 5e-6, "fp32", dev_scores=[0.9]),
        ConfigRow(0.0, 1e-5, "fp32", dev_scores=[0.9]),
    ]
    best = select_config(rows)
    assert best is rows[1]


def test_select_config_skips_rows_without_runs():
    rows = [
        ConfigRow(0.0, 1e-6, "fp32", n_failed=3),
        ConfigRow(0.0, 5e-6, "fp32", dev_scores=[0.1]),
    ]
    assert select_config(rows) is rows[1]
    assert select_config([ConfigRow(0.0, 1e-6, "fp32", n_failed=3)]) is None
    assert select_config([]) is None


def test_scrambled_test_scores_move_report_not_selection():
    # selection must depend on dev scores only; the reported number is test
    def dev_fn(i, gp):
        return 0.9 if (gp.dropout, gp.lr, gp.precision) == (0.1, 5e-6, "fp16") else 0.1

    records = records_for_full_grid(dev_fn, lambda i, gp: float(i))
    scrambled = records_for_full_grid(dev_fn, lambda i, gp: float((i * 7 + 3) % 36))

    best = select_config(group_runs(records))
    best_s = select_config(group_runs(scrambled))
    assert (best.dropout, best.lr, best.precision) == (0.1, 5e-6, "fp16")
    assert (best_s.dropout, best_s.lr, best_s.precision) == (0.1, 5e-6, "fp16")
    assert best.test_mean != best_s.test_mean


@settings(max_examples=40, deadline=None)
@given(scores=st.lists(st.floats(0.0, 1.0), min_size=36, max_size=36))
def test_group_runs_mean_property(scores):
    records = records_for_full_grid(lambda i, gp: scores[i], lambda i, gp: 0.0)
    rows = group_runs(records)
    total = sum(len(r.dev_scores) for r in rows)
    assert total == 36
    for row in rows:
        assert row.dev_mean == pytest.approx(np.mean(row.dev_scores))


# ---------------------------------------------------------------------------
# run_grid end to end (restricted grid, micro model)


def test_run_grid_records_and_rows(grid_report):
    rep = grid_report
    assert rep.task == "rte"
    assert rep.metric == "accuracy"
    assert [r.index for r in rep.runs] == [0, 1, 2]
    assert [r.seed for r in rep.runs] == [41, 42, 43]
    assert all(r.status == "ok" for r in rep.runs)
    assert rep.n_failed == 0
    assert len(rep.configs) == 1
    row = rep.configs[0]
    assert len(row.dev_scores) == 3
    assert row.dev_scores == [r.dev_score for r in rep.runs]


def test_run_grid_selection_and_reported_score(grid_report):
    rep = grid_report
    row = rep.configs[0]
    assert rep.selected_config == {
        "dropout": row.dropout, "lr": row.lr, "precision": row.precision,
        "dev_mean": row.dev_mean,
    }
    assert rep.reported_test_score == pytest.approx(np.mean([r.test_score for r in rep.runs]))
    for r in rep.runs:
        assert 0.0 <= r.dev_score <= 1.0
        assert 0.0 <= r.test_score <= 1.0


def test_run_grid_json_round_trip(grid_report):
    payload = json.loads(grid_report.to_json())
    assert payload["task"] == "rte"
    assert payload["n_failed"] == 0
    assert len(payload["runs"]) == 3
    assert payload["selected_config"]["dev_mean"] == grid_report.configs[0].dev_mean
    assert payload["reported_test_score"] == grid_report.reported_test_score


def test_run_grid_records_failures(task_micro, task_tokenizer, small_splits, monkeypatch):
    cfg, params = task_micro
    train, dev, test = small_splits
    real = ft.finetune

    def flaky(model, train_ex, dev_ex, group, spec, tokenizer, **kw):
        if group[0].seed == 42:
            raise RuntimeError("injected failure")
        return real(model, train_ex, dev_ex, group, spec, tokenizer, **kw)

    monkeypatch.setattr(ft, "finetune", flaky)
    grid = [GridPoint(0.0, 1e-3, "fp32", s) for s in (41, 42, 43)]
    rep = ft.run_grid(cfg, params, RTE, task_tokenizer, train, dev, test,
                      grid=grid, seq_len=32, epochs=1, batch_size=16)
    assert rep.n_failed == 1
    failed = [r for r in rep.runs if r.status == "failed"]
    assert len(failed) == 1
    assert failed[0].seed == 42
    assert failed[0].error == "RuntimeError: injected failure"
    assert failed[0].dev_score is None
    row = rep.configs[0]
    assert len(row.dev_scores) == 2
    assert row.n_failed == 1
    assert rep.selected_config is not None  # two good seeds still qualify


def test_run_grid_all_failed(task_micro, task_tokenizer, small_splits, monkeypatch):
    cfg, params = task_micro
    train, dev, test = small_splits

    def broken(*a, **kw):
        raise RuntimeError("dead")

    monkeypatch.setattr(ft, "finetune", broken)
    grid = [GridPoint(0.0, 1e-3, "fp32", s) for s in (41, 42)]
    rep = ft.run_grid(cfg, params, RTE, task_tokenizer, train, dev, test,
                      grid=grid, seq_len=32, epochs=1)
    assert rep.n_failed == 2
    assert rep.selected_config is None
    assert rep.reported_test_score is None


def test_run_grid_leaves_pretrained_arrays_unchanged(task_micro, task_tokenizer, small_splits):
    # Adam updates in place, so every run must train a copy of the shared encoder
    cfg, params = task_micro
    train, dev, test = small_splits
    before = {k: p.data.copy() for k, p in params.items()}
    grid = [GridPoint(0.1, 1e-3, "fp32", 41), GridPoint(0.0, 1e-3, "fp16", 42),
            GridPoint(0.0, 1e-3, "fp32", 43)]
    full = run_grid(cfg, params, RTE, task_tokenizer, train, dev, test,
                    grid=grid, seq_len=32, epochs=2, batch_size=8)
    for k, p in params.items():
        assert p.data.dtype == before[k].dtype
        np.testing.assert_array_equal(p.data, before[k], err_msg=k)
    # a point run alone gives the record it gets inside the grid
    alone = run_grid(cfg, params, RTE, task_tokenizer, train, dev, test,
                     grid=[grid[2]], seq_len=32, epochs=2, batch_size=8)
    record = dataclasses.asdict(alone.runs[0])
    assert record.pop("index") == 0
    inside = dataclasses.asdict(full.runs[2])
    assert inside.pop("index") == 2
    assert record == inside


# ---------------------------------------------------------------------------
# a group of runs trains as one stacked model


def stacked_and_solo(monkeypatch, cfg, params, spec, tokenizer, splits, group, poison=None):
    """Run `group` as one grid group and each of its points alone, in this
    process: (records, best-epoch weights) of the group's runs, then of the
    solo runs, each weight set as {name: array of that run}. `poison(model,
    g, gp)` edits slice g of a model before it trains."""
    train, dev, test = splits
    real = ft.finetune
    weights = {}

    def spy(model, train_ex, dev_ex, points, *a, **kw):
        for g, gp in enumerate(points):
            if poison is not None:
                poison(model, g, gp)
        results = real(model, train_ex, dev_ex, points, *a, **kw)
        for g, gp in enumerate(points):
            weights.setdefault(gp, []).append({k: v.copy() for k, v in model.slice(g).items()})
        return results

    monkeypatch.setattr(ft, "finetune", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    kw = dict(grid=group, seq_len=32, epochs=2, batch_size=8)
    stacked = run_grid(cfg, params, spec, tokenizer, train, dev, test, **kw).runs
    solo = [run_grid(cfg, params, spec, tokenizer, train, dev, test,
                     **{**kw, "grid": [gp]}).runs[0] for gp in group]
    for i, record in enumerate(solo):
        record.index = i
    return stacked, solo, weights


def assert_slices_equal_solo(stacked, solo, weights, group):
    assert [dataclasses.asdict(r) for r in stacked] == [dataclasses.asdict(r) for r in solo]
    for gp in group:
        together, alone = weights[gp]
        assert list(together) == list(alone)
        for name in together:
            assert together[name].dtype == alone[name].dtype == np.float32
            assert together[name].tobytes() == alone[name].tobytes(), (gp, name)


@pytest.mark.parametrize("task", ["rte", "stsb"])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_a_stacked_group_equals_its_runs_one_by_one(task, dropout, task_micro, task_tokenizer,
                                                     monkeypatch):
    cfg, params = task_micro
    spec = TASKS[task]
    splits = tuple(synthetic_task_examples(spec, n, seed=30 + n) for n in (20, 8, 9))
    group = [GridPoint(dropout, lr, p, 42) for lr in (1e-3, 3e-3) for p in ("fp32", "fp16")]
    assert ft.grid_groups(group) == [[0, 1, 2, 3]]
    stacked, solo, weights = stacked_and_solo(monkeypatch, cfg, params, spec, task_tokenizer,
                                              splits, group)
    assert [r.status for r in stacked] == ["ok"] * 4
    assert_slices_equal_solo(stacked, solo, weights, group)


def test_grid_groups_share_dropout_and_seed():
    groups = ft.grid_groups(full_grid())
    assert len(groups) == 6 and all(len(g) == 6 for g in groups)
    assert sorted(i for g in groups for i in g) == list(range(36))
    grid = full_grid()
    for g in groups:
        assert len({(grid[i].dropout, grid[i].seed) for i in g}) == 1
        assert len({(grid[i].lr, grid[i].precision) for i in g}) == 6
        assert g == sorted(g)


def nan_head(model, g, gp):
    if gp.lr == 3e-3 and gp.precision == "fp16":
        model.params["head.w"].data[g] = np.nan


def constant_regression(model, g, gp):
    if gp.lr == 3e-3 and gp.precision == "fp16":
        # the last layer's output, and so the CLS state, is 0; with head.w 0
        # no gradient reaches either, so every output is head.b at every epoch
        last = f"layer{model.config.num_layers - 1}.ffn.ln"
        for name in (f"{last}.gain", f"{last}.bias", "head.w"):
            model.params[name].data[g] = 0.0


def always_class_one(model, g, gp):  # and the other slices always class 0
    one = gp.lr == 3e-3 and gp.precision == "fp16"
    model.params["head.b"].data[g] = [-100.0, 100.0] if one else [100.0, -100.0]


@pytest.mark.parametrize("task, poison, error", [
    ("rte", nan_head, "NumericalError: non-finite gradient in parameter 'embed.tokens'"),
    ("stsb", constant_regression, "DataError: pearson: undefined correlation on constant input"),
    ("rte", always_class_one, "DataError: finetune: no epoch produced a usable dev score"),
])
def test_a_failure_fails_only_its_own_slice(task, poison, error, task_micro, task_tokenizer,
                                            monkeypatch):
    cfg, params = task_micro
    spec = TASKS[task]
    if poison is always_class_one:  # its dev scores are NaN, so no epoch is usable
        accuracy_of = ft.met.accuracy
        monkeypatch.setattr(ft.met, "accuracy", lambda pred, gold: (
            float("nan") if set(pred) == {1} else accuracy_of(pred, gold)))
    splits = tuple(synthetic_task_examples(spec, n, seed=30 + n) for n in (20, 8, 9))
    group = [GridPoint(0.1, lr, p, 42) for lr in (1e-3, 3e-3) for p in ("fp32", "fp16")]
    stacked, solo, weights = stacked_and_solo(monkeypatch, cfg, params, spec, task_tokenizer,
                                              splits, group, poison)
    assert [r.status for r in stacked] == ["ok", "ok", "ok", "failed"]
    assert stacked[3].error == error
    assert stacked[3].dev_score is stacked[3].test_score is stacked[3].best_epoch is None
    del weights[group[3]]  # a failed run's weights are not kept
    assert_slices_equal_solo(stacked, solo, weights, group[:3])  # records: all four


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_run_grid_same_bytes_inline_and_in_workers(task_micro, task_tokenizer, small_splits,
                                                    tmp_path, monkeypatch):
    cfg, params = task_micro
    train, dev, test = small_splits
    grid = [GridPoint(d, 1e-3, p, s) for d in (0.0, 0.1)
            for p, s in (("fp32", 41), ("fp16", 42), ("fp32", 43))]
    pids = tmp_path / "pids"
    real = ft.attach_head

    def spy(*a, **kw):  # the process each run trains in
        with open(pids, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return real(*a, **kw)

    monkeypatch.setattr(ft, "attach_head", spy)

    def run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pids.unlink(missing_ok=True)
        seen = []
        with deadline(300):
            rep = run_grid(cfg, params, RTE, task_tokenizer, train, dev, test, grid=grid,
                           seq_len=32, epochs=2, batch_size=8,
                           on_run=lambda r, seconds: seen.append((r.index, seconds)))
        assert multiprocessing.active_children() == []
        assert sorted(i for i, _ in seen) == list(range(6))
        assert all(seconds > 0 for _, seconds in seen)
        return rep.to_json(), set(pids.read_text(encoding="utf-8").split())

    inline, inline_pids = run(1)
    pooled, pooled_pids = run(2)
    assert inline_pids == {str(os.getpid())}
    assert len(pooled_pids) == 2 and str(os.getpid()) not in pooled_pids
    assert [r["status"] for r in json.loads(inline)["runs"]] == ["ok"] * 6
    assert pooled == inline


def test_run_grid_worker_death_is_a_failed_record(task_micro, task_tokenizer, small_splits,
                                                  monkeypatch, capfd):
    cfg, params = task_micro
    train, dev, test = small_splits
    real = ft.finetune

    def crash(model, train_ex, dev_ex, group, spec, tokenizer, **kw):
        if group[0].seed == 42:
            os._exit(3)
        return real(model, train_ex, dev_ex, group, spec, tokenizer, **kw)

    monkeypatch.setattr(ft, "finetune", crash)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grid = [GridPoint(0.0, 1e-3, "fp32", s) for s in (41, 42, 43)]
    seen = []
    with deadline(300):
        rep = ft.run_grid(cfg, params, RTE, task_tokenizer, train, dev, test, grid=grid,
                          seq_len=32, epochs=1, batch_size=16,
                          on_run=lambda r, seconds: seen.append((r.index, seconds)))
    assert multiprocessing.active_children() == []
    assert [r.index for r in rep.runs] == [0, 1, 2]
    dead = rep.runs[1]
    assert dead.status == "failed" and dead.dev_score is None
    assert dead.error.startswith("BrokenProcessPool: ") and "\n" not in dead.error
    assert (1, None) in seen and len(seen) == 3
    assert rep.n_failed == sum(r.status == "failed" for r in rep.runs)
    assert "Traceback" not in capfd.readouterr().err


def test_run_grid_worker_death_fails_only_its_own_point(task_micro, task_tokenizer,
                                                       small_splits, monkeypatch):
    cfg, params = task_micro
    train, dev, test = small_splits
    real = ft.finetune

    def crash(model, train_ex, dev_ex, group, spec, tokenizer, **kw):
        if group[0].seed == 42:
            os._exit(3)
        return real(model, train_ex, dev_ex, group, spec, tokenizer, **kw)

    monkeypatch.setattr(ft, "finetune", crash)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grid = [GridPoint(d, 1e-3, "fp32", s) for d in (0.0, 0.1) for s in (41, 42, 43)]
    seen = []
    with deadline(300):
        rep = ft.run_grid(cfg, params, RTE, task_tokenizer, train, dev, test, grid=grid,
                          seq_len=32, epochs=1, batch_size=16,
                          on_run=lambda r, seconds: seen.append((r.index, seconds)))
    assert multiprocessing.active_children() == []
    assert sorted(i for i, _ in seen) == list(range(6))
    assert [r.status for r in rep.runs] == ["ok", "failed", "ok"] * 2
    for r in rep.runs:
        assert (r.status == "failed") == (r.seed == 42)
        if r.status == "failed":
            assert r.error.startswith("BrokenProcessPool: ") and (r.index, None) in seen
    assert rep.n_failed == 2


def test_run_grid_worker_death_fails_every_run_of_its_group(task_micro, task_tokenizer,
                                                            small_splits, monkeypatch):
    cfg, params = task_micro
    train, dev, test = small_splits
    real = ft.finetune

    def crash(model, train_ex, dev_ex, group, spec, tokenizer, **kw):
        if group[0].seed == 42:
            os._exit(3)
        return real(model, train_ex, dev_ex, group, spec, tokenizer, **kw)

    monkeypatch.setattr(ft, "finetune", crash)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grid = [GridPoint(0.0, lr, "fp32", s) for s in (41, 42, 43) for lr in (1e-3, 3e-3)]
    seen = {}
    with deadline(300):
        rep = ft.run_grid(cfg, params, RTE, task_tokenizer, train, dev, test, grid=grid,
                          seq_len=32, epochs=1, batch_size=16,
                          on_run=lambda r, seconds: seen.setdefault(r.index, seconds))
    assert multiprocessing.active_children() == []
    assert [r.status for r in rep.runs] == ["ok", "ok", "failed", "failed", "ok", "ok"]
    assert rep.runs[2].error == rep.runs[3].error
    assert rep.runs[2].error.startswith("BrokenProcessPool: ") and "\n" not in rep.runs[2].error
    # one call per record, with its group's seconds
    assert sorted(seen) == list(range(6))
    assert seen[2] is seen[3] is None
    assert seen[0] == seen[1] > 0 and seen[4] == seen[5] > 0


def test_grid_worker_initializer_pins_one_blas_thread():
    import ctypes

    from lusoforge.workers import _one_blas_thread

    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split(None, 5)[-1].strip() for line in f
                        if "libscipy_openblas64_" in line})
    if not paths:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    lib = ctypes.CDLL(paths[0])
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        _one_blas_thread()
        assert lib.scipy_openblas_get_num_threads64_() == 1
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_run_grid_rejects_empty_grid(task_micro, task_tokenizer, small_splits):
    cfg, params = task_micro
    train, dev, test = small_splits
    with pytest.raises(DataError, match="empty grid"):
        run_grid(cfg, params, RTE, task_tokenizer, train, dev, test, grid=[])


def test_report_csv_summary(grid_report):
    pairs = [(grid_report.task, grid_report.reported_test_score), ("sts", None)]
    csv = report_csv_summary(pairs, model_name="micro")
    lines = csv.splitlines()
    assert lines[0] == "model,rte,sts"
    cells = lines[1].split(",")
    assert cells[0] == "micro"
    assert float(cells[1]) == grid_report.reported_test_score
    assert cells[2] == ""  # no successful config -> empty cell


# ---------------------------------------------------------------------------
# synthetic examples


def test_synthetic_classification_marker():
    examples = synthetic_task_examples(RTE, 200, seed=1)
    assert len(examples) == 200
    labels = {ex.label for ex in examples}
    assert labels == {0.0, 1.0}
    for ex in examples:
        assert ex.label == float("sim" in ex.sentence_a.split())


def test_synthetic_regression_label_grid():
    examples = synthetic_task_examples(STS, 200, seed=2)
    allowed = {1.0 + 4.0 * k / 6.0 for k in range(7)}
    for ex in examples:
        assert ex.label in allowed
        assert 1.0 <= ex.label <= 5.0
    assert len({ex.label for ex in examples}) > 3  # spread over the range


def test_synthetic_examples_deterministic():
    a = synthetic_task_examples(RTE, 20, seed=3)
    b = synthetic_task_examples(RTE, 20, seed=3)
    assert [(e.sentence_a, e.sentence_b, e.label) for e in a] == [
        (e.sentence_a, e.sentence_b, e.label) for e in b
    ]
    c = synthetic_task_examples(RTE, 20, seed=4)
    assert [e.sentence_a for e in a] != [e.sentence_a for e in c]
