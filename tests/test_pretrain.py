"""Pre-training tests: masking statistics, LR schedule, batching, the EMA
log, checkpointing, and short end-to-end training runs."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusoforge.checkpoint import load_checkpoint, params_from_arrays, save_checkpoint
from lusoforge.encoder import DisentangledEncoder, init_params, preset
from lusoforge.errors import DataError, NumericalError
from lusoforge.pretrain import (
    EMA_FACTOR,
    LossLog,
    TrainRunConfig,
    apply_mlm_masking,
    build_encoder_config,
    lr_at,
    make_batches,
    tokenize_corpus,
    train,
)
from lusoforge.tokenizer import MASK, train_tokenizer


# ----------------------------------------------------------------- masking

def test_mask_rate_zero_is_identity():
    rng = np.random.default_rng(0)
    ids = np.array([2, 10, 11, 12, 3])
    masked, labels = apply_mlm_masking(ids, 0.0, rng, vocab_size=50)
    np.testing.assert_array_equal(masked, ids)
    assert np.all(labels == -100)


def test_mask_rate_one_selects_every_nonspecial():
    rng = np.random.default_rng(1)
    ids = np.array([2] + list(range(10, 20)) + [3])
    masked, labels = apply_mlm_masking(ids, 1.0, rng, vocab_size=50)
    assert np.all(labels[1:-1] == ids[1:-1])
    assert labels[0] == -100 and labels[-1] == -100
    np.testing.assert_array_equal(masked[[0, -1]], ids[[0, -1]])


def test_specials_never_selected():
    rng = np.random.default_rng(2)
    ids = np.array([0, 1, 2, 3, 4] * 20)
    masked, labels = apply_mlm_masking(ids, 1.0, rng, vocab_size=50)
    np.testing.assert_array_equal(masked, ids)
    assert np.all(labels == -100)


def test_masking_statistics_at_scale():
    rng = np.random.default_rng(3)
    n = 120_000
    ids = rng.integers(5, 500, size=n)
    masked, labels = apply_mlm_masking(ids, 0.15,
                                       np.random.default_rng(42), vocab_size=500)
    selected = labels != -100
    frac = selected.mean()
    assert 0.145 <= frac <= 0.155
    sel_idx = np.nonzero(selected)[0]
    to_mask = (masked[sel_idx] == MASK).mean()
    unchanged = (masked[sel_idx] == ids[sel_idx]).mean()
    randomized = 1.0 - to_mask - unchanged
    assert abs(to_mask - 0.80) <= 0.015
    assert abs(unchanged - 0.10) <= 0.015
    assert abs(randomized - 0.10) <= 0.015


def test_masking_labels_carry_originals():
    rng = np.random.default_rng(4)
    ids = np.arange(5, 105)
    masked, labels = apply_mlm_masking(ids, 0.5, rng, vocab_size=200)
    sel = labels != -100
    np.testing.assert_array_equal(labels[sel], ids[sel])
    # unselected positions keep their tokens
    np.testing.assert_array_equal(masked[~sel], ids[~sel])


def test_random_replacements_are_nonspecial():
    ids = np.arange(5, 2005)
    masked, labels = apply_mlm_masking(ids, 1.0,
                                       np.random.default_rng(5), vocab_size=2005)
    sel = labels != -100
    replaced = masked[sel][(masked[sel] != MASK) & (masked[sel] != ids[sel])]
    assert replaced.size > 0
    assert np.all(replaced >= 5)
    assert np.all(replaced < 2005)


def test_masking_deterministic_per_rng_seed():
    ids = np.arange(5, 205)
    a = apply_mlm_masking(ids, 0.15, np.random.default_rng(9), vocab_size=300)
    b = apply_mlm_masking(ids, 0.15, np.random.default_rng(9), vocab_size=300)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


# ----------------------------------------------------------------- schedule

def test_lr_schedule_pinned_points():
    assert lr_at(0, 10_000, 200_000, 1e-5) == 0.0
    assert lr_at(10_000, 10_000, 200_000, 1e-5) == 1e-5
    assert lr_at(200_000, 10_000, 200_000, 1e-5) == 0.0
    assert lr_at(105_000, 10_000, 200_000, 1e-5) == 5e-6  # decay midpoint


def test_lr_warmup_is_linear():
    for step in (0, 25, 50, 75, 100):
        assert lr_at(step, 100, 1000, 4e-4) == pytest.approx(4e-4 * step / 100)


def test_lr_decay_is_linear():
    total, warmup, peak = 1000, 100, 4e-4
    for step in (100, 325, 550, 775, 1000):
        want = peak * (total - step) / (total - warmup)
        assert lr_at(step, warmup, total, peak) == pytest.approx(want)


def test_lr_past_total_clamps_with_warning():
    with pytest.warns(UserWarning):
        assert lr_at(2001, 100, 2000, 1e-4) == 0.0


def test_lr_negative_step_rejected():
    with pytest.raises(ValueError):
        lr_at(-1, 100, 2000, 1e-4)


def test_lr_zero_warmup_starts_at_peak():
    assert lr_at(0, 0, 100, 1e-3) == 1e-3


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_lr_never_negative_never_above_peak(step):
    lr = lr_at(step, 500, 5000, 3e-4)
    assert 0.0 <= lr <= 3e-4


# ----------------------------------------------------------------- batching

def seqs_of_lengths(*lengths):
    return [list(range(5, 5 + n)) for n in lengths]


def original_indices(batch):
    """Each row's index into seqs_of_lengths(4, 5, 6, ...), read from its length."""
    return batch.attn_mask.sum(axis=1).astype(int) - 4


def test_dynamic_padding_to_longest_in_batch():
    seqs = seqs_of_lengths(7, 12)
    batches = make_batches(seqs, micro_batch_size=2, seq_len=128, seed=0, labels=seqs)
    assert len(batches) == 1
    b = batches[0]
    assert b.ids.shape == (2, 12)
    assert b.attn_mask.sum() == 7 + 12
    real = b.attn_mask == 1
    np.testing.assert_array_equal(b.labels[real], b.ids[real])
    assert np.all(b.labels[~real] == -100)


def test_full_length_sequences_get_no_padding():
    seqs = seqs_of_lengths(16, 16, 16, 16)
    batches = make_batches(seqs, micro_batch_size=2, seq_len=16, seed=0, labels=seqs)
    for b in batches:
        assert b.ids.shape[1] == 16
        assert np.all(b.attn_mask == 1)


def test_same_seed_same_batches():
    seqs = seqs_of_lengths(*(range(4, 24)))
    a = make_batches(seqs, micro_batch_size=4, seq_len=32, seed=11, labels=seqs)
    b = make_batches(seqs, micro_batch_size=4, seq_len=32, seed=11, labels=seqs)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.ids, y.ids)
        np.testing.assert_array_equal(original_indices(x), original_indices(y))


def test_different_seed_usually_reshuffles():
    seqs = seqs_of_lengths(*(range(4, 24)))
    a = make_batches(seqs, micro_batch_size=4, seq_len=32, seed=11, labels=seqs)
    b = make_batches(seqs, micro_batch_size=4, seq_len=32, seed=12, labels=seqs)
    assert any(not np.array_equal(original_indices(x), original_indices(y)) for x, y in zip(a, b))


def test_empty_corpus_is_data_error():
    with pytest.raises(DataError):
        make_batches([], micro_batch_size=2, seq_len=16, seed=0, labels=[])


def test_batches_cover_every_sequence_once():
    seqs = seqs_of_lengths(*(range(4, 24)))
    batches = make_batches(seqs, micro_batch_size=3, seq_len=32, seed=5, labels=seqs)
    seen = np.concatenate([original_indices(b) for b in batches])
    assert sorted(seen.tolist()) == list(range(len(seqs)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
def test_batch_partition_property(mbs, seed):
    seqs = seqs_of_lengths(*(range(4, 17)))
    batches = make_batches(seqs, micro_batch_size=mbs, seq_len=32, seed=seed, labels=seqs)
    seen = np.concatenate([original_indices(b) for b in batches])
    assert sorted(seen.tolist()) == list(range(len(seqs)))
    for b in batches:
        assert b.ids.shape[0] <= mbs


# ----------------------------------------------------------------- loss log

def test_ema_recurrence_exact():
    log = LossLog()
    losses = [4.0, 3.0, 2.5, 2.0]
    for i, l in enumerate(losses):
        log.append(step=i + 1, epoch=0, lr=1e-4, loss=l)
    ema = [losses[0]]
    for l in losses[1:]:
        ema.append(EMA_FACTOR * ema[-1] + (1 - EMA_FACTOR) * l)
    np.testing.assert_allclose([e.ema_loss for e in log.entries], ema, rtol=0, atol=0)


def test_loss_log_csv_round_trip(tmp_path):
    log = LossLog()
    for i in range(5):
        log.append(step=i + 1, epoch=i // 2, lr=1e-4 * i, loss=4.0 / (i + 1))
    p = tmp_path / "loss_log.csv"
    log.to_csv(p)
    text = p.read_text()
    assert text.splitlines()[0] == "step,epoch,lr,loss,ema_loss"
    back = LossLog.from_csv(p)
    assert back.entries == log.entries


def test_loss_log_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        LossLog.from_csv(tmp_path / "gone.csv")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=20.0, allow_nan=False), min_size=1, max_size=40))
def test_ema_recurrence_property(losses):
    log = LossLog()
    for i, l in enumerate(losses):
        log.append(step=i + 1, epoch=0, lr=0.0, loss=l)
    emas = [e.ema_loss for e in log.entries]
    assert emas[0] == losses[0]
    for t in range(1, len(losses)):
        want = EMA_FACTOR * emas[t - 1] + (1 - EMA_FACTOR) * losses[t]
        assert emas[t] == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- config

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainRunConfig(total_steps=10, warmup_steps=20)
    with pytest.raises(ValueError):
        TrainRunConfig(mask_rate=1.5)


# ----------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_bitwise(tmp_path, micro_config):
    enc = DisentangledEncoder(micro_config, init_params(micro_config, np.random.default_rng(3)))
    ids = np.array([[5, 6, 7, 8, 9]])
    before = enc.mlm_logits(ids).data.copy()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, micro_config, enc.params, meta={"note": "test"})
    cfg, arrays, meta = load_checkpoint(path)
    assert cfg == micro_config
    assert meta["note"] == "test"
    enc2 = DisentangledEncoder(cfg, params_from_arrays(arrays))
    after = enc2.mlm_logits(ids).data
    np.testing.assert_array_equal(before, after)
    # a loaded model holds its parameters in the order a fresh one does
    assert list(enc2.params) == list(enc.params)


def test_checkpoint_file_is_byte_deterministic(tmp_path, micro_config):
    enc = DisentangledEncoder(micro_config, init_params(micro_config, np.random.default_rng(3)))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, micro_config, enc.params)
    save_checkpoint(p2, micro_config, enc.params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncation_detected(tmp_path, micro_config):
    enc = DisentangledEncoder(micro_config, init_params(micro_config, np.random.default_rng(3)))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, micro_config, enc.params)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 64])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_header_corruption_detected(tmp_path, micro_config):
    enc = DisentangledEncoder(micro_config, init_params(micro_config, np.random.default_rng(3)))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, micro_config, enc.params)
    raw = bytearray(path.read_bytes())
    raw[12] ^= 0xFF  # inside the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_with_out_of_range_config_is_data_error(tmp_path, micro_config):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, micro_config, DisentangledEncoder(micro_config, init_params(micro_config, np.random.default_rng(3))).params)
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + n])
    header["config"]["dropout_rate"] = 1.5
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + n :])
    # a bad file is a data error, not the usage error a bad flag would be
    with pytest.raises(DataError, match="invalid config"):
        load_checkpoint(path)


# ----------------------------------------------------------------- training

@pytest.fixture(scope="module")
def trained_micro(tmp_path_factory, toy_sentences_module, toy_tokenizer_module):
    out = tmp_path_factory.mktemp("pretrain")
    cfg = TrainRunConfig(
        seed=7, preset="micro", seq_len=32, micro_batch_size=8,
        accumulation_steps=1, peak_lr=1e-3, warmup_steps=10, total_steps=60,
        dropout_rate=0.0, checkpoint_every=0, out_dir=str(out),
    )
    model, log = train(cfg, toy_sentences_module, toy_tokenizer_module)
    return model, log, out


@pytest.fixture(scope="module")
def toy_sentences_module():
    from conftest import synthetic_sentences

    return synthetic_sentences(32, seed=123)


@pytest.fixture(scope="module")
def toy_tokenizer_module(toy_sentences_module):
    return train_tokenizer(toy_sentences_module, vocab_size=256)


def test_initial_loss_near_uniform_baseline(trained_micro, toy_tokenizer_module):
    _, log, _ = trained_micro
    v = toy_tokenizer_module.vocab_size
    assert log.entries[0].loss == pytest.approx(np.log(v), rel=0.10)


def test_loss_decreases_over_short_run(trained_micro):
    _, log, _ = trained_micro
    assert log.entries[-1].loss < log.entries[0].loss
    assert [e.step for e in log.entries] == list(range(1, 61))


def test_training_writes_final_artifacts(trained_micro):
    _, _, out = trained_micro
    assert (out / "model.ckpt").exists()
    assert (out / "loss_log.csv").exists()


def test_lr_column_follows_schedule(trained_micro):
    _, log, _ = trained_micro
    for e in log.entries:
        assert e.lr == lr_at(e.step, 10, 60, 1e-3)


def test_train_rejects_empty_corpus(toy_tokenizer_module):
    cfg = TrainRunConfig(preset="micro", total_steps=5, warmup_steps=0)
    with pytest.raises(DataError):
        train(cfg, [], toy_tokenizer_module)


def test_tokenize_corpus_skips_short_documents(toy_tokenizer_module):
    seqs = tokenize_corpus(["w01"], toy_tokenizer_module, seq_len=32)
    assert seqs == []
    seqs = tokenize_corpus(["w01 w02 w03 w04 w05 w06 w07 w08"], toy_tokenizer_module, seq_len=32)
    assert len(seqs) == 1


def test_build_encoder_config_uses_tokenizer_vocab(toy_tokenizer_module):
    cfg = build_encoder_config(TrainRunConfig(preset="micro", seq_len=48),
                               toy_tokenizer_module.vocab_size)
    assert cfg.vocab_size == toy_tokenizer_module.vocab_size
    assert cfg.max_seq_len >= 48


def test_nan_loss_aborts_with_numerical_error(toy_sentences_module, toy_tokenizer_module, tmp_path):
    cfg = TrainRunConfig(
        seed=1, preset="micro", seq_len=32, micro_batch_size=8,
        accumulation_steps=1, peak_lr=1e6,  # guaranteed to explode
        warmup_steps=0, total_steps=200, dropout_rate=0.0,
        checkpoint_every=0, out_dir=str(tmp_path),
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
        train(cfg, toy_sentences_module, toy_tokenizer_module)


def test_training_is_seed_deterministic(toy_sentences_module, toy_tokenizer_module, tmp_path):
    cfg = dict(
        seed=5, preset="micro", seq_len=32, micro_batch_size=4,
        accumulation_steps=2, peak_lr=5e-4, warmup_steps=5, total_steps=12,
        dropout_rate=0.1, checkpoint_every=0,
    )
    m1, l1 = train(TrainRunConfig(out_dir=str(tmp_path / "a"), **cfg),
                   toy_sentences_module, toy_tokenizer_module)
    m2, l2 = train(TrainRunConfig(out_dir=str(tmp_path / "b"), **cfg),
                   toy_sentences_module, toy_tokenizer_module)
    assert [e.loss for e in l1.entries] == [e.loss for e in l2.entries]
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k].data, m2.params[k].data)
    assert (tmp_path / "a" / "model.ckpt").read_bytes() == \
        (tmp_path / "b" / "model.ckpt").read_bytes()


def test_periodic_checkpoints_written(toy_sentences_module, toy_tokenizer_module, tmp_path):
    cfg = TrainRunConfig(
        seed=2, preset="micro", seq_len=32, micro_batch_size=8,
        accumulation_steps=1, peak_lr=5e-4, warmup_steps=2, total_steps=10,
        dropout_rate=0.0, checkpoint_every=4, out_dir=str(tmp_path),
    )
    train(cfg, toy_sentences_module, toy_tokenizer_module)
    assert (tmp_path / "model_step000004.ckpt").exists()
    assert (tmp_path / "model_step000008.ckpt").exists()
    assert (tmp_path / "model.ckpt").exists()


# ----------------------------------------------------------- pooled windows

def sha256_of_outputs(out):
    import hashlib

    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".ckpt", ".csv")}


@pytest.mark.parametrize("accumulation_steps", [2, 4])
def test_outputs_are_the_same_bytes_at_any_worker_count(accumulation_steps, toy_sentences_module,
                                                         toy_tokenizer_module, tmp_path, monkeypatch):
    # 4 "CPUs" at accumulation 4 runs more workers than the machine may have cores
    import multiprocessing
    import os
    import signal

    def expire(signum, frame):
        raise TimeoutError("training still running after 300 s")

    cfg = dict(seed=3, preset="micro", seq_len=32, micro_batch_size=2,
               accumulation_steps=accumulation_steps, peak_lr=1e-3, warmup_steps=2,
               total_steps=6, dropout_rate=0.1, checkpoint_every=2)
    prints = {}
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(300)
    try:
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}"
            train(TrainRunConfig(out_dir=str(out), **cfg), toy_sentences_module,
                  toy_tokenizer_module)
            assert multiprocessing.active_children() == []
            prints[cpus] = sha256_of_outputs(out)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert sorted(prints[1]) == ["loss_log.csv", "model.ckpt", "model_step000002.ckpt",
                                 "model_step000004.ckpt", "model_step000006.ckpt"]
    assert prints[1] == prints[2] == prints[4]


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_never_rebinds_a_parameter(cpus, toy_sentences_module, toy_tokenizer_module,
                                         monkeypatch):
    # workers read the parameters through memory they share with this
    # process, so Adam must update the arrays of the first step in place
    import os

    from lusoforge.optim import Adam

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    first = {}
    real_step = Adam.step

    def step(opt):
        if not first:
            first.update({k: (p.data, p.data.ctypes.data) for k, p in opt.params.items()})
        real_step(opt)

    monkeypatch.setattr(Adam, "step", step)
    cfg = TrainRunConfig(seed=4, preset="micro", seq_len=32, micro_batch_size=4,
                         accumulation_steps=2, peak_lr=1e-3, warmup_steps=1, total_steps=3,
                         dropout_rate=0.1, checkpoint_every=0)
    model, _ = train(cfg, toy_sentences_module, toy_tokenizer_module)
    assert first and sorted(first) == sorted(model.params)
    for name, p in model.params.items():
        array, address = first[name]
        assert p.data is array and p.data.ctypes.data == address, name


def test_worker_exception_keeps_its_type(toy_sentences_module, toy_tokenizer_module, monkeypatch):
    import multiprocessing
    import os

    import lusoforge.pretrain as pt
    from lusoforge.errors import ShapeError

    parent = os.getpid()
    real = pt._micro_batch_gradient

    def fail(*args):
        if os.getpid() != parent:
            raise ShapeError("planted in a worker")
        return real(*args)

    monkeypatch.setattr(pt, "_micro_batch_gradient", fail)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = TrainRunConfig(seed=4, preset="micro", seq_len=32, micro_batch_size=4,
                         accumulation_steps=2, peak_lr=1e-3, warmup_steps=1, total_steps=3,
                         dropout_rate=0.0, checkpoint_every=0)
    with pytest.raises(ShapeError, match="planted in a worker"):
        train(cfg, toy_sentences_module, toy_tokenizer_module)
    assert multiprocessing.active_children() == []
