"""Masked-language-model pre-training: masking, batching, schedule, loop.

Determinism is the organizing idea. One seed fans out through independent
SeedSequence streams (init / masking / shuffling / dropout), and masking is
keyed per (epoch, original sequence index) rather than per batch, so the
realized mask pattern is identical whether a window of data arrives as one
large batch or as several accumulated micro-batches. That is what makes the
accumulation-equivalence property exact rather than approximate.

The micro-batches of an optimizer step are data-parallel: `train` computes
them in forked worker processes (`workers.fork_pool`), one per usable CPU up
to accumulation_steps, over parameters that live in shared memory. Each
micro-batch's gradient lands in its own shared slab, and the parent sums the
slabs in micro-batch order before it runs Adam. Dropout is keyed per
(optimizer step, micro-batch index), as masking is per (epoch, sequence).
So neither the masks nor the sum order depend on the worker count, and the
outputs are the same bytes with one CPU, where the same per-micro-batch
function runs inline, as with many.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from lusoforge import autodiff as ad
from lusoforge import tokenizer as tok_mod
from lusoforge.checkpoint import (check_head, check_inputs_fit, load_checkpoint,
                                  params_from_arrays, save_checkpoint)
from lusoforge.encoder import PRESETS, DisentangledEncoder, EncoderConfig, init_params, preset
from lusoforge.errors import DataError, NumericalError, UsageError
from lusoforge.optim import Adam
from lusoforge.tokenizer import MASK, PAD, SPECIAL_TOKENS

EMA_FACTOR = 0.95
MIN_SEQUENCE_TOKENS = 8


@dataclass
class TrainRunConfig:
    seed: int = 0
    preset: str = "tiny"
    seq_len: int = 128
    micro_batch_size: int = 8
    accumulation_steps: int = 4
    peak_lr: float = 5e-4
    warmup_steps: int = 100
    total_steps: int = 2000
    epochs: int = 0              # 0 = run epochs until total_steps is reached
    mask_rate: float = 0.15
    dropout_rate: float | None = None  # None = the preset's own rate
    weight_decay: float = 0.01
    checkpoint_every: int = 500
    out_dir: str | None = None
    init_checkpoint: str | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise UsageError(f"unknown preset {self.preset!r}; have {sorted(PRESETS)}")
        if not (self.total_steps >= self.warmup_steps >= 0):
            raise UsageError(
                f"need total_steps >= warmup_steps >= 0, got {self.total_steps}/{self.warmup_steps}"
            )
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0 (0 = until total_steps), got {self.epochs}")
        if not 0.0 <= self.peak_lr < math.inf:
            raise UsageError(f"peak_lr must be >= 0 and finite, got {self.peak_lr}")
        if not 0.0 < self.mask_rate <= 1.0:  # at 0 no window has a target and no step is taken
            raise UsageError(f"mask_rate {self.mask_rate} outside (0, 1]")
        if self.micro_batch_size < 1 or self.accumulation_steps < 1:
            raise UsageError(f"need micro_batch_size >= 1 and accumulation_steps >= 1, got "
                             f"{self.micro_batch_size}/{self.accumulation_steps}")


# ---------------------------------------------------------------------------
# masking


def apply_mlm_masking(
    ids: np.ndarray,
    mask_rate: float,
    rng: np.random.Generator,
    vocab_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Select non-special positions at mask_rate; replace 80% with the mask
    id, 10% with a uniform random non-special token, 10% left unchanged.
    Labels hold original ids at selected positions and IGNORE_INDEX elsewhere.
    The special ids are the tokenizer's fixed 0..len(SPECIAL_TOKENS)-1.

    Three fixed-shape draws per call, so the RNG stream advances identically
    regardless of token content.
    """
    ids = np.asarray(ids, dtype=np.int64)
    select = (rng.random(ids.shape) < mask_rate) & (ids >= len(SPECIAL_TOKENS))
    action = rng.random(ids.shape)
    randoms = rng.integers(len(SPECIAL_TOKENS), vocab_size, size=ids.shape)

    out = ids.copy()
    out[select & (action < 0.8)] = MASK
    pick_random = select & (action >= 0.8) & (action < 0.9)
    out[pick_random] = randoms[pick_random]
    labels = np.where(select, ids, ad.IGNORE_INDEX)
    return out, labels


# ---------------------------------------------------------------------------
# schedule


def lr_at(step: int, warmup_steps: int, total_steps: int, peak_lr: float) -> float:
    """Linear 0->peak over [0, warmup], then linear peak->0 over [warmup, total].

    warmup_steps == 0 starts directly at peak. Steps past total clamp to 0
    with a warning rather than going negative.
    """
    if step < 0:
        raise ValueError(f"negative step {step}")
    if step > total_steps:
        warnings.warn(f"step {step} beyond total_steps {total_steps}; lr clamped to 0")
        return 0.0
    if warmup_steps > 0 and step <= warmup_steps:
        return peak_lr * (step / warmup_steps)
    if total_steps == warmup_steps:
        return peak_lr
    return peak_lr * ((total_steps - step) / (total_steps - warmup_steps))


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    ids: np.ndarray        # [B, W] int64, PAD-padded
    labels: np.ndarray     # [B, W] int64, IGNORE_INDEX at unselected/pad
    attn_mask: np.ndarray  # [B, W] float32, 1 at real positions


def make_batches(
    sequences: Sequence[Sequence[int]],
    micro_batch_size: int,
    seq_len: int,
    seed: int,
    labels: Sequence[Sequence[int]],
) -> list[Batch]:
    """Shuffle deterministically, then pad each batch to its own longest
    sequence (never beyond seq_len); labels[i] belongs to sequences[i]. A
    trailing short batch is kept."""
    if not sequences:
        raise DataError("make_batches: empty corpus")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(len(sequences))
    batches: list[Batch] = []
    for start in range(0, len(perm), micro_batch_size):
        idxs = [int(i) for i in perm[start : start + micro_batch_size]]
        seqs = [list(sequences[i])[:seq_len] for i in idxs]
        width = max(len(s) for s in seqs)
        ids = np.full((len(seqs), width), PAD, dtype=np.int64)
        labs = np.full((len(seqs), width), ad.IGNORE_INDEX, dtype=np.int64)
        mask = np.zeros((len(seqs), width), dtype=np.float32)
        for r, s in enumerate(seqs):
            ids[r, : len(s)] = s
            mask[r, : len(s)] = 1.0
            lab = list(labels[idxs[r]])[:seq_len]
            labs[r, : len(lab)] = lab
        batches.append(Batch(ids=ids, labels=labs, attn_mask=mask))
    return batches


# ---------------------------------------------------------------------------
# loss logging


@dataclass
class LossLogEntry:
    step: int
    epoch: int
    lr: float
    loss: float
    ema_loss: float


class LossLog:
    """Per-optimizer-step records with an exponential moving average,
    ema[t] = 0.95 * ema[t-1] + 0.05 * loss[t], seeded at the first loss."""

    def __init__(self):
        self.entries: list[LossLogEntry] = []

    def append(self, step: int, epoch: int, lr: float, loss: float):
        if self.entries:
            ema = EMA_FACTOR * self.entries[-1].ema_loss + (1.0 - EMA_FACTOR) * loss
        else:
            ema = loss
        self.entries.append(LossLogEntry(step, epoch, lr, loss, ema))

    def __len__(self):
        return len(self.entries)

    def to_csv(self, path: str | Path):
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "epoch", "lr", "loss", "ema_loss"])
            for e in self.entries:
                w.writerow([e.step, e.epoch, repr(e.lr), repr(e.loss), repr(e.ema_loss)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "LossLog":
        """The log `to_csv` wrote; an unreadable row is a DataError naming file:line,
        and a log without rows one naming the file."""
        log = cls()
        try:
            handle = open(path, "r", encoding="utf-8", newline="")
        except OSError as e:
            raise DataError(f"cannot read loss log {path}: {e}") from e
        with handle as f:
            rows = csv.DictReader(f)
            try:
                for row in rows:
                    log.entries.append(LossLogEntry(
                        step=int(row["step"]), epoch=int(row["epoch"]), lr=float(row["lr"]),
                        loss=float(row["loss"]), ema_loss=float(row["ema_loss"]),
                    ))
            except (KeyError, TypeError, ValueError, csv.Error) as e:
                raise DataError(f"{path}:{rows.line_num}: not a loss log row "
                                f"({type(e).__name__}: {e})") from e
        if not log.entries:
            raise DataError(f"loss log {path} holds no records")
        return log


# ---------------------------------------------------------------------------
# training


def tokenize_corpus(corpus: Iterable, tokenizer, seq_len: int) -> list[list[int]]:
    """Encode one sequence per document, truncated at seq_len; documents
    shorter than MIN_SEQUENCE_TOKENS tokens are skipped."""
    seqs: list[list[int]] = []
    for doc in corpus:
        text = doc if isinstance(doc, str) else getattr(doc, "text", "")
        ids = tok_mod.encode(tokenizer, text, max_len=seq_len, add_specials=True).ids
        if len(ids) >= MIN_SEQUENCE_TOKENS:
            seqs.append(ids)
    return seqs


def build_encoder_config(config: TrainRunConfig, vocab_size: int) -> EncoderConfig:
    overrides: dict = {"vocab_size": vocab_size}
    base = preset(config.preset)
    if config.dropout_rate is not None:
        overrides["dropout_rate"] = config.dropout_rate
    if config.seq_len > base.max_seq_len:
        overrides["max_seq_len"] = config.seq_len
    return preset(config.preset, **overrides)


def _mask_epoch(
    sequences: list[list[int]],
    epoch: int,
    config: TrainRunConfig,
    vocab_size: int,
    mask_entropy: int,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Masked views of every sequence for one epoch, keyed by (epoch, index)
    so the pattern is independent of shuffling and batch shape."""
    masked: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for i, seq in enumerate(sequences):
        rng = np.random.default_rng(np.random.SeedSequence([mask_entropy, epoch, i]))
        m, lab = apply_mlm_masking(np.asarray(seq), config.mask_rate, rng, vocab_size)
        masked.append(m)
        labels.append(lab)
    return masked, labels


def _regions(params: dict[str, ad.Tensor], count: int, shared: bool) -> list[dict[str, np.ndarray]]:
    """`count` regions of one allocation, each holding an array shaped like
    every parameter (64-byte aligned), as one name -> array dict per region.
    A shared allocation is seen alike by processes forked after it."""
    offsets, size = {}, 0
    for name, p in params.items():
        offsets[name] = size
        size += -(-p.data.nbytes // 64) * 64
    if shared:
        from lusoforge.workers import shared_bytes

        memory = shared_bytes(count * size)
    else:
        memory = np.empty(count * size, dtype=np.uint8)
    return [{name: memory[r * size + offsets[name] : r * size + offsets[name] + p.data.nbytes]
             .view(p.data.dtype).reshape(p.data.shape) for name, p in params.items()}
            for r in range(count)]


def _micro_batch_gradient(model: DisentangledEncoder, slabs: list[dict[str, np.ndarray]],
                          dropout_entropy: int | None, step: int, k: int, batch: Batch,
                          total_count: int) -> tuple[float, list[str]]:
    """Write the gradient of micro-batch `k` of optimizer step `step`, divided
    by the window's `total_count` of predicted tokens, into `slabs[k]`.
    Return the micro-batch's summed NLL and the names of the parameters it
    reached. Dropout draws from a generator keyed by (step, k), so the masks
    do not depend on the process that runs the micro-batch."""
    rng = None
    if dropout_entropy is not None:
        rng = np.random.default_rng(np.random.SeedSequence([dropout_entropy, step, k]))
    select = batch.labels != ad.IGNORE_INDEX
    logits = model.mlm_logits(batch.ids, attn_mask=batch.attn_mask, rng=rng, select=select)
    loss = ad.cross_entropy(logits, batch.labels[select], reduction="sum")
    ad.backward(ad.scale(loss, 1.0 / total_count))
    reached = []
    for name, p in model.params.items():
        if p.grad is not None:
            slabs[k][name][...] = p.grad
            p.grad = None
            reached.append(name)
    return float(loss.data), reached


@contextmanager
def _window_runner(workers: int, job: Callable):
    """Yield `run(calls)`: the results of `job(*call)` in call order, computed
    here when `workers` is 1 and in a fork pool of `workers` processes
    otherwise. A dead worker is a DataError naming the optimizer step, which
    is each call's first item."""
    if workers == 1:
        yield lambda calls: [job(*call) for call in calls]
        return
    from lusoforge.workers import BrokenProcessPool, fork_pool

    with fork_pool(workers, job) as submit:
        def run(calls):
            futures = [submit(*call) for call in calls]
            try:
                return [f.result() for f in futures]
            except BrokenProcessPool as e:
                raise DataError(f"a pre-training worker died in optimizer step {calls[0][0]} "
                                f"({e}); last periodic checkpoint retained") from e

        yield run


def checkpoint_start(config: TrainRunConfig, tokenizer) -> tuple[EncoderConfig, dict]:
    """`train`'s start from config.init_checkpoint: its encoder config, with
    a given dropout_rate in place of the stored one, and its parameters. A
    fine-tuned checkpoint, a tokenizer of another vocabulary size or a
    seq_len above its max_seq_len is a DataError naming the file."""
    path = config.init_checkpoint
    enc_config, arrays, meta = load_checkpoint(path)
    check_head(path, meta, None)
    check_inputs_fit(enc_config, path, tokenizer.vocab_size, config.seq_len)
    if config.dropout_rate is not None:
        enc_config = replace(enc_config, dropout_rate=config.dropout_rate)
    return enc_config, params_from_arrays(arrays)  # every layer kept as stored


def train(config: TrainRunConfig, corpus: Iterable, tokenizer,
          start: tuple[EncoderConfig, dict] | None = None) -> tuple[DisentangledEncoder, LossLog]:
    """Run the MLM objective for total_steps optimizer steps.

    Each optimizer step consumes accumulation_steps micro-batches; gradients
    are summed and divided by the window's total count of predicted tokens,
    which reproduces single-large-batch training exactly. Non-finite loss
    aborts with the most recent periodic checkpoint left on disk.

    The micro-batches of a step run in `min(accumulation_steps, usable CPUs)`
    forked workers, or here when that is 1. The parameters live in memory
    the workers share, and Adam updates them in place, so no worker needs a
    copy. Each micro-batch's gradient goes to its own slab, and the slabs
    are summed left to right in micro-batch order; a micro-batch with no
    predicted token is skipped, and a parameter none of them reached gets no
    update. Dropout is keyed by (optimizer step, micro-batch index). So the
    outputs are the same bytes at any worker count. A dead worker is a
    DataError, again with the last periodic checkpoint left on disk, and no
    worker outlives the call.

    Training starts from `start` (see `checkpoint_start`), the only way a
    checkpoint reaches `train`, else from a fresh model of config.preset.
    """
    root = np.random.SeedSequence(config.seed)
    init_ss, mask_ss, shuffle_ss, dropout_ss = root.spawn(4)
    if start is None:
        enc_config = build_encoder_config(config, tokenizer.vocab_size)
        start = enc_config, init_params(enc_config, np.random.default_rng(init_ss))
    enc_config, params = start
    sequences = tokenize_corpus(corpus, tokenizer, config.seq_len)
    if not sequences:
        raise DataError("training corpus is empty after tokenization")

    window = config.accumulation_steps
    workers = min(window, len(os.sched_getaffinity(0)))
    homes, *slabs = _regions(params, 1 + window, shared=workers > 1)
    for name, view in homes.items():  # from here on, p.data is never rebound
        view[...] = params[name].data
        params[name].data = view
    model = DisentangledEncoder(enc_config, params)

    opt = Adam(params, lr=0.0, weight_decay=config.weight_decay)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    mask_entropy = int(mask_ss.generate_state(1, dtype=np.uint64)[0])
    dropout_entropy = int(dropout_ss.generate_state(1, dtype=np.uint64)[0])
    job = partial(_micro_batch_gradient, model, slabs,
                  dropout_entropy if enc_config.dropout_rate > 0 else None)

    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    log = LossLog()
    step = 0
    epoch = 0
    done = False
    with _window_runner(workers, job) as run:
        while not done:
            if config.epochs and epoch >= config.epochs:
                break
            masked, labels = _mask_epoch(sequences, epoch, config, enc_config.vocab_size,
                                         mask_entropy)
            epoch_seed = int(shuffle_rng.integers(np.iinfo(np.int64).max))
            batches = make_batches(masked, config.micro_batch_size, config.seq_len,
                                   epoch_seed, labels=labels)
            for w_start in range(0, len(batches), window):
                micro = batches[w_start : w_start + window]
                total_count = sum(int((b.labels != ad.IGNORE_INDEX).sum()) for b in micro)
                if total_count == 0:
                    continue
                # an all-ignored micro-batch has zero loss and no gradient
                calls = [(step + 1, k, b, total_count) for k, b in enumerate(micro)
                         if (b.labels != ad.IGNORE_INDEX).any()]
                opt.zero_grad()
                results = run(calls)
                for (_, k, _, _), (_, reached) in zip(calls, results):
                    # ((g0 + g1) + g2) + ..., summed into the first slab that has it
                    for name in reached:
                        p = params[name]
                        if p.grad is None:
                            p.grad = slabs[k][name]
                        else:
                            p.grad += slabs[k][name]
                mean_loss = sum(nll for nll, _ in results) / total_count
                if not np.isfinite(mean_loss):
                    raise NumericalError(
                        f"non-finite loss {mean_loss} at optimizer step {step + 1}; "
                        "last periodic checkpoint retained"
                    )
                step += 1
                lr = lr_at(step, config.warmup_steps, config.total_steps, config.peak_lr)
                opt.lr = lr
                opt.step()
                log.append(step=step, epoch=epoch, lr=lr, loss=mean_loss)
                if out_dir and config.checkpoint_every and step % config.checkpoint_every == 0:
                    save_checkpoint(out_dir / f"model_step{step:06d}.ckpt", enc_config,
                                    params, meta={"step": step, "epoch": epoch})
                if step >= config.total_steps:
                    done = True
                    break
            epoch += 1

    if out_dir:
        save_checkpoint(out_dir / "model.ckpt", enc_config, params,
                        meta={"step": step, "epoch": epoch})
        log.to_csv(out_dir / "loss_log.csv")
    return model, log
