"""Fine-tuning and evaluation: task heads, the hyperparameter grid, selection.

A grid run is 2 dropouts x 3 learning rates x 2 precisions x 3 seeds = 36
fine-tuning runs, grouped into 12 configurations of 3 seeds each. Selection
looks only at development scores (mean over seeds); the reported number is
the selected configuration's test mean. Test scores are recorded for every
run but never consulted during selection.

A run's seed alone draws its head, batch order and dropout masks, so the 6
runs of a (dropout, seed) differ only in lr and precision. `run_grid` trains
each such group as one `TaskModel` stacked on a leading model axis, a slice
per run that computes the bits of its run alone; a run's fault fails only
its slice. The groups run in forked workers (`workers.fork_pool`), and the
records come in grid order, so the report is the same at any worker count.

Task examples come from TSV files (`read_task_tsv`) and are tokenized by
`encode_examples`. One scorer, `evaluate`, turns predictions into the task
metric: every epoch's dev score, every grid run's test score and the CLI's
`eval` all go through it.

The task head reads only the CLS state, so `TaskModel` asks the encoder for
the first position of its last layer alone (`last_rows=1`): that layer's
queries, residual and FFN run over one row, in training and in `predict`,
while its keys and values span the sequence.

Half precision is emulated: an fp16 run's parameters are rounded through
float16 storage after each optimizer step while all arithmetic stays float32.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from lusoforge import autodiff as ad
from lusoforge import metrics as met
from lusoforge import tokenizer as tok_mod
from lusoforge.autodiff import Tensor
from lusoforge.encoder import (DisentangledEncoder, EncoderConfig, add_bias, init_tensor,
                               param_shapes)
from lusoforge.errors import DataError, UsageError
from lusoforge.optim import Adam

GRID_DROPOUTS = (0.0, 0.1)
GRID_LRS = (1e-6, 5e-6, 1e-5)
GRID_PRECISIONS = ("fp32", "fp16")
GRID_SEEDS = (41, 42, 43)
PREDICT_BATCH_SIZE = 32


@dataclass
class TaskExample:
    sentence_a: str
    sentence_b: str
    label: float


@dataclass(frozen=True)
class TaskSpec:
    name: str
    head_type: str                     # "regression" | "binary_classification"
    metric: str                        # "pearson" | "accuracy" | "f1"
    label_range: tuple[float, float] | None = None

    def __post_init__(self):
        compat = {"regression": {"pearson"}, "binary_classification": {"accuracy", "f1"}}
        if self.metric not in compat.get(self.head_type, set()):
            raise ValueError(f"metric {self.metric!r} incompatible with head {self.head_type!r}")


TASKS: dict[str, TaskSpec] = {
    "sts": TaskSpec("sts", "regression", "pearson", label_range=(1.0, 5.0)),
    "stsb": TaskSpec("stsb", "regression", "pearson", label_range=(0.0, 5.0)),
    "rte": TaskSpec("rte", "binary_classification", "accuracy"),
    "wnli": TaskSpec("wnli", "binary_classification", "accuracy"),
    "mrpc": TaskSpec("mrpc", "binary_classification", "f1"),
}


def metric_fn(spec: TaskSpec) -> Callable:
    return {"pearson": met.pearson, "accuracy": met.accuracy, "f1": met.f1_binary}[spec.metric]


# ---------------------------------------------------------------------------
# task file IO


def read_task_tsv(path: str | Path, spec: TaskSpec) -> list[TaskExample]:
    """Tab-separated, header `sentence_a\tsentence_b\tlabel`."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read task file {path}: {e}") from e
    if not lines or lines[0].split("\t") != ["sentence_a", "sentence_b", "label"]:
        raise DataError(f"{path}: expected header 'sentence_a\\tsentence_b\\tlabel'")
    out: list[TaskExample] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        a, b, raw = parts
        if spec.head_type == "regression":
            try:
                label = float(raw)
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: bad regression label {raw!r}") from e
            if spec.label_range and not (spec.label_range[0] <= label <= spec.label_range[1]):
                raise DataError(f"{path}:{lineno}: label {label} outside {spec.label_range}")
        else:
            if raw not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: class label must be 0 or 1, got {raw!r}")
            label = float(int(raw))
        out.append(TaskExample(a, b, label))
    return out


def write_task_tsv(examples: Sequence[TaskExample], path: str | Path, spec: TaskSpec):
    with open(path, "w", encoding="utf-8") as f:
        f.write("sentence_a\tsentence_b\tlabel\n")
        for ex in examples:
            label = repr(ex.label) if spec.head_type == "regression" else str(int(ex.label))
            a = ex.sentence_a.replace("\t", " ").replace("\n", " ")
            b = ex.sentence_b.replace("\t", " ").replace("\n", " ")
            f.write(f"{a}\t{b}\t{label}\n")


def split_train_dev(examples: Sequence[TaskExample], dev_fraction: float = 0.1,
                    seed: int = 0) -> tuple[list[TaskExample], list[TaskExample]]:
    """Deterministic shuffled split; dev gets max(1, floor(n * fraction))."""
    if not 0.0 < dev_fraction < 1.0:
        raise UsageError(f"dev_fraction {dev_fraction} outside (0, 1)")
    n = len(examples)
    if n < 2:
        raise DataError(f"need at least 2 examples to split, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    perm = rng.permutation(n)
    n_dev = max(1, int(n * dev_fraction))
    dev_idx = set(int(i) for i in perm[:n_dev])
    train = [examples[i] for i in range(n) if i not in dev_idx]
    dev = [examples[i] for i in range(n) if i in dev_idx]
    return train, dev


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class GridPoint:
    dropout: float
    lr: float
    precision: str
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.lr < math.inf:  # 0 is allowed: the run leaves the weights as they are
            raise UsageError(f"lr must be >= 0 and finite, got {self.lr}")
        if self.precision not in GRID_PRECISIONS:
            raise UsageError(f"precision must be one of {GRID_PRECISIONS}, got {self.precision!r}")


def full_grid() -> list[GridPoint]:
    return [GridPoint(d, lr, p, s)
            for d in GRID_DROPOUTS for lr in GRID_LRS
            for p in GRID_PRECISIONS for s in GRID_SEEDS]


# ---------------------------------------------------------------------------
# task model


class _SharedMasks:
    """A generator that draws each dropout mask at one slice's shape, for all slices."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.rng.random(shape[1:])


class TaskModel:
    """A group of `size` task models: encoder + freshly seeded linear head
    over the CLS representation, stacked on a leading model axis.

    Its tensors are `param_shapes(config, head_type)`, each [size, ...]:
    every slice starts from the encoder's arrays and the head drawn from
    `seed`. The mask decoder gets no gradient from a task head, so the
    model, its optimizer state and its checkpoint omit it.
    """

    def __init__(self, enc_config: EncoderConfig, enc_params: dict[str, Tensor],
                 head_type: str, dropout: float, seed: int, size: int = 1):
        cfg = replace(enc_config, dropout_rate=dropout)
        head_rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
        params = {}
        for name, shape in param_shapes(cfg, head_type).items():
            one = (init_tensor(name, shape, head_rng, np.float32).data if name.startswith("head.")
                   else enc_params[name].data)
            params[name] = Tensor(np.repeat(one[None], size, axis=0), requires_grad=True)
        self.config = cfg
        self.head_type = head_type
        self.size = size
        self.params = params
        self.encoder = DisentangledEncoder(cfg, params)

    def forward(self, ids, segments, attn_mask, rng=None) -> Tensor:
        """The outputs [size, B, width] of every slice on one batch."""
        rng = None if rng is None else _SharedMasks(rng)
        hidden = self.encoder.forward(ids, segments, attn_mask, rng, last_rows=1)
        pooled = ad.take(hidden[-1], 0, axis=-2)          # CLS position
        pooled = ad.dropout(pooled, self.config.dropout_rate, rng)
        return add_bias(ad.matmul(pooled, self.params["head.w"]), self.params["head.b"])

    def slice(self, g: int) -> dict[str, np.ndarray]:
        """The arrays of slice g, without the model axis."""
        return {name: p.data[g] for name, p in self.params.items()}


def attach_head(enc_config: EncoderConfig, enc_params: dict[str, Tensor],
                head_type: str, dropout: float = 0.0, seed: int = 0, size: int = 1) -> TaskModel:
    return TaskModel(enc_config, enc_params, head_type, dropout, seed, size)


def load_task_model(enc_config: EncoderConfig, arrays: dict[str, np.ndarray],
                    head_type: str) -> TaskModel:
    """Rebuild a fine-tuned model, as a group of one, from the arrays
    `load_checkpoint` checked against `param_shapes(enc_config, head_type)`."""
    model = TaskModel(enc_config, {k: Tensor(v) for k, v in arrays.items()}, head_type,
                      dropout=0.0, seed=0)
    for name in ("head.w", "head.b"):
        model.params[name].data[0] = arrays[name]
    return model


# ---------------------------------------------------------------------------
# fine-tuning one run


def encode_examples(examples, tokenizer, seq_len):
    """Token sequences and float labels of task examples."""
    encoded = [tok_mod.encode_pair(tokenizer, ex.sentence_a, ex.sentence_b, seq_len)
               for ex in examples]
    labels = np.asarray([ex.label for ex in examples], dtype=np.float64)
    return encoded, labels


def _pad_batch(encoded: Sequence[tok_mod.TokenSequence]):
    width = max(len(e.ids) for e in encoded)
    n = len(encoded)
    ids = np.zeros((n, width), dtype=np.int64)
    segs = np.zeros((n, width), dtype=np.int64)
    mask = np.zeros((n, width), dtype=np.float32)
    for r, e in enumerate(encoded):
        ids[r, : len(e.ids)] = e.ids
        segs[r, : len(e.ids)] = e.segments
        mask[r, : len(e.ids)] = 1.0
    return ids, segs, mask


def predict(model: TaskModel, encoded,
            label_range: tuple[float, float] | None = None) -> np.ndarray:
    """Deterministic (dropout-free) predictions of every slice, [size, N]:
    class ids or clipped values, PREDICT_BATCH_SIZE examples per forward.
    The forward runs under `no_grad`, so it builds no graph."""
    preds: list[np.ndarray] = []
    for start in range(0, len(encoded), PREDICT_BATCH_SIZE):
        ids, segs, mask = _pad_batch(encoded[start : start + PREDICT_BATCH_SIZE])
        with ad.no_grad():
            out = model.forward(ids, segs, mask, rng=None)
        if model.head_type == "regression":
            vals = out.data[..., 0].astype(np.float64)
            if label_range is not None:
                vals = np.clip(vals, label_range[0], label_range[1])
            preds.append(vals)
        else:
            preds.append(np.argmax(out.data, axis=-1).astype(np.float64))
    return np.concatenate(preds, axis=1) if preds else np.zeros((model.size, 0))


def evaluate(model: TaskModel, encoded, labels, spec: TaskSpec) -> list:
    """The task metric of each slice's predictions against gold labels, or
    the exception its metric raised, so that the slice fails alone."""
    regression = spec.head_type == "regression"
    gold = list(labels) if regression else [int(g) for g in labels]
    scores: list = []
    for preds in predict(model, encoded, label_range=spec.label_range):
        try:
            scores.append(float(metric_fn(spec)(
                list(preds) if regression else [int(p) for p in preds], gold)))
        except Exception as e:  # noqa: BLE001  (one slice's fault)
            scores.append(e)
    return scores


def _round_fp16(params: dict[str, Tensor], slices: list[int]):
    """Round the given slices of every parameter through float16 storage."""
    for p in params.values():
        for g in slices:
            p.data[g] = p.data[g].astype(np.float16)


@dataclass
class FinetuneResult:
    """One slice's run; its scores count only when `error` is None."""
    dev_score: float = -np.inf
    best_epoch: int = -1
    epoch_scores: list[float] = field(default_factory=list)
    error: Exception | None = None


def finetune(model: TaskModel, train_examples, dev_examples, group: Sequence[GridPoint],
             spec: TaskSpec, tokenizer, seq_len: int = 128, epochs: int = 5,
             batch_size: int = 16) -> list[FinetuneResult]:
    """Constant-lr fine-tuning of the whole model for `epochs` epochs, slice
    g as the run of `group[g]`.

    The points share the model's dropout rate and a seed (the batch order
    and the dropout masks), so one forward, backward and Adam step per batch
    serve them all; slice g trains at its own lr and, at fp16, is rounded
    through float16 after each step. The dev metric runs after every epoch;
    each slice's weights of its best epoch (earliest on ties) are restored
    into the model. A non-finite gradient, a metric error or no usable dev
    score fails its slice alone: its result holds the error.
    """
    if not dev_examples:
        raise DataError("finetune: dev split is empty")
    if not train_examples:
        raise DataError("finetune: train split is empty")
    train_enc, train_labels = encode_examples(train_examples, tokenizer, seq_len)
    dev_enc, dev_labels = encode_examples(dev_examples, tokenizer, seq_len)

    opt = Adam(model.params, lr=[gp.lr for gp in group])
    half = [g for g, gp in enumerate(group) if gp.precision == "fp16"]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([group[0].seed, 11]))
    dropout_rng = (np.random.default_rng(np.random.SeedSequence([group[0].seed, 13]))
                   if model.config.dropout_rate > 0 else None)

    results = [FinetuneResult() for _ in group]
    best_state = {k: p.data.copy() for k, p in model.params.items()}
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(train_enc))
        for start in range(0, len(order), batch_size):
            idxs = [int(i) for i in order[start : start + batch_size]]
            ids, segs, mask = _pad_batch([train_enc[i] for i in idxs])
            out = model.forward(ids, segs, mask, rng=dropout_rng)
            # each slice's loss is the sum over its rows, so 1/B makes its mean
            if model.head_type == "regression":
                target = Tensor(train_labels[idxs].astype(np.float32).reshape(-1, 1))
                diff = ad.sub(out, target)
                loss = ad.tensor_sum(ad.mul(diff, diff))
            else:
                labels = np.tile(train_labels[idxs].astype(np.int64), model.size)
                loss = ad.cross_entropy(ad.reshape(out, (-1, out.shape[-1])), labels,
                                        reduction="sum")
            opt.zero_grad()
            ad.backward(ad.scale(loss, 1.0 / len(idxs)))
            for r, error in zip(results, opt.step()):
                r.error = r.error or error
            _round_fp16(model.params, half)
        for g, (r, s) in enumerate(zip(results, evaluate(model, dev_enc, dev_labels, spec))):
            if r.error is None and isinstance(s, Exception):
                r.error = s
            elif r.error is None:
                r.epoch_scores.append(s)
                if s > r.dev_score:
                    r.dev_score, r.best_epoch = s, epoch
                    for k, p in model.params.items():
                        best_state[k][g] = p.data[g]
        if all(r.error is not None for r in results):
            break

    for k, p in model.params.items():
        p.data = best_state[k]
    for r in results:
        if r.error is None and r.best_epoch < 0:
            r.error = DataError("finetune: no epoch produced a usable dev score")
    return results


# ---------------------------------------------------------------------------
# the 36-run protocol


@dataclass
class RunRecord:
    index: int
    dropout: float
    lr: float
    precision: str
    seed: int
    status: str = "ok"              # "ok" | "failed"
    dev_score: float | None = None
    test_score: float | None = None
    best_epoch: int | None = None
    error: str = ""


def _record(index: int, gp: GridPoint, error: Exception | None = None, **scores) -> RunRecord:
    """The record of grid point `index`: failed with `error`, else with `scores`."""
    if error is not None:
        scores = {"status": "failed", "error": f"{type(error).__name__}: {error}"}
    return RunRecord(index=index, dropout=gp.dropout, lr=gp.lr, precision=gp.precision,
                     seed=gp.seed, **scores)


@dataclass
class ConfigRow:
    dropout: float
    lr: float
    precision: str
    dev_scores: list[float] = field(default_factory=list)
    test_scores: list[float] = field(default_factory=list)
    n_failed: int = 0

    @property
    def dev_mean(self) -> float | None:
        return float(np.mean(self.dev_scores)) if self.dev_scores else None

    @property
    def test_mean(self) -> float | None:
        return float(np.mean(self.test_scores)) if self.test_scores else None


@dataclass
class MetricsReport:
    task: str
    metric: str
    runs: list[RunRecord]
    configs: list[ConfigRow]
    selected_config: dict | None
    reported_test_score: float | None
    n_failed: int

    def to_json(self) -> str:
        """Every field, each config row also with its dev and test means."""
        configs = [{**asdict(c), "dev_mean": c.dev_mean, "test_mean": c.test_mean}
                   for c in self.configs]
        return json.dumps({**asdict(self), "configs": configs}, ensure_ascii=False,
                          sort_keys=True, indent=2) + "\n"


def group_runs(records: Sequence[RunRecord]) -> list[ConfigRow]:
    """One row per (dropout, lr, precision), aggregating its seed runs, in
    the order each configuration first appears; records come in grid order,
    so the full grid gives its 12 rows in grid order."""
    rows: dict[tuple, ConfigRow] = {}
    for r in records:
        key = (r.dropout, r.lr, r.precision)
        row = rows.setdefault(key, ConfigRow(dropout=r.dropout, lr=r.lr, precision=r.precision))
        if r.status == "ok":
            row.dev_scores.append(r.dev_score)
            row.test_scores.append(r.test_score)
        else:
            row.n_failed += 1
    return list(rows.values())


def select_config(rows: Sequence[ConfigRow]) -> ConfigRow | None:
    """Argmax of mean dev score; earliest row wins ties. Rows with no
    successful runs are not eligible."""
    return max((row for row in rows if row.dev_mean is not None), key=lambda row: row.dev_mean,
               default=None)


def grid_groups(grid: Sequence[GridPoint]) -> list[list[int]]:
    """The indices of the points of each (dropout, seed), in order: 6 groups of 6 in full."""
    groups: dict[tuple, list[int]] = {}
    for index, gp in enumerate(grid):
        groups.setdefault((gp.dropout, gp.seed), []).append(index)
    return list(groups.values())


def run_grid(enc_config: EncoderConfig, enc_params: dict[str, Tensor], spec: TaskSpec,
             tokenizer, train_examples, dev_examples, test_examples,
             grid: Sequence[GridPoint] | None = None, seq_len: int = 128,
             epochs: int = 5, batch_size: int = 16,
             on_run: Callable[[RunRecord, float | None], None] | None = None) -> MetricsReport:
    """Execute every grid point, then aggregate, select on dev, report test.

    The points of each (dropout, seed) (`grid_groups`) fine-tune as one
    stacked model, a slice per point, on a private copy of the encoder. The
    groups run in `min(groups, usable CPUs)` forked worker processes, or one
    after another here when that is 1. Records are kept in grid order.
    Failed runs are recorded with their error, excluded from means, and
    counted in the report; a run's own fault fails its slice alone. A worker
    that dies breaks the pool; each group left unfinished then runs again
    alone in a one-worker pool, so only a group that kills its own worker
    has its runs recorded as failed. Each worker runs BLAS on one thread.
    `on_run(record, seconds)` is called here once per record as its group
    finishes, with the seconds the group took (None when its worker died).
    """
    grid = list(grid) if grid is not None else full_grid()
    if not grid:
        raise DataError("run_grid: empty grid")
    groups = grid_groups(grid)
    test_enc, test_labels = encode_examples(test_examples, tokenizer, seq_len)

    def one_group(n: int) -> tuple[list[RunRecord], float]:
        """The records of group `n` and the seconds its runs took."""
        start = time.perf_counter()
        points = [grid[i] for i in groups[n]]
        try:
            model = attach_head(enc_config, enc_params, spec.head_type, dropout=points[0].dropout,
                                seed=points[0].seed, size=len(points))
            results = finetune(model, train_examples, dev_examples, points, spec,
                               tokenizer, seq_len=seq_len, epochs=epochs,
                               batch_size=batch_size)
            tests = evaluate(model, test_enc, test_labels, spec)
            records = [_record(i, grid[i], r.error or (t if isinstance(t, Exception) else None),
                               dev_score=r.dev_score, test_score=t, best_epoch=r.best_epoch)
                       for i, r, t in zip(groups[n], results, tests)]
        except Exception as e:  # a failed group must not sink the sweep
            records = [_record(i, grid[i], e) for i in groups[n]]
        return records, time.perf_counter() - start

    records: list[RunRecord | None] = [None] * len(grid)

    def finished(done: list[RunRecord], seconds: float | None):
        for record in done:
            records[record.index] = record
            if on_run is not None:
                on_run(record, seconds)

    workers = min(len(groups), len(os.sched_getaffinity(0)))
    if workers == 1:
        for n in range(len(groups)):
            finished(*one_group(n))
    else:
        from lusoforge.workers import BrokenProcessPool, as_completed, fork_pool

        unfinished = []
        with fork_pool(workers, one_group) as submit:
            futures = {submit(n): n for n in range(len(groups))}
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BrokenProcessPool:
                    unfinished.append(futures[future])
                    continue
                finished(*result)
        # a dead worker broke the shared pool: rerun each group it left
        # unfinished alone, so that only the group that kills its own
        # worker has its runs recorded as failed
        for n in sorted(unfinished):
            with fork_pool(1, one_group) as submit:
                try:
                    result = submit(n).result()
                except BrokenProcessPool as e:
                    result = [_record(i, grid[i], e) for i in groups[n]], None
            finished(*result)

    rows = group_runs(records)
    best = select_config(rows)
    selected = reported = None
    if best is not None:
        selected = {"dropout": best.dropout, "lr": best.lr, "precision": best.precision,
                    "dev_mean": best.dev_mean}
        reported = best.test_mean
    return MetricsReport(
        task=spec.name,
        metric=spec.metric,
        runs=records,
        configs=rows,
        selected_config=selected,
        reported_test_score=reported,
        n_failed=sum(1 for r in records if r.status == "failed"),
    )


def report_csv_summary(scores: Sequence[tuple[str, float | None]],
                       model_name: str = "encoder") -> str:
    """One row per model, one column per task: (task, reported test score)
    pairs; a missing score is an empty cell."""
    header = "model," + ",".join(task for task, _ in scores)
    cells = ["" if score is None else repr(score) for _, score in scores]
    return header + "\n" + model_name + "," + ",".join(cells) + "\n"


# ---------------------------------------------------------------------------
# synthetic fixtures (keep CI self-contained; no external datasets)


def synthetic_task_examples(spec: TaskSpec, n: int, seed: int = 0) -> list[TaskExample]:
    """Toy sentence pairs with learnable structure.

    Classification: label 1 iff sentence_a contains the marker word "sim".
    Regression: label = 1 + 4 * (word overlap between the two sentences).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    words = [f"t{i:02d}" for i in range(24)]
    out: list[TaskExample] = []
    for _ in range(n):
        a_words = [words[int(i)] for i in rng.integers(0, len(words), size=6)]
        if spec.head_type == "binary_classification":
            label = float(rng.random() < 0.5)
            if label == 1.0:
                a_words[int(rng.integers(0, len(a_words)))] = "sim"
            b_words = [words[int(i)] for i in rng.integers(0, len(words), size=6)]
        else:
            overlap = int(rng.integers(0, 7))
            b_words = a_words[:overlap] + [words[int(i)] for i in rng.integers(0, len(words), size=6 - overlap)]
            label = 1.0 + 4.0 * (overlap / 6.0)
        out.append(TaskExample(" ".join(a_words), " ".join(b_words), label))
    return out
