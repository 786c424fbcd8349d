"""Fine-tuning and evaluation: task heads, the hyperparameter grid, selection.

A grid run is 2 dropouts x 3 learning rates x 2 precisions x 3 seeds = 36
fine-tuning runs, grouped into 12 configurations of 3 seeds each. Selection
looks only at development scores (mean over seeds); the reported number is
the selected configuration's test mean. Test scores are recorded for every
run but never consulted during selection.

The runs are independent and each is seeded by its own grid point, so
`run_grid` runs them in forked worker processes (`workers.fork_pool`), one
per usable CPU, and orders the records by grid index: the report is the
same at any worker count. Each worker pins BLAS to one thread, and a
worker's death fails only the grid point that caused it. With one usable
CPU the runs go one after another in the calling process.

Task examples come from TSV files (`read_task_tsv`) and are tokenized by
`encode_examples`. One scorer, `evaluate`, turns predictions into the task
metric: every epoch's dev score, every grid run's test score and the CLI's
`eval` all go through it.

Half precision is emulated: parameters are rounded through float16 storage
after each optimizer step while all arithmetic stays float32.
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
from lusoforge.encoder import DisentangledEncoder, EncoderConfig, is_emd_param
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
    except OSError as e:
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


class TaskModel:
    """Encoder + freshly seeded linear head over the CLS representation.

    Only encoder tensors are copied in: the mask decoder's tensors get no
    gradient from a task head, so they are left out of the model, its
    optimizer state and its checkpoint.
    """

    def __init__(self, enc_config: EncoderConfig, enc_params: dict[str, Tensor],
                 head_type: str, dropout: float, seed: int):
        from collections import OrderedDict

        cfg = replace(enc_config, dropout_rate=dropout)
        params: OrderedDict[str, Tensor] = OrderedDict(
            (k, Tensor(v.data.copy(), requires_grad=True))
            for k, v in enc_params.items() if not is_emd_param(k)
        )
        h = cfg.hidden_size
        out_dim = 1 if head_type == "regression" else 2
        head_rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
        params["head.w"] = Tensor(head_rng.normal(0.0, 0.02, size=(h, out_dim)),
                                  requires_grad=True, dtype=np.float32)
        params["head.b"] = Tensor(np.zeros(out_dim), requires_grad=True, dtype=np.float32)
        self.config = cfg
        self.head_type = head_type
        self.params = params
        self.encoder = DisentangledEncoder(cfg, params)

    def forward(self, ids, segments, attn_mask, rng=None) -> Tensor:
        hidden = self.encoder.forward(ids, segments, attn_mask, rng)
        pooled = ad.take(hidden[-1], 0, axis=1)          # CLS position
        pooled = ad.dropout(pooled, self.config.dropout_rate, rng)
        return ad.add(ad.matmul(pooled, self.params["head.w"]), self.params["head.b"])


def attach_head(enc_config: EncoderConfig, enc_params: dict[str, Tensor],
                head_type: str, dropout: float = 0.0, seed: int = 0) -> TaskModel:
    return TaskModel(enc_config, enc_params, head_type, dropout, seed)


def load_task_model(enc_config: EncoderConfig, arrays: dict[str, np.ndarray],
                    head_type: str) -> TaskModel:
    """Rebuild a fine-tuned model (encoder + head) from checkpoint arrays.
    Decoder tensors that older fine-tuned checkpoints still hold are dropped.
    `TaskModel` copies the encoder arrays; the head takes its float32 arrays
    as they are."""
    if "head.w" not in arrays or "head.b" not in arrays:
        raise DataError("checkpoint has no task head; fine-tune first")
    enc_arrays = {k: Tensor(v) for k, v in arrays.items() if not k.startswith("head.")}
    model = TaskModel(enc_config, enc_arrays, head_type, dropout=0.0, seed=0)
    model.params["head.w"].data = np.asarray(arrays["head.w"], dtype=np.float32)
    model.params["head.b"].data = np.asarray(arrays["head.b"], dtype=np.float32)
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
    """Deterministic (dropout-free) predictions: class ids or clipped values,
    PREDICT_BATCH_SIZE examples per forward. The forward runs under
    `no_grad`, so it builds no graph."""
    preds: list[np.ndarray] = []
    for start in range(0, len(encoded), PREDICT_BATCH_SIZE):
        ids, segs, mask = _pad_batch(encoded[start : start + PREDICT_BATCH_SIZE])
        with ad.no_grad():
            out = model.forward(ids, segs, mask, rng=None)
        if model.head_type == "regression":
            vals = out.data[:, 0].astype(np.float64)
            if label_range is not None:
                vals = np.clip(vals, label_range[0], label_range[1])
            preds.append(vals)
        else:
            preds.append(np.argmax(out.data, axis=1).astype(np.float64))
    return np.concatenate(preds) if preds else np.zeros(0)


def evaluate(model: TaskModel, encoded, labels, spec: TaskSpec) -> float:
    """The task metric of the model's predictions against gold labels."""
    preds = predict(model, encoded, label_range=spec.label_range)
    if spec.head_type == "regression":
        score = metric_fn(spec)(list(preds), list(labels))
    else:
        score = metric_fn(spec)([int(p) for p in preds], [int(g) for g in labels])
    return float(score)


def _round_fp16(params: dict[str, Tensor]):
    for p in params.values():
        p.data = p.data.astype(np.float16).astype(np.float32)


@dataclass
class FinetuneResult:
    dev_score: float
    best_epoch: int
    epoch_scores: list[float]
    model: TaskModel


def finetune(model: TaskModel, train_examples, dev_examples, grid_point: GridPoint,
             spec: TaskSpec, tokenizer, seq_len: int = 128, epochs: int = 5,
             batch_size: int = 16) -> FinetuneResult:
    """Constant-lr fine-tuning of the whole model for `epochs` epochs.

    The dev metric runs after every epoch; the weights of the best epoch
    (earliest on ties) are restored into the returned model.
    """
    if not dev_examples:
        raise DataError("finetune: dev split is empty")
    if not train_examples:
        raise DataError("finetune: train split is empty")
    train_enc, train_labels = encode_examples(train_examples, tokenizer, seq_len)
    dev_enc, dev_labels = encode_examples(dev_examples, tokenizer, seq_len)

    opt = Adam(model.params, lr=grid_point.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([grid_point.seed, 11]))
    dropout_rng = (np.random.default_rng(np.random.SeedSequence([grid_point.seed, 13]))
                   if grid_point.dropout > 0 else None)

    best_score = -np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] = {}
    epoch_scores: list[float] = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(train_enc))
        for start in range(0, len(order), batch_size):
            idxs = [int(i) for i in order[start : start + batch_size]]
            ids, segs, mask = _pad_batch([train_enc[i] for i in idxs])
            out = model.forward(ids, segs, mask, rng=dropout_rng)
            if model.head_type == "regression":
                target = Tensor(train_labels[idxs].astype(np.float32).reshape(-1, 1))
                diff = ad.sub(out, target)
                loss = ad.tensor_mean(ad.mul(diff, diff))
            else:
                loss = ad.cross_entropy(out, train_labels[idxs].astype(np.int64))
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            if grid_point.precision == "fp16":
                _round_fp16(model.params)
        s = evaluate(model, dev_enc, dev_labels, spec)
        epoch_scores.append(s)
        if s > best_score:
            best_score = s
            best_epoch = epoch
            best_state = {k: p.data.copy() for k, p in model.params.items()}

    if best_epoch < 0:
        raise DataError("finetune: no epoch produced a usable dev score")
    for k, p in model.params.items():
        p.data = best_state[k]
    return FinetuneResult(dev_score=best_score, best_epoch=best_epoch,
                          epoch_scores=epoch_scores, model=model)


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


def _blank_record(index: int, gp: GridPoint) -> RunRecord:
    return RunRecord(index=index, dropout=gp.dropout, lr=gp.lr, precision=gp.precision,
                     seed=gp.seed)


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
        payload = {
            "task": self.task,
            "metric": self.metric,
            "runs": [asdict(r) for r in self.runs],
            "configs": [
                {
                    "dropout": c.dropout, "lr": c.lr, "precision": c.precision,
                    "dev_scores": c.dev_scores, "dev_mean": c.dev_mean,
                    "test_scores": c.test_scores, "test_mean": c.test_mean,
                    "n_failed": c.n_failed,
                }
                for c in self.configs
            ],
            "selected_config": self.selected_config,
            "reported_test_score": self.reported_test_score,
            "n_failed": self.n_failed,
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


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
    best: ConfigRow | None = None
    for row in rows:
        if row.dev_mean is None:
            continue
        if best is None or row.dev_mean > best.dev_mean:
            best = row
    return best


def run_grid(enc_config: EncoderConfig, enc_params: dict[str, Tensor], spec: TaskSpec,
             tokenizer, train_examples, dev_examples, test_examples,
             grid: Sequence[GridPoint] | None = None, seq_len: int = 128,
             epochs: int = 5, batch_size: int = 16,
             on_run: Callable[[RunRecord, float | None], None] | None = None) -> MetricsReport:
    """Execute every grid point, then aggregate, select on dev, report test.

    The points run in `min(len(grid), usable CPUs)` forked worker processes,
    or one after another in this process when that is 1. Records are kept in
    grid order whatever order the runs finish in. Failed runs are recorded
    with their error, excluded from means, and counted in the report. A
    worker that dies breaks the pool; each point left unfinished then runs
    again alone in a one-worker pool, so only a point that kills its own
    worker is recorded as failed. Each worker runs BLAS on one thread. Each
    run fine-tunes a private model copy. `on_run(record, seconds)` is called
    here as each run finishes, with the seconds the run took (None when its
    worker died).
    """
    grid = list(grid) if grid is not None else full_grid()
    if not grid:
        raise DataError("run_grid: empty grid")
    test_enc, test_labels = encode_examples(test_examples, tokenizer, seq_len)

    def one_run(index: int) -> tuple[RunRecord, float]:
        """The record of grid point `index` and the seconds its run took."""
        start = time.perf_counter()
        gp = grid[index]
        record = _blank_record(index, gp)
        try:
            model = attach_head(enc_config, enc_params, spec.head_type,
                                dropout=gp.dropout, seed=gp.seed)
            result = finetune(model, train_examples, dev_examples, gp, spec,
                              tokenizer, seq_len=seq_len, epochs=epochs,
                              batch_size=batch_size)
            record.dev_score = result.dev_score
            record.test_score = evaluate(result.model, test_enc, test_labels, spec)
            record.best_epoch = result.best_epoch
        except Exception as e:  # a failed point must not sink the sweep
            record.status = "failed"
            record.error = f"{type(e).__name__}: {e}"
        return record, time.perf_counter() - start

    records: list[RunRecord | None] = [None] * len(grid)

    def finished(record: RunRecord, seconds: float | None):
        records[record.index] = record
        if on_run is not None:
            on_run(record, seconds)

    workers = min(len(grid), len(os.sched_getaffinity(0)))
    if workers == 1:
        for index in range(len(grid)):
            finished(*one_run(index))
    else:
        from lusoforge.workers import BrokenProcessPool, as_completed, fork_pool

        unfinished = []
        with fork_pool(workers, one_run) as submit:
            futures = {submit(i): i for i in range(len(grid))}
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BrokenProcessPool:
                    unfinished.append(futures[future])
                    continue
                finished(*result)
        # a dead worker broke the shared pool: rerun each point it left
        # unfinished alone, so that only the point that kills its own
        # worker is recorded as failed
        for index in sorted(unfinished):
            with fork_pool(1, one_run) as submit:
                try:
                    result = submit(index).result()
                except BrokenProcessPool as e:
                    record = _blank_record(index, grid[index])
                    record.status = "failed"
                    record.error = f"BrokenProcessPool: {e}"
                    result = record, None
            finished(*result)

    rows = group_runs(records)
    best = select_config(rows)
    selected = None
    reported = None
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
