"""Command-line entry point: corpus curation, tokenizer training, MLM
pre-training, fine-tuning, grid sweeps, evaluation, and report rendering.

Each setting is declared once. `pretrain`'s settings and defaults are the
fields of `pretrain.TrainRunConfig` (less `seed` and `out_dir`),
`corpus filter`'s those of `corpus.PipelineConfig` (less `thresholds`), and
every other command's its `*_SETTINGS` dict below. A setting's flag is
`--flag-name`, typed like its default; `corpus filter`'s flags (`--cc`,
`--dedup`/`--no-dedup`, `--near-dups`) are written out by hand, and
`dev_fraction`, `near_dup_jaccard`, `near_dup_ngram` and `thresholds` are
config-file only. Every setting resolves as CLI flag > config file >
built-in default, and each resolution is logged. A config-file key that is
none of the command's settings, `seed` or (`corpus filter`) `thresholds` is
a usage error.

`main` loads the config file, resolves the seed, creates the output
directory and starts the run's RunManifest, so its `started_at` precedes
the work, then calls the command's handler, which ends by writing that
manifest next to its outputs. `sweep` writes one stderr line per finished
grid run: its index, grid point, scores or error, and seconds. Exit codes:
0 success, 1 usage error, 2 data error or any other LusoforgeError (such as
ShapeError), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from lusoforge import __version__
from lusoforge import corpus as corpus_mod
from lusoforge import finetune as ft
from lusoforge import pretrain as pt
from lusoforge import tokenizer as tok_mod
from lusoforge.checkpoint import (check_head, check_inputs_fit, load_checkpoint,
                                  params_from_arrays, save_checkpoint)
from lusoforge.errors import DataError, LusoforgeError, NumericalError, UsageError
from lusoforge.manifest import RunManifest

log = logging.getLogger("lusoforge")


def _field_defaults(cls, *skip: str) -> dict:
    """The defaults of a config dataclass's fields, in field order, less `skip`."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


_PRETRAIN_SETTINGS = _field_defaults(pt.TrainRunConfig, "seed", "out_dir")
_FILTER_SETTINGS = _field_defaults(corpus_mod.PipelineConfig, "thresholds")
_TOKENIZER_SETTINGS = {"vocab_size": 8192}
_FINETUNE_SETTINGS = {"dropout": 0.1, "lr": 1e-5, "precision": "fp32",
                      "epochs": 5, "batch_size": 16, "seq_len": 128, "dev_fraction": 0.1}
_SWEEP_SETTINGS = {"grid": "full", "epochs": 5, "batch_size": 16, "seq_len": 128,
                   "dev_fraction": 0.1}
_EVAL_SETTINGS = {"seq_len": 128}
# settings that `_add_settings` gives no flag: config file only
_FILE_ONLY = ("dev_fraction",)
# the kind of each setting whose default is None; null keeps the default
_OPTIONAL_KINDS = {"country_code": str, "dropout_rate": float, "init_checkpoint": str}
_CHOICES = {"precision": ft.GRID_PRECISIONS, "grid": ("full", "quick")}
# lower bounds checked by finetune, sweep and eval before anything loads;
# a sentence pair needs room for CLS, SEP and SEP
_MINIMUMS = {"batch_size": 1, "epochs": 1, "seq_len": 3}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1
    def error(self, message):
        raise UsageError(message)


def _kind(name: str, default) -> type:
    return _OPTIONAL_KINDS[name] if default is None else type(default)


def _add_settings(p: _Parser, settings: dict):
    """One `--flag-name` per setting, typed like its default. Each defaults
    to None, so `_resolve_fields` can tell an absent flag from a given one."""
    for name, default in settings.items():
        if name not in _FILE_ONLY:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=_kind(name, default),
                           choices=_CHOICES.get(name), default=None)


def _read_json_object(path: Path, what: str) -> dict:
    """The JSON object in the file at `path`, or one DataError naming the file
    as `what`: unreadable, not UTF-8, not JSON, or not an object."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e
    if not isinstance(obj, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return obj


def _cast(name: str, value, kind: type):
    """`value` as `kind`, or a usage error. A bool field takes only true or
    false, a str field only a string, an int field no number with a
    fraction, and a bool is never a number."""
    if kind is bool or isinstance(value, bool):
        converted = value if kind is bool and isinstance(value, bool) else None
    elif kind is str:
        converted = value if isinstance(value, str) else None
    else:
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):
            converted = None
        if kind is int and isinstance(value, float) and converted != value:
            converted = None
    if converted is None:
        raise UsageError(f"config {name} must be {kind.__name__}, got {value!r}")
    return converted


def _resolve_fields(args, file_cfg: dict, defaults: dict) -> dict:
    """CLI flag > config file > default, logged per field. A config-file
    value takes the kind of its default (`_OPTIONAL_KINDS` where that is
    None) and must be one of its `_CHOICES`, like the flag."""
    resolved = {}
    for name, default in defaults.items():
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            resolved[name] = cli_val
            source = "cli"
        elif name in file_cfg:
            value = file_cfg[name]
            if value is None and default is None:
                resolved[name] = None
            else:
                resolved[name] = _cast(name, value, _kind(name, default))
            if name in _CHOICES and resolved[name] not in _CHOICES[name]:
                raise UsageError(f"config {name} must be one of {_CHOICES[name]}, got {value!r}")
            source = "config-file"
        else:
            resolved[name] = default
            source = "default"
        log.info("config %s=%r (%s)", name, resolved[name], source)
    return resolved


def _check_settings(fields: dict):
    """The `_MINIMUMS`, and dev_fraction in (0, 1), before any input loads."""
    for name, low in _MINIMUMS.items():
        if name in fields and fields[name] < low:
            raise UsageError(f"{name} must be >= {low}, got {fields[name]}")
    if not 0.0 < fields.get("dev_fraction", 0.5) < 1.0:
        raise UsageError(f"dev_fraction {fields['dev_fraction']} outside (0, 1)")


def _thresholds(raw) -> corpus_mod.QualityThresholds:
    """Quality thresholds from a config file's `thresholds` object; each value
    takes the type of its default."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(corpus_mod.QualityThresholds)}
    if not isinstance(raw, dict):
        raise UsageError(f"config thresholds must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise UsageError(f"config thresholds has unknown keys {unknown}; have {sorted(kinds)}")
    return corpus_mod.QualityThresholds(
        **{k: _cast(f"thresholds.{k}", v, kinds[k]) for k, v in raw.items()})


def _write_manifest(man: RunManifest, out: Path, config: dict, inputs, outputs):
    """`out/manifest.json`: `man` (the command, seed and start time `main`
    gave it) with the resolved config, the digest of every input (None
    stands for an optional input not given) and the output paths."""
    man.config = config
    for path in inputs:
        if path is not None:
            man.add_input(path)
    for path in outputs:
        man.add_output(path)
    man.write(out / "manifest.json")


# ---------------------------------------------------------------------------
# loss-curve rendering

SVG_WIDTH, SVG_HEIGHT = 640, 360


def emit_loss_curve(losslog: pt.LossLog, csv_path: Path, svg_path: Path):
    """Plot-ready CSV (step, loss, ema_loss) and a monochrome SVG of the EMA
    series."""
    if not losslog.entries:
        raise DataError("loss log is empty; nothing to plot")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        f.write("step,loss,ema_loss\n")
        for e in losslog.entries:
            f.write(f"{e.step},{e.loss!r},{e.ema_loss!r}\n")
    Path(svg_path).write_text(render_loss_svg(losslog), encoding="utf-8")


def render_loss_svg(losslog: pt.LossLog) -> str:
    width, height = SVG_WIDTH, SVG_HEIGHT
    steps = [e.step for e in losslog.entries]
    emas = [e.ema_loss for e in losslog.entries]
    ml, mr, mt, mb = 55, 15, 15, 40
    x0, x1 = min(steps), max(steps)
    y0, y1 = min(emas), max(emas)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1e-9
    iw, ih = width - ml - mr, height - mt - mb

    def sx(s):
        return ml + iw * (s - x0) / (x1 - x0)

    def sy(v):
        return mt + ih * (1.0 - (v - y0) / (y1 - y0))

    pts = " ".join(f"{sx(s):.2f},{sy(v):.2f}" for s, v in zip(steps, emas))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height-mb}" stroke="#444"/>\n'
        f'<line x1="{ml}" y1="{height-mb}" x2="{width-mr}" y2="{height-mb}" stroke="#444"/>\n'
        f'<text x="{ml-6}" y="{mt+5}" text-anchor="end" font-size="11" fill="#444">{y1:.3g}</text>\n'
        f'<text x="{ml-6}" y="{height-mb}" text-anchor="end" font-size="11" fill="#444">{y0:.3g}</text>\n'
        f'<text x="{ml}" y="{height-mb+16}" text-anchor="middle" font-size="11" fill="#444">{x0}</text>\n'
        f'<text x="{width-mr}" y="{height-mb+16}" text-anchor="middle" font-size="11" fill="#444">{x1}</text>\n'
        f'<text x="{(ml+width-mr)//2}" y="{height-8}" text-anchor="middle" font-size="12" fill="#444">step</text>\n'
        f'<polyline fill="none" stroke="#222" stroke-width="1.5" points="{pts}"/>\n'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed flags, the config file, the
# run's manifest (command, resolved seed, start time) and the output
# directory, writes the manifest after its outputs, and raises on failure


def _cmd_corpus_filter(args, file_cfg: dict, man: RunManifest, out: Path):
    fields = _resolve_fields(args, file_cfg, _FILTER_SETTINGS)
    thresholds = _thresholds(file_cfg.get("thresholds", {}))
    config = corpus_mod.PipelineConfig(**fields, thresholds=thresholds)
    kept, report = corpus_mod.run_pipeline(corpus_mod.read_jsonl(args.input), config)
    filtered_path = out / "filtered.jsonl"
    report_path = out / "filter_report.json"
    corpus_mod.write_jsonl(kept, filtered_path)
    report_path.write_text(report.to_json(), encoding="utf-8")
    _write_manifest(man, out, {**fields, "thresholds": vars(thresholds)},
                    [args.input], [filtered_path, report_path])
    print(f"kept {report.kept_count}/{report.input_count} documents -> {filtered_path}")


def _cmd_corpus_stats(args, file_cfg: dict, man: RunManifest, out: Path):
    tokenizer = tok_mod.load_tokenizer(args.tokenizer) if args.tokenizer else None
    report = corpus_mod.corpus_stats(corpus_mod.read_jsonl(args.input), tokenizer)
    path = out / "stats_report.json"
    path.write_text(report.to_json(), encoding="utf-8")
    _write_manifest(man, out, {"tokenizer": str(args.tokenizer) if args.tokenizer else None},
                    [args.input, args.tokenizer], [path])
    for src, row in report.sources.items():
        print(f"{src}: {row['documents']} docs ({row['doc_proportion']:.2%}), "
              f"{row['tokens']} tokens ({row['token_proportion']:.2%})")


def _training_corpus(path) -> list[corpus_mod.Document]:
    """The documents of a corpus to train on; a DataError if none has a word."""
    docs = corpus_mod.read_jsonl(path)
    if not any(d.text.split() for d in docs):
        raise DataError(f"corpus file {path} holds no words to train on")
    return docs


def _cmd_tokenizer_train(args, file_cfg: dict, man: RunManifest, out: Path):
    fields = _resolve_fields(args, file_cfg, _TOKENIZER_SETTINGS)
    model = tok_mod.train_tokenizer(_training_corpus(args.input), fields["vocab_size"])
    vocab_path = out / "vocab.json"
    tok_mod.save_tokenizer(model, vocab_path)
    _write_manifest(man, out, fields, [args.input], [vocab_path])
    print(f"trained vocabulary of {model.vocab_size} tokens -> {vocab_path}")


def _cmd_pretrain(args, file_cfg: dict, man: RunManifest, out: Path):
    fields = _resolve_fields(args, file_cfg, _PRETRAIN_SETTINGS)
    config = pt.TrainRunConfig(seed=man.seed, out_dir=str(out), **fields)
    recorded = {**fields, "seed": man.seed}
    if config.init_checkpoint is not None:
        if args.preset is not None or "preset" in file_cfg:
            raise UsageError("preset cannot be set with init_checkpoint: "
                             "the checkpoint fixes the model")
        recorded["preset"] = None
    tokenizer = tok_mod.load_tokenizer(args.tokenizer)
    start = pt.checkpoint_start(config, tokenizer) if config.init_checkpoint else None
    docs = _training_corpus(args.input)
    if not any(pt.tokenize_corpus([doc], tokenizer, config.seq_len) for doc in docs):
        raise DataError(f"corpus file {args.input} holds no document of "
                        f"{pt.MIN_SEQUENCE_TOKENS} tokens or more to train on")
    _, losslog = pt.train(config, docs, tokenizer, start)
    emit_loss_curve(losslog, out / "loss_curve.csv", out / "loss_curve.svg")
    _write_manifest(man, out, recorded, [args.input, args.tokenizer, config.init_checkpoint],
                    [out / n for n in ("model.ckpt", "loss_log.csv", "loss_curve.csv",
                                       "loss_curve.svg")])
    final = losslog.entries[-1]
    print(f"trained {final.step} steps; final loss {final.loss:.4f} "
          f"(ema {final.ema_loss:.4f}) -> {out / 'model.ckpt'}")


def _task_spec(name: str) -> ft.TaskSpec:
    if name not in ft.TASKS:
        raise UsageError(f"unknown task {name!r}; have {sorted(ft.TASKS)}")
    return ft.TASKS[name]


def _examples(path: Path, spec: ft.TaskSpec) -> list[ft.TaskExample]:
    examples = ft.read_task_tsv(path, spec)
    if not examples:
        raise DataError(f"task file {path} holds no examples")
    return examples


def _task_inputs(args, spec: ft.TaskSpec, fields: dict, seed: int):
    """Checkpoint, tokenizer, and the train and dev examples of a run: dev from
    --dev, or else carved from train by fields["dev_fraction"] and the seed.
    The settings are checked before anything is loaded, and the tokenizer
    and seq_len against the checkpoint before any example is read."""
    _check_settings(fields)
    enc_config, arrays, _ = load_checkpoint(args.checkpoint)
    tokenizer = tok_mod.load_tokenizer(args.tokenizer)
    check_inputs_fit(enc_config, args.checkpoint, tokenizer.vocab_size, fields["seq_len"])
    train_ex = _examples(args.train, spec)
    if args.dev:
        dev_ex = _examples(args.dev, spec)
    else:
        train_ex, dev_ex = ft.split_train_dev(train_ex, fields["dev_fraction"], seed)
    return enc_config, arrays, tokenizer, train_ex, dev_ex


def _cmd_finetune(args, file_cfg: dict, man: RunManifest, out: Path):
    spec = _task_spec(args.task)
    fields = _resolve_fields(args, file_cfg, _FINETUNE_SETTINGS)
    gp = ft.GridPoint(dropout=fields["dropout"], lr=fields["lr"],
                      precision=fields["precision"], seed=man.seed)
    enc_config, arrays, tokenizer, train_ex, dev_ex = _task_inputs(args, spec, fields, man.seed)
    model = ft.attach_head(enc_config, params_from_arrays(arrays), spec.head_type,
                           dropout=gp.dropout, seed=gp.seed)
    (result,) = ft.finetune(model, train_ex, dev_ex, [gp], spec, tokenizer,
                            seq_len=fields["seq_len"], epochs=fields["epochs"],
                            batch_size=fields["batch_size"])
    if result.error is not None:
        raise result.error
    ckpt_path = out / "model_finetuned.ckpt"
    save_checkpoint(ckpt_path, model.config, model.slice(0),
                    meta={"task": spec.name, "head_type": spec.head_type,
                          "best_epoch": result.best_epoch})
    report = {
        "task": spec.name, "metric": spec.metric,
        "grid_point": {"dropout": gp.dropout, "lr": gp.lr, "precision": gp.precision,
                       "seed": gp.seed},
        "dev_score": result.dev_score, "best_epoch": result.best_epoch,
        "epoch_scores": result.epoch_scores,
    }
    report_path = out / "finetune_report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _write_manifest(man, out, {**fields, "task": spec.name},
                    [args.checkpoint, args.tokenizer, args.train, args.dev],
                    [ckpt_path, report_path])
    print(f"dev {spec.metric} {result.dev_score:.4f} (best epoch {result.best_epoch}) "
          f"-> {report_path}")


def _cmd_sweep(args, file_cfg: dict, man: RunManifest, out: Path):
    spec = _task_spec(args.task)
    fields = _resolve_fields(args, file_cfg, _SWEEP_SETTINGS)
    enc_config, arrays, tokenizer, train_ex, dev_ex = _task_inputs(args, spec, fields, man.seed)
    test_ex = _examples(args.test, spec)
    if fields["grid"] == "full":
        grid = ft.full_grid()
    else:
        grid = [ft.GridPoint(0.0, 1e-5, "fp32", s) for s in ft.GRID_SEEDS]

    def progress(r: ft.RunRecord, seconds: float | None):
        outcome = (f"dev {r.dev_score:.4f} test {r.test_score:.4f}" if r.status == "ok"
                   else f"failed: {r.error}")
        took = "worker died" if seconds is None else f"{seconds:.2f} s"
        print(f"run {r.index} (of {len(grid)}) dropout={r.dropout} lr={r.lr} "
              f"precision={r.precision} seed={r.seed}: {outcome} ({took})", file=sys.stderr)

    report = ft.run_grid(enc_config, params_from_arrays(arrays), spec, tokenizer,
                         train_ex, dev_ex, test_ex, grid=grid,
                         seq_len=fields["seq_len"], epochs=fields["epochs"],
                         batch_size=fields["batch_size"], on_run=progress)
    report_path = out / "metrics_report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    summary_path = out / "summary.csv"
    summary_path.write_text(
        ft.report_csv_summary([(report.task, report.reported_test_score)]), encoding="utf-8")
    _write_manifest(man, out, {**fields, "task": spec.name},
                    [args.checkpoint, args.tokenizer, args.train, args.test, args.dev],
                    [report_path, summary_path])
    sel = report.selected_config
    if sel is None:
        raise DataError(f"all {report.n_failed} runs failed; first error: {report.runs[0].error}")
    print(f"{len(report.runs)} runs, {len(report.configs)} configs, "
          f"{report.n_failed} failed; selected {sel}; "
          f"test {spec.metric} {report.reported_test_score}")


def _cmd_eval(args, file_cfg: dict, man: RunManifest, out: Path):
    spec = _task_spec(args.task)
    fields = _resolve_fields(args, file_cfg, _EVAL_SETTINGS)
    _check_settings(fields)
    enc_config, arrays, meta = load_checkpoint(args.checkpoint)
    tokenizer = tok_mod.load_tokenizer(args.tokenizer)
    check_head(args.checkpoint, meta, spec.head_type)
    model = ft.load_task_model(enc_config, arrays, spec.head_type)
    check_inputs_fit(enc_config, args.checkpoint, tokenizer.vocab_size, fields["seq_len"])
    examples = _examples(args.data, spec)
    encoded, labels = ft.encode_examples(examples, tokenizer, fields["seq_len"])
    (score,) = ft.evaluate(model, encoded, labels, spec)
    if isinstance(score, Exception):
        raise score
    report = {"task": spec.name, "metric": spec.metric, "score": score,
              "examples": len(examples)}
    path = out / "eval_report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _write_manifest(man, out, {**fields, "task": spec.name},
                    [args.checkpoint, args.tokenizer, args.data], [path])
    print(f"{spec.metric} {score:.4f} over {len(examples)} examples -> {path}")


def _cmd_report(args, file_cfg: dict, man: RunManifest, out: Path):
    if not args.loss_log and not args.metrics:
        raise UsageError("report needs --loss-log and/or --metrics")
    outputs = []
    if args.loss_log:
        losslog = pt.LossLog.from_csv(args.loss_log)
        emit_loss_curve(losslog, out / "loss_curve.csv", out / "loss_curve.svg")
        outputs += [out / "loss_curve.csv", out / "loss_curve.svg"]
        print(f"rendered {len(losslog)} log records -> {out / 'loss_curve.svg'}")
    if args.metrics:
        payload = _read_json_object(args.metrics, "metrics report")
        if not (isinstance(payload.get("task"), str)
                and type(payload.get("reported_test_score", "")) in (int, float, type(None))):
            raise DataError(f"metrics report {args.metrics} must hold a task name and a "
                            "numeric or null reported_test_score")
        pair = (payload["task"], payload["reported_test_score"])
        (out / "summary.csv").write_text(ft.report_csv_summary([pair]), encoding="utf-8")
        outputs.append(out / "summary.csv")
        print(f"summary -> {out / 'summary.csv'}")
    _write_manifest(man, out, {}, [args.loss_log, args.metrics], outputs)


# ---------------------------------------------------------------------------
# parser assembly


def _finish(p: _Parser, handler, config_keys=()):
    """The flags every command takes, after its own, its handler, and the
    keys its config file may hold: `config_keys` and seed."""
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    p.add_argument("--out", type=Path, default=None, help="output directory (default .)")
    p.set_defaults(handler=handler, config_keys=sorted({*config_keys, "seed"}))


def _add_task_inputs(p: _Parser):
    p.add_argument("--task", required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--tokenizer", type=Path, required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="lusoforge",
                     description="desk-scale encoder lab: corpus, tokenizer, "
                                 "pre-training, fine-tuning, evaluation")
    sub = parser.add_subparsers(dest="command")

    corpus = sub.add_parser("corpus", help="corpus curation")
    corpus_sub = corpus.add_subparsers(dest="subcommand")
    cf = corpus_sub.add_parser("filter", help="run the filter pipeline")
    cf.add_argument("--input", type=Path, required=True, help="input JSONL")
    cf.add_argument("--cc", dest="country_code", default=None,
                    help="country-code TLD to keep (e.g. pt)")
    cf.add_argument("--dedup", dest="deduplicate", action="store_true", default=None)
    cf.add_argument("--no-dedup", dest="deduplicate", action="store_false")
    cf.add_argument("--near-dups", dest="near_duplicates", action="store_true", default=None)
    _finish(cf, _cmd_corpus_filter, [*_FILTER_SETTINGS, "thresholds"])

    cs = corpus_sub.add_parser("stats", help="composition statistics")
    cs.add_argument("--input", type=Path, required=True)
    cs.add_argument("--tokenizer", type=Path, default=None,
                    help="count subwords with this vocabulary instead of whitespace tokens")
    _finish(cs, _cmd_corpus_stats)

    tk = sub.add_parser("tokenizer", help="subword tokenizer")
    tk_sub = tk.add_subparsers(dest="subcommand")
    tt = tk_sub.add_parser("train", help="learn a vocabulary")
    tt.add_argument("--input", type=Path, required=True, help="input JSONL")
    _add_settings(tt, _TOKENIZER_SETTINGS)
    _finish(tt, _cmd_tokenizer_train, _TOKENIZER_SETTINGS)

    pr = sub.add_parser("pretrain", help="masked-language-model pre-training")
    pr.add_argument("--input", type=Path, required=True, help="corpus JSONL")
    pr.add_argument("--tokenizer", type=Path, required=True, help="vocab.json")
    _add_settings(pr, _PRETRAIN_SETTINGS)
    _finish(pr, _cmd_pretrain, _PRETRAIN_SETTINGS)

    fe = sub.add_parser("finetune", help="fine-tune one grid point")
    _add_task_inputs(fe)
    fe.add_argument("--train", type=Path, required=True, help="train split TSV")
    fe.add_argument("--dev", type=Path, default=None,
                    help="dev split TSV (default: 10%% carved from train)")
    _add_settings(fe, _FINETUNE_SETTINGS)
    _finish(fe, _cmd_finetune, _FINETUNE_SETTINGS)

    sw = sub.add_parser("sweep", help="hyperparameter grid over a task")
    _add_task_inputs(sw)
    sw.add_argument("--train", type=Path, required=True)
    sw.add_argument("--dev", type=Path, default=None)
    sw.add_argument("--test", type=Path, required=True)
    _add_settings(sw, _SWEEP_SETTINGS)
    _finish(sw, _cmd_sweep, _SWEEP_SETTINGS)

    ev = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint")
    _add_task_inputs(ev)
    ev.add_argument("--data", type=Path, required=True, help="evaluation TSV")
    _add_settings(ev, _EVAL_SETTINGS)
    _finish(ev, _cmd_eval, _EVAL_SETTINGS)

    rp = sub.add_parser("report", help="render artifacts from existing logs")
    rp.add_argument("--loss-log", dest="loss_log", type=Path, default=None)
    rp.add_argument("--metrics", type=Path, default=None)
    _finish(rp, _cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s",
                        stream=sys.stderr)
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = None
    try:
        if not argv:
            parser.print_usage(sys.stderr)
            return 1
        args = parser.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            parser.print_usage(sys.stderr)
            return 1
        file_cfg = _read_json_object(args.config, "config file") if args.config else {}
        unknown = sorted(file_cfg.keys() - set(args.config_keys))
        if unknown:
            raise UsageError(f"config file {args.config} has unknown keys {unknown}; "
                             f"this command takes {args.config_keys}")
        seed = args.seed if args.seed is not None else _cast("seed", file_cfg.get("seed", 0), int)
        out = args.out if args.out is not None else Path(".")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise DataError(f"cannot create output directory {out}: {e}") from e
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        if handler in (_cmd_finetune, _cmd_eval):  # they train and score in this process
            from lusoforge.workers import _one_blas_thread  # not at top: it loads multiprocessing
            _one_blas_thread()
        handler(args, file_cfg, RunManifest(command, seed=seed, code_version=__version__), out)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        if args is None:  # a command-line error, not a setting's
            parser.print_usage(sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3
    except LusoforgeError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
