"""Command-line flows end to end: exit codes, artifacts, manifests, plots."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import struct
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import scipy
from conftest import make_documents

import lusoforge
import lusoforge.cli as cli
from lusoforge import corpus as corpus_mod
from lusoforge import finetune as ft
from lusoforge import tokenizer as tok_mod
from lusoforge.checkpoint import load_checkpoint, save_checkpoint
from lusoforge.encoder import init_params, preset
from lusoforge.errors import DataError, UsageError
from lusoforge.finetune import TASKS, synthetic_task_examples, write_task_tsv
from lusoforge.pretrain import LossLog, LossLogEntry, TrainRunConfig

RTE = TASKS["rte"]
SRC = Path(lusoforge.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One full chain: filter -> tokenizer -> pretrain -> finetune."""
    root = tmp_path_factory.mktemp("cliws")
    corpus_path = root / "corpus.jsonl"
    corpus_mod.write_jsonl(make_documents({"OSCAR": 12, "DCEP": 12}), corpus_path)

    filt = root / "filtered"
    assert cli.main(["corpus", "filter", "--input", str(corpus_path),
                     "--out", str(filt)]) == 0
    filtered = filt / "filtered.jsonl"

    tok_dir = root / "tok"
    assert cli.main(["tokenizer", "train", "--input", str(filtered),
                     "--vocab-size", "160", "--out", str(tok_dir)]) == 0
    vocab = tok_dir / "vocab.json"

    pre = root / "pre"
    assert cli.main(["pretrain", "--input", str(filtered), "--tokenizer", str(vocab),
                     "--preset", "micro", "--seq-len", "32", "--micro-batch-size", "4",
                     "--accumulation-steps", "1", "--peak-lr", "5e-4",
                     "--warmup-steps", "2", "--total-steps", "8",
                     "--dropout-rate", "0.0", "--checkpoint-every", "0",
                     "--seed", "7", "--out", str(pre)]) == 0

    train_tsv = root / "rte_train.tsv"
    test_tsv = root / "rte_test.tsv"
    write_task_tsv(synthetic_task_examples(RTE, 24, seed=30), train_tsv, RTE)
    write_task_tsv(synthetic_task_examples(RTE, 8, seed=31), test_tsv, RTE)

    fin = root / "fin"
    assert cli.main(["finetune", "--task", "rte", "--checkpoint", str(pre / "model.ckpt"),
                     "--tokenizer", str(vocab), "--train", str(train_tsv),
                     "--lr", "1e-3", "--dropout", "0.0", "--epochs", "1",
                     "--batch-size", "8", "--seq-len", "32",
                     "--seed", "41", "--out", str(fin)]) == 0

    return {"root": root, "corpus": corpus_path, "filtered": filtered,
            "vocab": vocab, "pre": pre, "fin": fin,
            "train_tsv": train_tsv, "test_tsv": test_tsv}


# ---------------------------------------------------------------------------
# exit codes and usage errors


def test_no_args_prints_usage(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_bare_group_prints_usage(capsys):
    assert cli.main(["corpus"]) == 1
    assert cli.main(["tokenizer"]) == 1


def test_missing_required_flag(capsys):
    assert cli.main(["corpus", "filter"]) == 1
    assert "required" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc = cli.main(["corpus", "filter", "--input", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_unknown_task_is_usage_error(tmp_path, capsys):
    rc = cli.main(["finetune", "--task", "nope", "--checkpoint", "x",
                   "--tokenizer", "y", "--train", "z", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown task" in capsys.readouterr().err


def test_config_file_must_be_json_object(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    rc = cli.main(["tokenizer", "train", "--input", "whatever.jsonl",
                   "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_numerical_abort_exit_code(ws, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["pretrain", "--input", str(ws["filtered"]),
                       "--tokenizer", str(ws["vocab"]), "--preset", "micro",
                       "--seq-len", "32", "--micro-batch-size", "4",
                       "--accumulation-steps", "1", "--peak-lr", "1e6",
                       "--warmup-steps", "1", "--total-steps", "40",
                       "--dropout-rate", "0.0", "--checkpoint-every", "0",
                       "--out", str(tmp_path)])
    assert rc == 3


def test_dead_pretraining_worker_is_one_data_error_line(ws, tmp_path, monkeypatch, capfd):
    import multiprocessing
    import os

    import lusoforge.pretrain as pt

    parent = os.getpid()
    real = pt._micro_batch_gradient

    def crash(*args):
        step = args[-4]  # each call passes (step, k, batch, total_count)
        if step == 2 and os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(pt, "_micro_batch_gradient", crash)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rc = cli.main(["pretrain", "--input", str(ws["filtered"]), "--tokenizer", str(ws["vocab"]),
                   "--preset", "micro", "--seq-len", "32", "--micro-batch-size", "2",
                   "--accumulation-steps", "2", "--warmup-steps", "1", "--total-steps", "4",
                   "--checkpoint-every", "1", "--out", str(tmp_path)])
    err = capfd.readouterr().err
    assert rc == 2
    assert multiprocessing.active_children() == []
    errors = [line for line in err.splitlines() if not line.startswith("lusoforge")]
    assert len(errors) == 1 and errors[0].startswith("data error: ")
    assert "optimizer step 2" in errors[0] and "Traceback" not in err
    assert (tmp_path / "model_step000001.ckpt").exists()
    assert not (tmp_path / "model_step000002.ckpt").exists()
    assert not (tmp_path / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# corpus commands


def test_corpus_filter_artifacts(ws):
    docs = corpus_mod.read_jsonl(ws["filtered"])
    assert len(docs) == 24  # clean synthetic corpus: everything passes
    report = json.loads((ws["filtered"].parent / "filter_report.json").read_text())
    assert report["input_count"] == 24
    assert report["kept_count"] == 24
    man = json.loads((ws["filtered"].parent / "manifest.json").read_text())
    assert man["command"] == "corpus filter"
    assert man["seed"] == 0
    assert man["code_version"] == lusoforge.__version__
    assert man["finished_at"]
    digest = hashlib.sha256(ws["corpus"].read_bytes()).hexdigest()
    assert man["input_digests"][str(ws["corpus"])] == digest
    assert str(ws["filtered"]) in man["outputs"]


def test_corpus_filter_country_code(ws, tmp_path):
    out = tmp_path / "br"
    assert cli.main(["corpus", "filter", "--input", str(ws["corpus"]),
                     "--cc", "br", "--out", str(out)]) == 0
    report = json.loads((out / "filter_report.json").read_text())
    assert report["kept_count"] == 0  # fixture urls are all .pt
    # an emptied corpus is a data error one stage later
    rc = cli.main(["tokenizer", "train", "--input", str(out / "filtered.jsonl"),
                   "--out", str(tmp_path / "tok")])
    assert rc == 2


def test_corpus_filter_bad_country_code_is_usage_error(ws, tmp_path, capsys):
    rc = cli.main(["corpus", "filter", "--input", str(ws["corpus"]),
                   "--cc", "por", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error: country code must be two letters, got 'por'\n" in err
    assert "Traceback" not in err


def test_corpus_filter_bad_country_code_checked_before_input(tmp_path, capsys):
    rc = cli.main(["corpus", "filter", "--input", str(tmp_path / "absent.jsonl"),
                   "--cc", "por", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error: country code must be two letters, got 'por'\n" in err
    assert "cannot read corpus file" not in err


@pytest.mark.parametrize("field,value", [("near_dup_jaccard", 0), ("near_dup_ngram", 0)])
def test_corpus_filter_bad_near_dup_setting_is_usage_error(ws, tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    rc = cli.main(["corpus", "filter", "--input", str(ws["corpus"]), "--near-dups",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"usage error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("cfg_obj,message", [
    ({"thresholds": {"min_char": 5}}, "config thresholds has unknown keys ['min_char']"),
    ({"near_dup_jaccard": "high"}, "config near_dup_jaccard must be float, got 'high'"),
])
def test_corpus_filter_bad_config_value_is_usage_error(ws, tmp_path, capsys, cfg_obj, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_obj))
    rc = cli.main(["corpus", "filter", "--input", str(ws["corpus"]), "--near-dups",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert "Traceback" not in err


def test_pretrain_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"total_steps": "x"}))
    rc = cli.main(["pretrain", "--input", "absent.jsonl", "--tokenizer", "absent.json",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "usage error: config total_steps must be int, got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("value, kind", [
    ("no", bool), ("false", bool), (0, bool), (1, bool),
    (64.7, int), (True, int), ("64.5", int), (float("inf"), int), (float("nan"), int),
    ("high", float), (False, float), (None, float),
    (5, str), (True, str),
])
def test_cast_rejects_inexact_values(value, kind):
    with pytest.raises(UsageError, match=f"config x must be {kind.__name__}"):
        cli._cast("x", value, kind)


@pytest.mark.parametrize("value, kind, expected", [
    (True, bool, True), (False, bool, False), (64, int, 64), (64.0, int, 64), ("64", int, 64),
    (1, float, 1.0), ("0.5", float, 0.5), ("pt", str, "pt"),
])
def test_cast_keeps_exact_values(value, kind, expected):
    got = cli._cast("x", value, kind)
    assert got == expected and type(got) is kind


def test_corpus_filter_string_bool_is_usage_error(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"near_duplicates": "no"}))
    rc = cli.main(["corpus", "filter", "--input", str(ws["corpus"]),
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "usage error: config near_duplicates must be bool, got 'no'" in capsys.readouterr().err


@pytest.mark.parametrize("cfg_obj, message", [
    ({"country_code": 7}, "config country_code must be str, got 7"),
    ({"dropout_rate": "high"}, "config dropout_rate must be float, got 'high'"),
])
def test_optional_config_value_is_typed(tmp_path, capsys, cfg_obj, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_obj))
    command = (["corpus", "filter", "--input", "absent.jsonl"] if "country_code" in cfg_obj
               else ["pretrain", "--input", "absent.jsonl", "--tokenizer", "absent.json"])
    rc = cli.main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert "Traceback" not in err


def test_optional_config_null_keeps_default(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"country_code": None}))
    out = tmp_path / "out"
    assert cli.main(["corpus", "filter", "--input", str(ws["corpus"]),
                     "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["country_code"] is None


@pytest.mark.parametrize("argv", [
    ["corpus", "filter", "--input", "absent.jsonl"],
    ["corpus", "stats", "--input", "absent.jsonl"],
    ["tokenizer", "train", "--input", "absent.jsonl"],
    ["pretrain", "--input", "absent.jsonl", "--tokenizer", "absent.json"],
    ["finetune", "--task", "rte", "--checkpoint", "x", "--tokenizer", "y", "--train", "z"],
    ["sweep", "--task", "rte", "--checkpoint", "x", "--tokenizer", "y", "--train", "z",
     "--test", "t"],
    ["eval", "--task", "rte", "--checkpoint", "x", "--tokenizer", "y", "--data", "t"],
    ["report", "--loss-log", "absent.csv"],
])
def test_bad_config_seed_is_usage_error(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "abc"}))
    rc = cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "usage error: config seed must be int, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, config", [
    ("finetune", [], {"dev_fraction": 1.5}),
    ("finetune", ["--dropout", "1.5"], None),
    ("finetune", ["--batch-size", "0"], None),
    ("sweep", ["--batch-size", "0"], None),
    ("finetune", ["--seq-len", "2"], None),
    ("sweep", ["--seq-len", "2"], None),
    ("pretrain", ["--warmup-steps", "5", "--total-steps", "2"], None),
    ("pretrain", ["--micro-batch-size", "0"], None),
    ("pretrain", ["--preset", "nope"], None),
    ("pretrain", ["--mask-rate", "0"], None),
    ("finetune", ["--epochs", "0"], None),
    ("sweep", ["--epochs", "0"], None),
    ("sweep", [], {"epochs": -1}),
    ("finetune", ["--lr", "-1"], None),
    ("finetune", ["--lr", "inf"], None),
    ("finetune", [], {"lr": -0.5}),
    ("finetune", [], {"precision": "fp8"}),
    ("pretrain", [], {"dropout_rate": "high"}),
    ("pretrain", [], {"init_checkpoint": 5}),
    ("pretrain", [], {"micro_batch_size": 4.5}),
    ("pretrain", ["--epochs", "-1"], None),
    ("pretrain", ["--peak-lr", "-1"], None),
])
def test_out_of_range_setting_is_usage_error(ws, tmp_path, capsys, command, extra, config):
    out = tmp_path / "out"
    if command == "pretrain":
        argv = ["pretrain", "--input", str(ws["filtered"]), "--tokenizer", str(ws["vocab"])]
    else:
        argv = [command, "--task", "rte", "--checkpoint", str(ws["pre"] / "model.ckpt"),
                "--tokenizer", str(ws["vocab"]), "--train", str(ws["train_tsv"])]
        if command == "sweep":
            argv += ["--test", str(ws["test_tsv"])]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    rc = cli.main(argv + extra + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("usage error: ")]) == 1
    assert "Traceback" not in err
    # rejected before any training: nothing but the output directory exists
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, config", [
    (["eval", "--task", "rte", "--checkpoint", "absent.ckpt", "--tokenizer", "absent.json",
      "--data", "absent.tsv", "--seq-len", "2"], None),
    (["eval", "--task", "rte", "--checkpoint", "absent.ckpt", "--tokenizer", "absent.json",
      "--data", "absent.tsv"], {"seq_len": 2}),
    (["finetune", "--task", "rte", "--checkpoint", "absent.ckpt", "--tokenizer", "absent.json",
      "--train", "absent.tsv", "--seq-len", "2"], None),
    (["sweep", "--task", "rte", "--checkpoint", "absent.ckpt", "--tokenizer", "absent.json",
      "--train", "absent.tsv", "--test", "absent.tsv", "--seq-len", "2"], None),
    (["sweep", "--task", "rte", "--checkpoint", "absent.ckpt", "--tokenizer", "absent.json",
      "--train", "absent.tsv", "--test", "absent.tsv"], {"grid": "weird"}),
    (["corpus", "filter", "--input", "absent.jsonl"], {"thresholds": {"char_ngram": 0}}),
    (["corpus", "filter", "--input", "absent.jsonl"], {"thresholds": {"word_ngram": -1}}),
])
def test_setting_checked_before_inputs_load(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error: " in err
    assert "cannot read" not in err


def test_unwritable_out_is_data_error(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x")
    rc = cli.main(["report", "--loss-log", "absent.csv", "--out", str(not_a_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error: cannot create output directory" in err
    assert "Traceback" not in err


def test_corpus_stats_cli(ws, tmp_path, capsys):
    out = tmp_path / "stats"
    assert cli.main(["corpus", "stats", "--input", str(ws["corpus"]),
                     "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "OSCAR:" in captured and "DCEP:" in captured
    report = json.loads((out / "stats_report.json").read_text())
    assert report["sources"]["OSCAR"]["documents"] == 12
    assert report["sources"]["OSCAR"]["doc_proportion"] == pytest.approx(0.5)
    man = json.loads((out / "manifest.json").read_text())
    assert set(man["input_digests"]) == {str(ws["corpus"])}
    # subword counts depend on the vocabulary, so its digest is recorded too
    out = tmp_path / "stats_tok"
    assert cli.main(["corpus", "stats", "--input", str(ws["corpus"]),
                     "--tokenizer", str(ws["vocab"]), "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert set(man["input_digests"]) == {str(ws["corpus"]), str(ws["vocab"])}


# ---------------------------------------------------------------------------
# the flags each command takes, and the defaults they resolve to


_COMMON = {"-h", "--help", "--config", "--seed", "--out"}
_TASK = {"--task", "--checkpoint", "--tokenizer"}
CLI_SURFACE = {
    ("corpus", "filter"): {"--input", "--cc", "--dedup", "--no-dedup", "--near-dups"},
    ("corpus", "stats"): {"--input", "--tokenizer"},
    ("tokenizer", "train"): {"--input", "--vocab-size"},
    ("pretrain",): {"--input", "--tokenizer", "--preset", "--seq-len", "--micro-batch-size",
                    "--accumulation-steps", "--peak-lr", "--warmup-steps", "--total-steps",
                    "--epochs", "--mask-rate", "--dropout-rate", "--weight-decay",
                    "--checkpoint-every", "--init-checkpoint"},
    ("finetune",): _TASK | {"--train", "--dev", "--dropout", "--lr", "--precision", "--epochs",
                            "--batch-size", "--seq-len"},
    ("sweep",): _TASK | {"--train", "--dev", "--test", "--grid", "--epochs", "--batch-size",
                         "--seq-len"},
    ("eval",): _TASK | {"--data", "--seq-len"},
    ("report",): {"--loss-log", "--metrics"},
}


def _commands(parser, prefix=()):
    """(command words, parser) of every parser that has a handler."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield prefix, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _commands(child, prefix + (name,))


def test_cli_surface_is_pinned():
    commands = dict(_commands(cli.build_parser()))
    assert set(commands) == set(CLI_SURFACE)
    for words, parser in commands.items():
        options = {o for a in parser._actions for o in a.option_strings}
        assert options == CLI_SURFACE[words] | _COMMON, words
    choices = {a.dest: a.choices for p in commands.values() for a in p._actions if a.choices}
    assert choices == {"precision": ("fp32", "fp16"), "grid": ("full", "quick")}


def test_unset_settings_resolve_to_config_defaults(ws, tmp_path, monkeypatch):
    seen = []

    def record(config):
        seen.append(config)
        raise DataError("stop before the work")

    monkeypatch.setattr(cli.pt, "train", lambda config, docs, tokenizer, start: record(config))
    monkeypatch.setattr(cli.corpus_mod, "run_pipeline", lambda docs, config: record(config))
    out = tmp_path / "pre"
    assert cli.main(["pretrain", "--input", str(ws["filtered"]), "--tokenizer", str(ws["vocab"]),
                     "--out", str(out)]) == 2
    assert cli.main(["corpus", "filter", "--input", str(ws["corpus"]),
                     "--out", str(tmp_path / "filter")]) == 2
    assert seen == [TrainRunConfig(seed=0, out_dir=str(out)), corpus_mod.PipelineConfig()]


# ---------------------------------------------------------------------------
# tokenizer command


def test_tokenizer_train_artifacts(ws):
    model = tok_mod.load_tokenizer(ws["vocab"])
    assert model.vocab_size <= 160
    man = json.loads((ws["vocab"].parent / "manifest.json").read_text())
    assert man["command"] == "tokenizer train"
    assert man["config"]["vocab_size"] == 160


def test_tokenizer_train_deterministic_bytes(ws, tmp_path):
    out = tmp_path / "tok2"
    assert cli.main(["tokenizer", "train", "--input", str(ws["filtered"]),
                     "--vocab-size", "160", "--out", str(out)]) == 0
    assert (out / "vocab.json").read_bytes() == ws["vocab"].read_bytes()


def test_config_precedence(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vocab_size": 64, "seed": 9}), encoding="utf-8")

    out1 = tmp_path / "from_file"
    assert cli.main(["tokenizer", "train", "--input", str(ws["filtered"]),
                     "--config", str(cfg), "--out", str(out1)]) == 0
    man1 = json.loads((out1 / "manifest.json").read_text())
    assert man1["config"]["vocab_size"] == 64  # file beats default
    assert man1["seed"] == 9

    out2 = tmp_path / "from_cli"
    assert cli.main(["tokenizer", "train", "--input", str(ws["filtered"]),
                     "--config", str(cfg), "--vocab-size", "96", "--seed", "3",
                     "--out", str(out2)]) == 0
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert man2["config"]["vocab_size"] == 96  # flag beats file
    assert man2["seed"] == 3

    out3 = tmp_path / "defaults"
    assert cli.main(["tokenizer", "train", "--input", str(ws["filtered"]),
                     "--out", str(out3)]) == 0
    man3 = json.loads((out3 / "manifest.json").read_text())
    assert man3["config"]["vocab_size"] == 8192
    assert man3["seed"] == 0


# ---------------------------------------------------------------------------
# pretrain command


def test_pretrain_artifacts(ws):
    pre = ws["pre"]
    for name in ("model.ckpt", "loss_log.csv", "loss_curve.csv",
                 "loss_curve.svg", "manifest.json"):
        assert (pre / name).exists(), name
    log = LossLog.from_csv(pre / "loss_log.csv")
    assert len(log) == 8
    curve_lines = (pre / "loss_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "step,loss,ema_loss"
    assert len(curve_lines) == 9
    assert (pre / "loss_curve.svg").read_text().startswith("<svg")
    man = json.loads((pre / "manifest.json").read_text())
    assert man["command"] == "pretrain"
    assert man["config"]["preset"] == "micro"
    assert man["config"]["total_steps"] == 8
    assert len(man["input_digests"]) == 2  # corpus + vocabulary
    assert len(man["outputs"]) == 4


def _openblas_threads() -> int:
    """The thread count of numpy's bundled OpenBLAS in this process, read with ctypes."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split(None, 5)[-1].strip() for line in f
                        if "libscipy_openblas64_" in line})
    if not paths:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    return ctypes.CDLL(paths[0]).scipy_openblas_get_num_threads64_()


def test_manifest_spans_the_run(ws, tmp_path, monkeypatch):
    real = cli.pt.train
    took = []

    def timed(*a, **kw):
        start = time.perf_counter()
        try:
            return real(*a, **kw)
        finally:
            took.append(time.perf_counter() - start)

    monkeypatch.setattr(cli.pt, "train", timed)
    out = tmp_path / "pre"
    assert cli.main(["pretrain", "--input", str(ws["filtered"]), "--tokenizer", str(ws["vocab"]),
                     "--preset", "micro", "--seq-len", "32", "--micro-batch-size", "4",
                     "--warmup-steps", "2", "--total-steps", "6", "--checkpoint-every", "0",
                     "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    started, finished = (datetime.fromisoformat(man[k]) for k in ("started_at", "finished_at"))
    assert (finished - started).total_seconds() >= took[0] > 0
    # peak RSS so far, in MB, of this process and of its largest finished child
    own, children = (resource.getrusage(who).ru_maxrss / 1024.0
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    assert 0 < man["peak_rss_mb"] <= own
    assert 0 <= man["workers_peak_rss_mb"] <= children
    if len(os.sched_getaffinity(0)) > 1:  # 4 accumulated micro-batches ran in workers
        assert man["workers_peak_rss_mb"] > 0
    assert man["versions"] == {"python": platform.python_version(), "numpy": np.__version__,
                               "scipy": scipy.__version__}
    # the thread count of numpy's bundled OpenBLAS, read as `main` wrote the manifest
    assert man["blas_threads"] == _openblas_threads() and man["blas_threads"] >= 1


def test_manifest_of_a_run_without_workers_records_no_worker_memory(ws, tmp_path):
    out = tmp_path / "pre"
    argv = ["pretrain", "--input", str(ws["filtered"]), "--tokenizer", str(ws["vocab"]),
            "--preset", "micro", "--seq-len", "32", "--micro-batch-size", "4",
            "--accumulation-steps", "1", "--warmup-steps", "2", "--total-steps", "3",
            "--checkpoint-every", "0", "--out", str(out)]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "lusoforge.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    man = json.loads((out / "manifest.json").read_text())
    assert man["peak_rss_mb"] > 0
    assert man["workers_peak_rss_mb"] == 0


def test_a_manifest_without_openblas_records_null_blas_threads(tmp_path, monkeypatch):
    import lusoforge.manifest as manifest

    monkeypatch.setattr(manifest, "openblas_calls", lambda names, *args: [])
    manifest.RunManifest("report").write(tmp_path / "manifest.json")
    assert json.loads((tmp_path / "manifest.json").read_text())["blas_threads"] is None


def _continue_pretraining(ws, out, checkpoint, *extra):
    return cli.main(["pretrain", "--input", str(ws["filtered"]), "--tokenizer", str(ws["vocab"]),
                     "--init-checkpoint", str(checkpoint), "--seq-len", "32",
                     "--micro-batch-size", "4", "--accumulation-steps", "1",
                     "--warmup-steps", "0", "--total-steps", "3", "--checkpoint-every", "0",
                     "--seed", "5", "--out", str(out), *extra])


def test_init_checkpoint_continues_pretraining(ws, tmp_path, monkeypatch, capsys):
    init = ws["pre"] / "model.ckpt"  # trained at dropout 0.0
    _, init_arrays, _ = load_checkpoint(init)

    # --peak-lr 0 leaves every array as the init checkpoint stored it
    assert _continue_pretraining(ws, tmp_path / "still", init, "--peak-lr", "0") == 0
    config, arrays, _ = load_checkpoint(tmp_path / "still" / "model.ckpt")
    assert config.dropout_rate == 0.0
    assert arrays.keys() == init_arrays.keys()
    for name, arr in init_arrays.items():
        np.testing.assert_array_equal(arrays[name], arr, err_msg=name)
    # the manifest names no preset, since the checkpoint fixed the model, and digests it
    man = json.loads((tmp_path / "still" / "manifest.json").read_text())
    assert man["config"]["preset"] is None
    assert man["input_digests"][str(init)] == hashlib.sha256(init.read_bytes()).hexdigest()
    assert len(man["input_digests"]) == 3  # corpus, vocabulary and init checkpoint

    # a given dropout rate overrides the checkpoint's, in training and in every record
    logs = {}
    for rate in ("0.0", "0.5"):
        out = tmp_path / f"drop{rate}"
        assert _continue_pretraining(ws, out, init, "--peak-lr", "1e-3", "--dropout-rate", rate) == 0
        assert load_checkpoint(out / "model.ckpt")[0].dropout_rate == float(rate)
        assert json.loads((out / "manifest.json").read_text())["config"]["dropout_rate"] == float(rate)
        logs[rate] = [e.loss for e in LossLog.from_csv(out / "loss_log.csv").entries]
    assert logs["0.0"] != logs["0.5"]

    # a tokenizer of another vocabulary size is refused before the corpus is tokenized
    small = tmp_path / "small.ckpt"
    config = preset("micro", vocab_size=16)
    save_checkpoint(small, config, init_params(config, np.random.default_rng(0)))

    def never(*a, **kw):
        raise AssertionError("tokenized the corpus for a mismatched checkpoint")

    monkeypatch.setattr(cli.pt, "tokenize_corpus", never)
    capsys.readouterr()
    assert _continue_pretraining(ws, tmp_path / "mismatch", small) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: tokenizer has {tok_mod.load_tokenizer(ws['vocab']).vocab_size} "
                   f"entries but checkpoint {small} has 16"]


# ---------------------------------------------------------------------------
# finetune / eval / sweep commands


def test_finetune_artifacts(ws):
    fin = ws["fin"]
    assert (fin / "model_finetuned.ckpt").exists()
    report = json.loads((fin / "finetune_report.json").read_text())
    assert report["task"] == "rte"
    assert report["metric"] == "accuracy"
    assert report["grid_point"] == {"dropout": 0.0, "lr": 1e-3,
                                    "precision": "fp32", "seed": 41}
    assert 0.0 <= report["dev_score"] <= 1.0
    assert len(report["epoch_scores"]) == 1
    man = json.loads((fin / "manifest.json").read_text())
    assert man["command"] == "finetune"
    assert man["config"]["task"] == "rte"


def _full_grid_sweep(task: str, root: Path) -> Path:
    """`sweep --grid full` of `task` on a fresh micro checkpoint and synthetic
    examples under `root`; the path of its metrics report."""
    spec = TASKS[task]
    train, test = synthetic_task_examples(spec, 64, seed=5), synthetic_task_examples(spec, 16, seed=6)
    write_task_tsv(train, root / "train.tsv", spec)
    write_task_tsv(test, root / "test.tsv", spec)
    tokenizer = tok_mod.train_tokenizer([e.sentence_a for e in train] + [e.sentence_b for e in train],
                                        vocab_size=128)
    tok_mod.save_tokenizer(tokenizer, root / "vocab.json")
    config = preset("micro", vocab_size=tokenizer.vocab_size)
    save_checkpoint(root / "fresh.ckpt", config, init_params(config, np.random.default_rng(0)))
    assert cli.main(["sweep", "--task", task, "--checkpoint", str(root / "fresh.ckpt"),
                     "--tokenizer", str(root / "vocab.json"),
                     "--train", str(root / "train.tsv"), "--test", str(root / "test.tsv"),
                     "--grid", "full", "--epochs", "2", "--seq-len", "32",
                     "--out", str(root / "out")]) == 0
    report = json.loads((root / "out" / "metrics_report.json").read_text())
    assert [r["status"] for r in report["runs"]] == ["ok"] * 36
    assert report["selected_config"] is not None
    return root / "out" / "metrics_report.json"


@pytest.mark.parametrize("task", ["sts", "stsb"])
def test_a_full_grid_sweep_of_a_regression_task_fails_no_run(task, tmp_path):
    # a fresh head's outputs lie below sts's label range [1, 5]; clipped to it,
    # they were constant, and Pearson failed every sts run
    _full_grid_sweep(task, tmp_path)


def test_report_tabulates_full_grid_sweeps_of_the_five_tasks(tmp_path):
    # the paper's results table: every task kind swept, then one row of scores
    tasks = ("rte", "wnli", "mrpc", "sts", "stsb")
    reports = []
    for task in tasks:
        (tmp_path / task).mkdir()
        reports.append(str(_full_grid_sweep(task, tmp_path / task)))
    assert cli.main(["report", "--metrics", *reports, "--out", str(tmp_path / "table")]) == 0
    header, row = (tmp_path / "table" / "summary.csv").read_text().splitlines()
    assert header == "model," + ",".join(tasks)
    scores = row.split(",")
    assert scores[0] == "encoder" and len(scores) == 6
    for task, path, score in zip(tasks, reports, scores[1:]):
        assert float(score) == json.loads(Path(path).read_text())["reported_test_score"], task


def test_finetuned_checkpoint_is_encoder_only(ws):
    _, arrays, meta = load_checkpoint(ws["fin"] / "model_finetuned.ckpt")
    assert meta["head_type"] == "binary_classification"
    assert "head.w" in arrays and "layer0.attn.wq" in arrays
    assert not [k for k in arrays if k.startswith(("abspos.", "emd"))]


def test_vocabulary_mismatch_is_one_line_error(ws, tmp_path, monkeypatch, capsys):
    # a tokenizer whose ids run past a 16-entry checkpoint vocabulary is
    # refused before any training: exit 2, one line, no traceback
    small = tmp_path / "small.ckpt"
    config = preset("micro", vocab_size=16)
    save_checkpoint(small, config, init_params(config, np.random.default_rng(0)))
    _no_work(monkeypatch, "ft.finetune")
    capsys.readouterr()
    rc = cli.main(["finetune", "--task", "rte", "--checkpoint", str(small),
                   "--tokenizer", str(ws["vocab"]), "--train", str(ws["train_tsv"]),
                   "--epochs", "1", "--batch-size", "8", "--seq-len", "32",
                   "--out", str(tmp_path / "fin")])
    assert rc == 2
    assert _one_error_line(capsys) == [
        f"data error: tokenizer has 160 entries but checkpoint {small} has 16"]


def test_eval_cli(ws, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--task", "rte",
                   "--checkpoint", str(ws["fin"] / "model_finetuned.ckpt"),
                   "--tokenizer", str(ws["vocab"]), "--data", str(ws["test_tsv"]),
                   "--seq-len", "32", "--out", str(out)])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    report = json.loads((out / "eval_report.json").read_text())
    assert report["task"] == "rte"
    assert report["examples"] == 8
    assert 0.0 <= report["score"] <= 1.0


def test_eval_needs_task_head(ws, tmp_path, capsys):
    rc = cli.main(["eval", "--task", "rte",
                   "--checkpoint", str(ws["pre"] / "model.ckpt"),  # encoder only
                   "--tokenizer", str(ws["vocab"]), "--data", str(ws["test_tsv"]),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "head" in capsys.readouterr().err


def test_eval_seq_len_from_config_file(ws, tmp_path, caplog, monkeypatch):
    seen = []
    encode = ft.encode_examples

    def spy(examples, tokenizer, seq_len):
        seen.append(seq_len)
        return encode(examples, tokenizer, seq_len)

    monkeypatch.setattr(ft, "encode_examples", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seq_len": 12}))
    out = tmp_path / "eval"
    with caplog.at_level("INFO", logger="lusoforge"):
        rc = cli.main(["eval", "--task", "rte",
                       "--checkpoint", str(ws["fin"] / "model_finetuned.ckpt"),
                       "--tokenizer", str(ws["vocab"]), "--data", str(ws["test_tsv"]),
                       "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert seen == [12]
    assert "config seq_len=12 (config-file)" in caplog.text
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["seq_len"] == 12
    assert man["input_digests"][str(ws["vocab"])] == hashlib.sha256(ws["vocab"].read_bytes()).hexdigest()


def test_finetune_and_sweep_carve_the_same_dev_split(ws, tmp_path, monkeypatch):
    # the sweep's calls run in worker processes, so the spy appends to a file
    calls = tmp_path / "calls.jsonl"

    def record(model, train_examples, dev_examples, *a, **kw):
        line = json.dumps([[e.sentence_a for e in train_examples],
                           [e.sentence_a for e in dev_examples]])
        with open(calls, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        raise DataError("stop after the split")

    monkeypatch.setattr(ft, "finetune", record)
    common = ["--task", "rte", "--checkpoint", str(ws["pre"] / "model.ckpt"),
              "--tokenizer", str(ws["vocab"]), "--train", str(ws["train_tsv"]),
              "--epochs", "1", "--seq-len", "32", "--seed", "5"]
    assert cli.main(["finetune", *common, "--out", str(tmp_path / "fin")]) == 2
    assert cli.main(["sweep", *common, "--test", str(ws["test_tsv"]), "--grid", "quick",
                     "--out", str(tmp_path / "sweep")]) == 2
    seen = [tuple(json.loads(line)) for line in calls.read_text(encoding="utf-8").splitlines()]
    assert len(seen) == 4
    train, dev = seen[0]
    assert len(dev) == 2 and len(train) == 22
    assert all(s == (train, dev) for s in seen[1:])


def test_sweep_quick_cli(ws, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--task", "rte",
                   "--checkpoint", str(ws["pre"] / "model.ckpt"),
                   "--tokenizer", str(ws["vocab"]),
                   "--train", str(ws["train_tsv"]), "--test", str(ws["test_tsv"]),
                   "--grid", "quick", "--epochs", "1", "--batch-size", "8",
                   "--seq-len", "32", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "3 runs" in captured.out
    # one progress line per finished run, in whatever order the runs finish
    lines = sorted(line for line in captured.err.splitlines() if line.startswith("run "))
    assert len(lines) == 3
    for index, (line, seed) in enumerate(zip(lines, ft.GRID_SEEDS)):
        assert re.fullmatch(rf"run {index} \(of 3\) dropout=0\.0 lr=1e-05 precision=fp32 "
                            rf"seed={seed}: dev [0-9.]+ test [0-9.]+ \([0-9.]+ s\)", line), line
    report = json.loads((out / "metrics_report.json").read_text())
    assert len(report["runs"]) == 3
    assert len(report["configs"]) == 1
    assert report["n_failed"] == 0
    assert report["selected_config"] is not None
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "model,rte"
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "sweep"
    assert man["config"]["grid"] == "quick"


def test_sweep_all_failed_is_data_error(ws, tmp_path, capsys, monkeypatch):
    def broken(*a, **kw):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(ft, "finetune", broken)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--task", "rte",
                   "--checkpoint", str(ws["pre"] / "model.ckpt"),
                   "--tokenizer", str(ws["vocab"]),
                   "--train", str(ws["train_tsv"]), "--test", str(ws["test_tsv"]),
                   "--grid", "quick", "--epochs", "1", "--seq-len", "32",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error: all 3 runs failed; first error: RuntimeError: injected failure" in err
    report = json.loads((out / "metrics_report.json").read_text())
    assert report["n_failed"] == 3
    assert report["selected_config"] is None


def test_sweep_rejects_unknown_grid(ws, tmp_path):
    rc = cli.main(["sweep", "--task", "rte",
                   "--checkpoint", str(ws["pre"] / "model.ckpt"),
                   "--tokenizer", str(ws["vocab"]),
                   "--train", str(ws["train_tsv"]), "--test", str(ws["test_tsv"]),
                   "--grid", "weird", "--out", str(tmp_path)])
    assert rc == 1


# ---------------------------------------------------------------------------
# report command and loss-curve rendering


def test_report_from_loss_log(ws, tmp_path):
    out = tmp_path / "rep"
    rc = cli.main(["report", "--loss-log", str(ws["pre"] / "loss_log.csv"),
                   "--out", str(out)])
    assert rc == 0
    assert (out / "loss_curve.svg").exists()
    lines = (out / "loss_curve.csv").read_text().splitlines()
    assert len(lines) == 9
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "report"


def test_report_from_metrics(tmp_path):
    metrics = tmp_path / "metrics_report.json"
    metrics.write_text(json.dumps({"task": "rte", "reported_test_score": 0.625}),
                       encoding="utf-8")
    out = tmp_path / "rep"
    assert cli.main(["report", "--metrics", str(metrics), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_text() == "model,rte\nencoder,0.625\n"

    metrics.write_text(json.dumps({"task": "rte", "reported_test_score": None}),
                       encoding="utf-8")
    assert cli.main(["report", "--metrics", str(metrics), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_text() == "model,rte\nencoder,\n"


def _metrics_reports(tmp_path, *scores):
    """One metrics report file per (task, score), as the paths' strings."""
    paths = []
    for n, (task, score) in enumerate(scores):
        path = tmp_path / f"metrics_{n}_{task}.json"
        path.write_text(json.dumps({"task": task, "reported_test_score": score}),
                        encoding="utf-8")
        paths.append(str(path))
    return paths


def test_report_writes_one_row_over_several_metrics_reports(tmp_path):
    paths = _metrics_reports(tmp_path, ("sts", 0.75), ("rte", 0.5), ("wnli", None),
                             ("mrpc", 1), ("stsb", -0.125))
    out = tmp_path / "rep"
    assert cli.main(["report", "--metrics", *paths, "--out", str(out)]) == 0
    # a column per task, in the order the reports were given
    assert (out / "summary.csv").read_text() == (
        "model,sts,rte,wnli,mrpc,stsb\nencoder,0.75,0.5,,1,-0.125\n")
    man = json.loads((out / "manifest.json").read_text())
    assert sorted(man["input_digests"]) == sorted(paths)


def test_report_refuses_a_task_given_twice(tmp_path, capsys):
    paths = _metrics_reports(tmp_path, ("rte", 0.5), ("sts", 0.75), ("rte", 0.625))
    out = tmp_path / "rep"
    capsys.readouterr()
    assert cli.main(["report", "--metrics", *paths, "--out", str(out)]) == 1
    lines = _one_error_line(capsys)
    assert len(lines) == 1 and lines[0].startswith("usage error:") and "'rte'" in lines[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("form", ["missing", "empty", "truncated", "wrong-kind", "schema"])
def test_a_bad_metrics_report_among_good_ones_writes_nothing(ws, tmp_path, capsys, form):
    first, bad, last = _metrics_reports(tmp_path, ("rte", 0.5), ("sts", 0.75), ("wnli", 0.25))
    Path(bad).unlink()
    _bad_text(form, json.dumps({"task": "sts", "reported_test_score": 0.75}), ws, Path(bad),
              json.dumps({"task": "sts", "reported_test_score": "high"}))
    out = tmp_path / "rep"
    capsys.readouterr()
    assert cli.main(["report", "--loss-log", str(ws["pre"] / "loss_log.csv"),
                     "--metrics", first, bad, last, "--out", str(out)]) == 2
    lines = _one_error_line(capsys)
    assert len(lines) == 1 and lines[0].startswith("data error:") and bad in lines[0], lines
    assert list(out.iterdir()) == []  # not even the loss curve of the good --loss-log


def _no_work(monkeypatch, *names):
    """Make each `module.function` of `cli` fail the test if it is called."""
    def never(*a, **kw):
        raise AssertionError("ran work that a failed up-front check should have prevented")

    for name in names:
        module, function = name.split(".")
        monkeypatch.setattr(getattr(cli, module), function, never)


@pytest.mark.parametrize("where", ["flag", "config file"])
def test_init_checkpoint_refuses_a_preset(ws, tmp_path, monkeypatch, capsys, where):
    _no_work(monkeypatch, "corpus_mod.read_jsonl", "pt.train")
    extra = ["--preset", "micro"]
    if where == "config file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "micro"}), encoding="utf-8")
        extra = ["--config", str(cfg)]
    capsys.readouterr()
    assert _continue_pretraining(ws, tmp_path / "out", ws["pre"] / "model.ckpt", *extra) == 1
    err = capsys.readouterr().err
    assert "usage error: preset cannot be set with init_checkpoint" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_init_checkpoint_refuses_seq_len_above_its_max(ws, tmp_path, monkeypatch, capsys):
    _no_work(monkeypatch, "pt.tokenize_corpus")
    init = ws["pre"] / "model.ckpt"  # micro: max_seq_len 64
    capsys.readouterr()
    assert _continue_pretraining(ws, tmp_path / "long", init, "--seq-len", "65") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [line for line in err if not line.startswith("lusoforge: config")] == [
        f"data error: seq_len 65 exceeds max_seq_len 64 of checkpoint {init}"]


def _task_call(ws, command, checkpoint, *extra):
    """The argv of a task command over the workspace's files, less --out."""
    data = {"finetune": ["--train", str(ws["train_tsv"])],
            "sweep": ["--train", str(ws["train_tsv"]), "--test", str(ws["test_tsv"]),
                      "--grid", "quick"],
            "eval": ["--data", str(ws["test_tsv"])]}[command]
    epochs = [] if command == "eval" else ["--epochs", "1"]
    return [command, "--task", "rte", "--checkpoint", str(checkpoint),
            "--tokenizer", str(ws["vocab"]), *data, *epochs, *extra]


def _one_error_line(capsys) -> list[str]:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.strip().splitlines() if not line.startswith("lusoforge: config")]


_TASK_WORK = ("ft.finetune", "ft.run_grid", "ft.evaluate")


@pytest.mark.parametrize("command", ["sweep", "eval"])  # finetune: see above
def test_task_commands_refuse_a_tokenizer_of_another_vocabulary(ws, tmp_path, monkeypatch,
                                                                capsys, command):
    small = tmp_path / "small.ckpt"
    config = preset("micro", vocab_size=16)
    arrays, meta = init_params(config, np.random.default_rng(0)), None
    if command == "eval":  # eval needs a fine-tuned head
        _, tuned, meta = load_checkpoint(ws["fin"] / "model_finetuned.ckpt")
        arrays.update((k, tuned[k]) for k in ("head.w", "head.b"))
    save_checkpoint(small, config, arrays, meta=meta)
    _no_work(monkeypatch, *_TASK_WORK)
    capsys.readouterr()
    argv = _task_call(ws, command, small, "--seq-len", "32")
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert _one_error_line(capsys) == [
        f"data error: tokenizer has 160 entries but checkpoint {small} has 16"]


@pytest.mark.parametrize("command", ["finetune", "sweep", "eval"])
def test_task_commands_refuse_seq_len_above_the_checkpoint_max(ws, tmp_path, monkeypatch,
                                                               capsys, command):
    ckpt = ws["fin"] / "model_finetuned.ckpt" if command == "eval" else ws["pre"] / "model.ckpt"
    _no_work(monkeypatch, *_TASK_WORK)
    capsys.readouterr()
    argv = _task_call(ws, command, ckpt, "--seq-len", "100")
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert _one_error_line(capsys) == [
        f"data error: seq_len 100 exceeds max_seq_len 64 of checkpoint {ckpt}"]


@pytest.mark.parametrize("command, flag", [("sweep", "--test"), ("eval", "--data")])
def test_task_commands_refuse_an_empty_task_file(ws, tmp_path, monkeypatch, capsys,
                                                 command, flag):
    empty = tmp_path / "empty.tsv"
    write_task_tsv([], empty, RTE)
    ckpt = ws["fin"] / "model_finetuned.ckpt" if command == "eval" else ws["pre"] / "model.ckpt"
    argv = _task_call(ws, command, ckpt, "--seq-len", "32")
    argv[argv.index(flag) + 1] = str(empty)
    _no_work(monkeypatch, *_TASK_WORK)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert _one_error_line(capsys) == [f"data error: task file {empty} holds no examples"]


def test_eval_refuses_a_checkpoint_of_another_head_type(ws, tmp_path, monkeypatch, capsys):
    ckpt = ws["fin"] / "model_finetuned.ckpt"  # fine-tuned on rte
    argv = _task_call(ws, "eval", ckpt, "--seq-len", "32")
    argv[argv.index("--task") + 1] = "stsb"
    _no_work(monkeypatch, *_TASK_WORK)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert _one_error_line(capsys) == [
        f"data error: checkpoint {ckpt} holds a binary_classification head, but this command "
        "needs a regression head"]


def test_eval_refuses_a_head_of_the_wrong_width(ws, tmp_path, monkeypatch, capsys):
    config, arrays, meta = load_checkpoint(ws["fin"] / "model_finetuned.ckpt")
    arrays["head.w"], arrays["head.b"] = arrays["head.w"][:, :1], arrays["head.b"][:1]
    narrow = tmp_path / "narrow.ckpt"
    save_checkpoint(narrow, config, arrays, meta=meta)
    _no_work(monkeypatch, *_TASK_WORK)
    capsys.readouterr()
    argv = _task_call(ws, "eval", narrow, "--seq-len", "32")
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    [line] = _one_error_line(capsys)
    assert re.fullmatch(
        re.escape(f"data error: checkpoint {narrow}: tensor 'head.w' has entry ")
        + r"\{'offset': \d+, 'shape': \[64, 1\], 'size': 256\}, but its model needs shape "
        r"\[64, 2\], 512 bytes within \d+", line), line


# ---------------------------------------------------------------------------
# the failure matrix of the two artifact inputs, --checkpoint and --tokenizer


def _rewrite_header(src, dst, edit):
    """Copy checkpoint `src` to `dst` with `edit(header)` applied to its JSON
    header; the payload stays as it is."""
    raw = src.read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + n])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + n :])


def _edit_arrays(src, dst, edit):
    """Copy checkpoint `src` to `dst` with `edit(arrays)` applied to its tensors."""
    config, arrays, meta = load_checkpoint(src)
    edit(arrays)
    save_checkpoint(dst, config, arrays, meta=meta)


def _bad_checkpoint(form, good, ws, path):
    """Write the `form` of a bad checkpoint at `path`, from checkpoint `good`;
    return the text its error line must hold besides the path."""
    if form == "missing":
        return "cannot read checkpoint"
    if form == "empty":
        path.write_bytes(b"")
    elif form == "truncated":
        raw = good.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
    elif form == "wrong-kind":
        path.write_bytes(ws["vocab"].read_bytes())
    elif form == "lacks-a-tensor":
        def edit(arrays):
            del arrays["layer0.ffn.w2"]
            arrays["stray.w"] = np.zeros(3, dtype=np.float32)
        _edit_arrays(good, path, edit)
        return "lacks tensor 'layer0.ffn.w2'"
    elif form == "extra-tensor":
        _edit_arrays(good, path, lambda a: a.update({"stray.w": np.zeros(3, dtype=np.float32)}))
        return "holds tensor 'stray.w'"
    elif form == "misshaped":
        _edit_arrays(good, path, lambda a: a.update({"layer0.attn.wq": a["layer0.attn.wq"][:, :32]}))
        return "'shape': [64, 32], 'size': 8192}, but its model needs shape [64, 64]"
    elif form == "short-conv-bias":
        _edit_arrays(good, path, lambda a: a.update({"conv.bias": np.zeros(7, dtype=np.float32)}))
        return "'shape': [7], 'size': 28}, but its model needs shape [64]"
    elif form == "size-inconsistent":
        _rewrite_header(good, path, lambda h: h["tensors"]["embed.ln.bias"].update(size=252))
        return "'size': 252}, but its model needs shape [64], 256 bytes"
    elif form == "no-tensors":
        _rewrite_header(good, path, lambda h: h.pop("tensors"))
        return "tensors object"
    elif form == "no-meta":
        _rewrite_header(good, path, lambda h: h.pop("meta"))
        return "meta object"
    elif form == "float-hidden-size":
        _rewrite_header(good, path, lambda h: h["config"].update(hidden_size=64.0))
        return "invalid config: hidden_size must be an integer >= 1, got 64.0"
    elif form == "float-num-layers":
        _rewrite_header(good, path, lambda h: h["config"].update(num_layers=2.0))
        return "invalid config: num_layers must be an integer >= 1, got 2.0"
    elif form == "fine-tuned":
        path.write_bytes((ws["fin"] / "model_finetuned.ckpt").read_bytes())
        return "holds a binary_classification head, but this command needs no head"
    elif form == "pre-training":
        path.write_bytes((ws["pre"] / "model.ckpt").read_bytes())
        return "holds no head, but this command needs a binary_classification head"
    return ""


def _bad_tokenizer(form, ws, path):
    """Write the `form` of a bad tokenizer file at `path`; return the text
    its error line must hold besides the path."""
    good = json.loads(ws["vocab"].read_text(encoding="utf-8"))
    if form == "missing":
        return "cannot read tokenizer file"
    if form == "empty":
        path.write_text("", encoding="utf-8")
    elif form == "truncated":
        text = ws["vocab"].read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
    elif form == "wrong-kind":
        path.write_bytes((ws["pre"] / "model.ckpt").read_bytes())
    elif form == "array":
        path.write_text("[1, 2]", encoding="utf-8")
        return "is not a JSON object of format version 1"
    elif form == "version-only":
        path.write_text('{"version": 1}', encoding="utf-8")
        return "vocab must map tokens to integer ids"
    elif form == "no-specials":
        del good["specials"]
        path.write_text(json.dumps(good), encoding="utf-8")
        return "specials must be {'PAD': 0, 'UNK': 1, 'CLS': 2, 'SEP': 3, 'MASK': 4}, got None"
    elif form == "one-element-merge":
        good["merges"][3] = good["merges"][3][:1]
        path.write_text(json.dumps(good), encoding="utf-8")
        return "merges must be a list of string pairs"
    elif form == "text-id":
        good["vocab"]["<cls>"] = "2"
        path.write_text(json.dumps(good), encoding="utf-8")
        return "vocab must map tokens to integer ids"
    elif form == "id-past-the-vocabulary":
        good["vocab"]["<cls>"] = len(good["vocab"])
        path.write_text(json.dumps(good), encoding="utf-8")
        return f"vocab must map tokens to integer ids below the vocabulary size {len(good['vocab'])}"
    elif form == "special-past-the-vocabulary":
        good["specials"]["MASK"] = 999
        path.write_text(json.dumps(good), encoding="utf-8")
        return "specials must be {'PAD': 0, 'UNK': 1, 'CLS': 2, 'SEP': 3, 'MASK': 4}, got"
    elif form == "no-unk":
        del good["specials"]["UNK"]
        path.write_text(json.dumps(good), encoding="utf-8")
        return "specials must be {'PAD': 0, 'UNK': 1, 'CLS': 2, 'SEP': 3, 'MASK': 4}, got"
    elif form == "other-special-id":
        good["specials"] = {"UNK": 1}
        path.write_text(json.dumps(good), encoding="utf-8")
        return "specials must be {'PAD': 0, 'UNK': 1, 'CLS': 2, 'SEP': 3, 'MASK': 4}, got {'UNK': 1}"
    elif form == "cls-elsewhere":
        other = next(t for t, i in good["vocab"].items() if i == 7)
        good["vocab"]["<cls>"], good["vocab"][other] = 7, 2
        path.write_text(json.dumps(good), encoding="utf-8")
        return "vocab must hold <cls> at id 2, got 7"
    elif form == "other-marker":
        good["marker"] = "_"
        path.write_text(json.dumps(good), encoding="utf-8")
        return "marker must be '▁', got '_'"
    elif form == "non-string-marker":
        good["marker"] = 5
        path.write_text(json.dumps(good), encoding="utf-8")
        return "marker must be '▁', got 5"
    return ""


_FORMS = ("missing", "empty", "truncated", "wrong-kind")
_CHECKPOINT_FORMS = _FORMS + ("lacks-a-tensor", "extra-tensor", "misshaped", "short-conv-bias",
                              "size-inconsistent", "no-tensors", "no-meta", "float-hidden-size",
                              "float-num-layers")
_TOKENIZER_FORMS = _FORMS + ("array", "version-only", "no-specials", "one-element-merge",
                             "text-id", "id-past-the-vocabulary", "special-past-the-vocabulary",
                             "no-unk", "other-special-id", "cls-elsewhere", "other-marker",
                             "non-string-marker")
_ARTIFACT_COMMANDS = ("finetune", "sweep", "eval", "pretrain")
_MATRIX = ([(c, "checkpoint", f) for c in _ARTIFACT_COMMANDS for f in _CHECKPOINT_FORMS]
           + [(c, "tokenizer", f) for c in (*_ARTIFACT_COMMANDS, "corpus stats")
              for f in _TOKENIZER_FORMS]
           + [("pretrain", "checkpoint", "fine-tuned"), ("eval", "checkpoint", "pre-training")])


@pytest.mark.parametrize("command, artifact, form", _MATRIX,
                         ids=["-".join(case) for case in _MATRIX])
def test_a_bad_artifact_is_one_data_error_line_before_any_work(ws, tmp_path, monkeypatch,
                                                               capsys, command, artifact, form):
    good = ws["fin"] / "model_finetuned.ckpt" if command == "eval" else ws["pre"] / "model.ckpt"
    checkpoint, tokenizer = good, ws["vocab"]
    bad = tmp_path / f"bad-{artifact}"
    if artifact == "checkpoint":
        checkpoint, must_hold = bad, _bad_checkpoint(form, good, ws, bad)
    else:
        tokenizer, must_hold = bad, _bad_tokenizer(form, ws, bad)
    work = ["pt.tokenize_corpus", "corpus_mod.corpus_stats", *_TASK_WORK]
    if command == "pretrain":
        argv = ["pretrain", "--input", str(ws["filtered"]), "--tokenizer", str(tokenizer),
                "--init-checkpoint", str(checkpoint), "--seq-len", "32", "--warmup-steps", "1",
                "--total-steps", "2"]
    elif command == "corpus stats":
        argv = ["corpus", "stats", "--input", str(ws["filtered"]), "--tokenizer", str(tokenizer)]
    else:
        argv = _task_call(ws, command, checkpoint, "--seq-len", "32")
        argv[argv.index("--tokenizer") + 1] = str(tokenizer)
    # the tokenizer and the checkpoint are read and checked before the corpus
    _no_work(monkeypatch, *work, "corpus_mod.read_jsonl")
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    lines = _one_error_line(capsys)
    assert len(lines) == 1 and lines[0].startswith("data error:"), lines
    assert str(bad) in lines[0] and must_hold in lines[0], lines


# ---------------------------------------------------------------------------
# the failure matrix of the text inputs: task TSVs, config files and report's
# inputs, each missing, empty, truncated, of the wrong kind (a checkpoint,
# which is not UTF-8) or of the wrong schema


def _bad_text(form, good_text, ws, path, wrong_schema):
    """Write the `form` of a bad text input at `path`: `good_text` cut at its
    last field separator for "truncated", `wrong_schema` for "schema"."""
    if form == "empty":
        path.write_bytes(b"")
    elif form == "truncated":
        cut = max(good_text.rfind("\t"), good_text.rfind(","), len(good_text) // 2)
        path.write_text(good_text[:cut], encoding="utf-8")
    elif form == "wrong-kind":
        path.write_bytes((ws["pre"] / "model.ckpt").read_bytes())
    elif form == "schema":
        path.write_text(wrong_schema, encoding="utf-8")


def _one_failure_line(capsys, rc: int, bad) -> str:
    """The one line a failed call printed besides its config lines, after
    checking that it names `bad` and is of the kind exit code `rc` stands for."""
    lines = _one_error_line(capsys)
    assert len(lines) == 1, lines
    prefix = {1: "usage error:", 2: ("data error:", "error:")}[rc]
    assert lines[0].startswith(prefix) and str(bad) in lines[0], lines
    return lines[0]


_TEXT_FORMS = ("missing", "empty", "truncated", "wrong-kind", "schema")
_TSV_INPUTS = [("finetune", "--train"), ("finetune", "--dev"), ("sweep", "--train"),
               ("sweep", "--dev"), ("sweep", "--test"), ("eval", "--data")]


@pytest.mark.parametrize("form", _TEXT_FORMS)
@pytest.mark.parametrize("command, flag", _TSV_INPUTS, ids=[" ".join(c) for c in _TSV_INPUTS])
def test_a_bad_task_file_is_one_data_error_line_before_any_work(ws, tmp_path, monkeypatch,
                                                                capsys, command, flag, form):
    bad = tmp_path / "bad.tsv"
    _bad_text(form, ws["test_tsv"].read_text(encoding="utf-8"), ws, bad,
              "sentence_a\tsentence_b\tlabel\num\tdois\t2\n")
    good = ws["fin"] / "model_finetuned.ckpt" if command == "eval" else ws["pre"] / "model.ckpt"
    argv = _task_call(ws, command, good, "--seq-len", "32")
    if flag == "--dev":
        argv += ["--dev", str(bad)]
    else:
        argv[argv.index(flag) + 1] = str(bad)
    _no_work(monkeypatch, "ft.encode_examples", *_TASK_WORK)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    _one_failure_line(capsys, 2, bad)


def _config_call(ws, command):
    """The argv of `command` over the workspace's files, less --config and --out."""
    if command in ("finetune", "sweep", "eval"):
        return _task_call(ws, command, ws["fin"] / "model_finetuned.ckpt" if command == "eval"
                          else ws["pre"] / "model.ckpt")
    return {"corpus filter": ["corpus", "filter", "--input", str(ws["corpus"])],
            "corpus stats": ["corpus", "stats", "--input", str(ws["filtered"])],
            "tokenizer train": ["tokenizer", "train", "--input", str(ws["filtered"])],
            "pretrain": ["pretrain", "--input", str(ws["filtered"]),
                         "--tokenizer", str(ws["vocab"])],
            "report": ["report", "--loss-log", str(ws["pre"] / "loss_log.csv")]}[command]


def _stub_handlers(monkeypatch, reached=None):
    """Replace every command handler of `cli` with one that records its
    command in `reached` or, without `reached`, fails the test."""
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        def stub(*a, command=name[len("_cmd_"):].replace("_", " ")):
            if reached is None:
                raise AssertionError(f"ran {command}, which a failed config check should prevent")
            reached.append(command)

        monkeypatch.setattr(cli, name, stub)


_CONFIG_COMMANDS = ("corpus filter", "corpus stats", "tokenizer train", "pretrain", "finetune",
                    "sweep", "eval", "report")


@pytest.mark.parametrize("form", _TEXT_FORMS)
@pytest.mark.parametrize("command", _CONFIG_COMMANDS)
def test_a_bad_config_file_is_one_error_line_before_any_input_loads(ws, tmp_path, monkeypatch,
                                                                    capsys, command, form):
    bad = tmp_path / "cfg.json"
    _bad_text(form, json.dumps({"seed": 3}), ws, bad, json.dumps({"seed": 3, "vocabsize": 96}))
    _stub_handlers(monkeypatch)
    capsys.readouterr()
    rc = 1 if form == "schema" else 2
    argv = [*_config_call(ws, command), "--config", str(bad)]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == rc
    line = _one_failure_line(capsys, rc, bad)
    if form == "schema":
        assert "has unknown keys ['vocabsize']" in line, line


_OWN_KEYS = {"corpus filter": [*cli._FILTER_SETTINGS, "thresholds"], "corpus stats": [],
             "tokenizer train": list(cli._TOKENIZER_SETTINGS),
             "pretrain": list(cli._PRETRAIN_SETTINGS), "finetune": list(cli._FINETUNE_SETTINGS),
             "sweep": list(cli._SWEEP_SETTINGS), "eval": list(cli._EVAL_SETTINGS), "report": []}


@pytest.mark.parametrize("command", _CONFIG_COMMANDS)
def test_a_config_file_holds_only_the_commands_own_keys(ws, tmp_path, monkeypatch, capsys,
                                                        command):
    reached = []
    _stub_handlers(monkeypatch, reached)
    cfg = tmp_path / "cfg.json"
    own = {**dict.fromkeys(_OWN_KEYS[command], 1), "seed": 3}
    cfg.write_text(json.dumps(own), encoding="utf-8")
    argv = [*_config_call(ws, command), "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0 and reached == [command]
    stray = "vocab_size" if command == "corpus filter" else "thresholds"
    cfg.write_text(json.dumps({**own, stray: 1}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(argv) == 1
    line = _one_failure_line(capsys, 1, cfg)
    assert f"has unknown keys ['{stray}']; this command takes {sorted(own)}" in line, line


# the wrong-schema form is test_report_rejects_a_malformed_input_in_one_line's
@pytest.mark.parametrize("form", _TEXT_FORMS[:-1])
@pytest.mark.parametrize("flag", ["--loss-log", "--metrics"])
def test_a_bad_report_input_is_one_data_error_line(ws, tmp_path, capsys, flag, form):
    bad = tmp_path / "input"
    good = ((ws["pre"] / "loss_log.csv").read_text(encoding="utf-8") if flag == "--loss-log"
            else json.dumps({"task": "rte", "reported_test_score": 0.5}))
    _bad_text(form, good, ws, bad, None)
    capsys.readouterr()
    assert cli.main(["report", flag, str(bad), "--out", str(tmp_path / "rep")]) == 2
    _one_failure_line(capsys, 2, bad)


def test_finetune_and_eval_pin_one_blas_thread(ws, tmp_path, monkeypatch):
    import lusoforge.workers as workers

    calls = []
    monkeypatch.setattr(workers, "_one_blas_thread", lambda: calls.append(len(calls)))
    out = tmp_path / "fin"
    assert cli.main(_task_call(ws, "finetune", ws["pre"] / "model.ckpt", "--seq-len", "32",
                               "--out", str(out))) == 0
    assert calls == [0]
    assert cli.main(_task_call(ws, "eval", out / "model_finetuned.ckpt", "--seq-len", "32",
                               "--out", str(out / "eval"))) == 0
    assert calls == [0, 1]


def test_finetune_writes_the_same_bytes_at_any_blas_thread_count(ws, tmp_path):
    # batches of 64 at seq_len 64 make GEMMs that OpenBLAS splits over two
    # threads, which rounds the fine-tuned weights differently unless pinned
    train = tmp_path / "train.tsv"
    write_task_tsv(synthetic_task_examples(RTE, 96, seed=32), train, RTE)
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = _task_call(ws, "finetune", ws["pre"] / "model.ckpt", "--seq-len", "64",
                          "--batch-size", "64", "--lr", "1e-3", "--seed", "41", "--out", str(out))
        argv[argv.index("--train") + 1] = str(train)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "lusoforge.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append([hashlib.sha256((out / n).read_bytes()).hexdigest()
                        for n in ("model_finetuned.ckpt", "finetune_report.json")])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("flag, content", [
    ("--loss-log", "sentence_a\tsentence_b\tlabel\nx\ty\t1\n"),
    ("--loss-log", "step,epoch,lr,loss,ema_loss\n1,0,fast,4.0,4.0\n"),
    ("--loss-log", "step,epoch,lr,loss,ema_loss\n1,0\n"),
    ("--metrics", "[1, 2]"),
    ("--metrics", '{"a": 1}'),
    ("--metrics", '{"task": "rte"}'),
    ("--metrics", '{"task": "rte", "reported_test_score": "high"}'),
], ids=["tsv", "non-numeric-lr", "short-row", "array", "no-fields", "no-score", "text-score"])
def test_report_rejects_a_malformed_input_in_one_line(tmp_path, capsys, flag, content):
    path = tmp_path / "input"
    path.write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["report", flag, str(path), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:"), lines
    if flag == "--loss-log":
        assert lines[0].startswith(f"data error: {path}:2: ")


_BAD_RECORDS = {
    "int-text": b'{"id": "b", "text": 5}',
    "int-url": b'{"id": "b", "text": "dois tres", "url": 5}',
    "surrogate-text": b'{"id": "b", "text": "dois \\ud800 tres"}',
    "surrogate-id": b'{"id": "b\\ud800", "text": "dois tres"}',
    "surrogate-extra": b'{"id": "b", "text": "dois tres", "note": ["\\udc00"]}',
    "surrogate-key": b'{"id": "b", "text": "dois tres", "\\udfff": 1}',
    "not-utf8": b'{"id": "b", "text": "dois \xed\xa0\x80 tres"}',
    "string-line": b'"idtext"',
    "array-line": b'[{"id": "b", "text": "dois"}]',
}


@pytest.mark.parametrize("bad", sorted(_BAD_RECORDS))
@pytest.mark.parametrize("command", ["corpus filter", "corpus stats", "tokenizer train",
                                     "pretrain"])
def test_malformed_corpus_record_is_one_data_error_line(ws, tmp_path, capsys, command, bad):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "a", "text": "um dois", "url": "https://a.pt/"}\n'
                     + _BAD_RECORDS[bad] + b"\n")
    extra = {"corpus filter": ["--cc", "pt"], "corpus stats": [],
             "tokenizer train": ["--vocab-size", "160"],
             "pretrain": ["--tokenizer", str(ws["vocab"]), "--preset", "micro",
                          "--warmup-steps", "1", "--total-steps", "2"]}[command]
    capsys.readouterr()
    rc = cli.main([*command.split(), "--input", str(path), *extra, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    lines = [line for line in err.strip().splitlines() if not line.startswith("lusoforge: config")]
    assert len(lines) == 1 and lines[0].startswith(f"data error: {path}:2: "), lines
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("content", [b"", b'{"id": "a", "text": " \\t "}\n{"id": "b", "text": ""}\n'],
                         ids=["empty-file", "whitespace-texts"])
@pytest.mark.parametrize("command", ["tokenizer train", "pretrain"])
def test_a_corpus_without_words_is_one_data_error_line(ws, tmp_path, monkeypatch, capsys,
                                                        command, content):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(content)
    extra = {"tokenizer train": ["--vocab-size", "160"],
             "pretrain": ["--tokenizer", str(ws["vocab"]), "--preset", "micro",
                          "--warmup-steps", "1", "--total-steps", "2"]}[command]
    _no_work(monkeypatch, "tok_mod.train_tokenizer", "pt.train")
    capsys.readouterr()
    rc = cli.main([*command.split(), "--input", str(path), *extra, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _one_error_line(capsys) == [f"data error: corpus file {path} holds no words to train on"]
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_a_corpus_of_only_short_documents_is_one_data_error_line(ws, tmp_path, monkeypatch,
                                                                 capsys):
    # every document encodes to fewer than MIN_SEQUENCE_TOKENS tokens
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "ab"}\n{"id": "b", "text": "c d"}\n',
                    encoding="utf-8")
    _no_work(monkeypatch, "pt.train")
    capsys.readouterr()
    rc = cli.main(["pretrain", "--input", str(path), "--tokenizer", str(ws["vocab"]),
                   "--preset", "micro", "--warmup-steps", "1", "--total-steps", "2",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _one_error_line(capsys) == [
        f"data error: corpus file {path} holds no document of 8 tokens or more to train on"]
    assert not (tmp_path / "out" / "manifest.json").exists()


_CORPUS_EXTRA = {"corpus filter": ["--cc", "pt"], "corpus stats": [],
                 "tokenizer train": ["--vocab-size", "160"],
                 "pretrain": ["--preset", "micro", "--warmup-steps", "1", "--total-steps", "2"]}


@pytest.mark.parametrize("form", ["missing", "truncated"])
@pytest.mark.parametrize("command", sorted(_CORPUS_EXTRA))
def test_a_missing_or_truncated_corpus_is_one_data_error_line(ws, tmp_path, monkeypatch,
                                                              capsys, command, form):
    path = tmp_path / "corpus.jsonl"
    if form == "truncated":  # the second record ends mid-object
        path.write_bytes(b'{"id": "a", "text": "um dois", "url": "https://a.pt/"}\n'
                         b'{"id": "b", "text": "tres qua')
    extra = list(_CORPUS_EXTRA[command])
    if command in ("corpus stats", "pretrain"):
        extra += ["--tokenizer", str(ws["vocab"])]
    _no_work(monkeypatch, "corpus_mod.run_pipeline", "corpus_mod.corpus_stats",
             "tok_mod.train_tokenizer", "pt.train")
    capsys.readouterr()
    rc = cli.main([*command.split(), "--input", str(path), *extra, "--out", str(tmp_path / "out")])
    assert rc == 2
    lines = _one_error_line(capsys)
    assert len(lines) == 1 and lines[0].startswith("data error: ") and str(path) in lines[0], lines
    if form == "truncated":
        assert lines[0].startswith(f"data error: {path}:2: "), lines
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_report_requires_some_input(tmp_path, capsys):
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    assert "needs" in capsys.readouterr().err


def make_log(rows):
    log = LossLog()
    for step, loss, ema in rows:
        log.entries.append(LossLogEntry(step=step, epoch=0, lr=1e-4,
                                        loss=loss, ema_loss=ema))
    return log


def test_emit_loss_curve_csv(tmp_path):
    log = make_log([(1, 4.0, 4.0), (2, 3.0, 3.95), (3, 2.0, 3.8525)])
    csv_path = tmp_path / "curve.csv"
    cli.emit_loss_curve(log, csv_path, tmp_path / "curve.svg")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "step,loss,ema_loss"
    assert lines[1] == "1,4.0,4.0"
    assert len(lines) == 4
    # values survive a float round trip exactly
    assert float(lines[3].split(",")[2]) == 3.8525


def test_emit_loss_curve_rejects_empty(tmp_path):
    with pytest.raises(DataError, match="empty"):
        cli.emit_loss_curve(LossLog(), tmp_path / "curve.csv", tmp_path / "curve.svg")


def test_render_loss_svg_monotone():
    log = make_log([(0, 4.0, 4.0), (10, 3.0, 3.0), (20, 2.0, 2.0), (30, 1.0, 1.0)])
    svg = cli.render_loss_svg(log)
    pts = re.search(r'points="([^"]+)"', svg).group(1).split()
    xs = [float(p.split(",")[0]) for p in pts]
    ys = [float(p.split(",")[1]) for p in pts]
    assert len(pts) == 4
    assert xs == sorted(xs) and len(set(xs)) == 4
    # loss falls, so the screen-space curve descends toward larger y
    assert ys == sorted(ys) and len(set(ys)) == 4
    assert ">0<" in svg and ">30<" in svg  # step-axis labels


def test_render_loss_svg_flat_series():
    svg = cli.render_loss_svg(make_log([(0, 1.0, 1.0), (5, 1.0, 1.0)]))
    assert "<svg" in svg  # constant series must not divide by zero


# ---------------------------------------------------------------------------
# removed --threads flag


def test_threads_flag_is_usage_error(ws, tmp_path, capsys):
    rc = cli.main(["corpus", "filter", "--input", str(ws["corpus"]),
                   "--threads", "2", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error: unrecognized arguments: --threads 2" in err
    assert "Traceback" not in err
