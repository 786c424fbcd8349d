"""The tracer attributes time without changing results, and the metric lists
in BENCHMARK.json match what the benchmark prints."""

import json
import types
from pathlib import Path

import numpy as np

import tracing
from lusoforge import autodiff, checkpoint, cli, corpus, encoder, finetune, manifest, optim, pretrain, tokenizer

LF = types.SimpleNamespace(autodiff=autodiff, encoder=encoder, optim=optim, checkpoint=checkpoint,
                           tokenizer=tokenizer, corpus=corpus, pretrain=pretrain, finetune=finetune,
                           manifest=manifest, cli=cli)
ROOT = Path(__file__).resolve().parents[2]


def mlm_step(dropout):
    config = encoder.preset("micro", dropout_rate=dropout)
    params = encoder.init_params(config, np.random.default_rng(0))
    model = encoder.DisentangledEncoder(config, params)
    rng = np.random.default_rng(1)
    ids = rng.integers(5, config.vocab_size, size=(2, 12))
    labels = np.where(rng.random(ids.shape) < 0.3, ids, -100)
    labels[0, 0] = ids[0, 0]
    opt = optim.Adam(params, lr=1e-3)
    opt.zero_grad()
    logits = model.mlm_logits(ids, rng=np.random.default_rng(2) if dropout else None)
    flat = autodiff.reshape(logits, (24, config.vocab_size))
    loss = autodiff.cross_entropy(flat, labels.reshape(-1))
    autodiff.backward(loss)
    opt.step()
    return float(loss.data), params["embed.tokens"].data.copy()


def test_tracer_covers_every_op_kind_and_block_and_changes_nothing():
    plain = mlm_step(0.1)
    original = autodiff.matmul
    tracer = tracing.Tracer(LF)
    tracer.install()
    try:
        traced = mlm_step(0.1)
    finally:
        tracer.restore()
    assert autodiff.matmul is original and encoder.ad.matmul is original
    assert plain[0] == traced[0] and np.array_equal(plain[1], traced[1])
    m = tracer.metrics()
    for kind in tracing.KINDS:
        assert m[f"autodiff.{kind}.fwd_ms"] > 0 and m[f"autodiff.{kind}.bwd_ms"] > 0, kind
    for block in tracing.BLOCKS:
        assert m[f"encoder.{block}.fwd_ms"] > 0 and m[f"encoder.{block}.bwd_ms"] > 0, block
    assert m["optim.params"] == sum(p.data.size for p in encoder.init_params(
        encoder.preset("micro"), np.random.default_rng(0)).values())
    assert m["autodiff.walk_ms"] > 0


def test_nested_ops_are_counted_once():
    tracer = tracing.Tracer(LF)
    tracer.install()
    try:
        a = autodiff.Tensor(np.ones(3), requires_grad=True)
        b = autodiff.Tensor(np.ones(3), requires_grad=True)
        autodiff.backward(autodiff.tensor_sum(autodiff.sub(a, b)))   # sub = add(a, scale(b, -1))
    finally:
        tracer.restore()
    assert tracer.count["autodiff.nodes"] == 3
    assert np.array_equal(b.grad, -np.ones(3))


def test_benchmark_json_lists_what_the_benchmark_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
