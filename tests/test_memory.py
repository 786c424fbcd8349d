"""Checkpoint I/O holds one tensor in flight, an Adam step one block, and a
fresh model no float64 copy of its weights.

numpy reports its buffers to `tracemalloc`, so the traced peak of a call's
new allocations bounds what the call holds beyond its inputs. The tiny
preset's parameters take 8.07 MiB.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from lusoforge.checkpoint import load_checkpoint, save_checkpoint
from lusoforge.encoder import init_params, preset
from lusoforge.optim import Adam

MIB = 1 << 20


@pytest.fixture(scope="module")
def tiny():
    config = preset("tiny")
    return config, init_params(config, np.random.default_rng(0))


def traced_peak(call):
    """(call(), the peak bytes of the allocations made during it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_saving_adds_no_copy_of_the_model(tiny, tmp_path):
    config, params = tiny
    _, peak = traced_peak(lambda: save_checkpoint(tmp_path / "t.ckpt", config, params,
                                                  meta={"step": 1}))
    assert peak < MIB


def test_loading_holds_only_the_loaded_arrays(tiny, tmp_path):
    config, params = tiny
    save_checkpoint(tmp_path / "t.ckpt", config, params)
    (_, arrays, _), peak = traced_peak(lambda: load_checkpoint(tmp_path / "t.ckpt"))
    size = sum(p.data.nbytes for p in params.values())
    assert sum(a.nbytes for a in arrays.values()) == size
    assert peak < size + MIB


def test_an_adam_step_adds_no_parameter_sized_scratch(tiny):
    config, _ = tiny
    params = init_params(config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape).astype(np.float32)
    opt = Adam(params, lr=1e-3)
    _, peak = traced_peak(opt.step)
    assert opt.t == 1
    assert peak < MIB


def test_initializing_holds_no_float64_copy(tiny):
    config, reference = tiny
    params, peak = traced_peak(lambda: init_params(config, np.random.default_rng(0)))
    size = sum(p.data.nbytes for p in params.values())
    assert size == sum(p.data.nbytes for p in reference.values())
    assert all(p.data.dtype == np.float32 for p in params.values())
    assert peak < size + MIB
