"""The benchmark's tracer (`bench/tracing.py`) wraps program functions by
name. Every name it patches must still exist, so an op that looks unused in
`src/` cannot be deleted without this suite failing."""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from lusoforge import autodiff, encoder

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [f"autodiff.{n}" for n in tracing.OP_KINDS + tracing.OTHER_OPS
               if not callable(getattr(autodiff, n, None))]
    missing += [f"encoder.{n}" for n in tracing.SCOPES if not callable(getattr(encoder, n, None))]
    assert not missing, f"the tracer patches names the program no longer has: {missing}"


def test_decoder_takes_params_first():
    # the tracer reads the parameter dict from the decoder's first positional argument
    first = next(iter(inspect.signature(encoder.enhanced_mask_decode).parameters))
    assert first == "params"
