"""The benchmark's tracer (`bench/tracing.py`) wraps program functions by
name. Every name it patches must still exist, so an op that looks unused in
`src/` cannot be deleted without this suite failing."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

from lusoforge import autodiff, encoder, finetune

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def benchmark_modules_and_core_targets():
    """PROGRAM_MODULES and every workload's `core` targets, read from the
    benchmark's source without importing it."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    modules, targets = None, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["PROGRAM_MODULES"]:
            modules = ast.literal_eval(node.value)
        if isinstance(node, ast.FunctionDef) and node.name == "core":
            # return [(lf.<module>, "<function>"), ...]
            targets += [(e.elts[0].attr, ast.literal_eval(e.elts[1])) for e in node.body[-1].value.elts]
    return modules, targets


def test_tracer_and_core_timer_install_and_restore():
    modules, targets = benchmark_modules_and_core_targets()
    assert len(modules) == 10 and len(targets) == 5
    lf = types.SimpleNamespace(**{m: importlib.import_module(f"lusoforge.{m}") for m in modules})
    owners = [getattr(lf, m) for m in modules] + [lf.optim.Adam, lf.finetune.TaskModel,
                                                   lf.manifest.RunManifest]
    before = [dict(vars(o)) for o in owners]
    tracing = load_tracing()
    tracer = tracing.Tracer(lf)
    timer = tracing.CoreTimer([(getattr(lf, m), name) for m, name in targets])
    for patcher in (tracer, timer):
        try:
            patcher.install()
            assert patcher._patches._undo
        finally:
            patcher.restore()
        assert all(vars(o).get(k) is v for o, snap in zip(owners, before) for k, v in snap.items())


def test_predict_takes_the_encoded_sequences_second():
    # the tracer counts predicted examples as len(args[1]) of each predict call
    assert list(inspect.signature(finetune.predict).parameters)[:2] == ["model", "encoded"]
