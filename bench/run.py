"""Benchmark of the lusoforge pipeline: pre-training, the fine-tuning grid, curation.

    python3 bench/run.py --workload {pretrain-v8k,sweep-grid,curate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each run generates its inputs from --seed,
sets them up several times (setup_s is the median), then repeats whole
rounds of the workload's CLI calls, in process through `lusoforge.cli.main`,
until --seconds have passed (at least two rounds). The first round's outputs
are checked against the benchmark's own computations; every later round
must reproduce them byte for byte. The last line of stdout is one JSON
object: correct, attempted, failed, and the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1). A traced run alternates untraced and
traced rounds, so trace.overhead_s compares rounds of the same process.
"""

from __future__ import annotations

import os

# one BLAS thread: the machine has two cores and is shared; see README.md
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# the program's runtime dependencies load before set-up is timed, so setup_s covers its own import
import numpy  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

import checks  # noqa: E402
import gen  # noqa: E402
import reference as ref  # noqa: E402
from tracing import PER_LAYER, CoreTimer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROGRAM_MODULES = ("autodiff", "encoder", "optim", "checkpoint", "tokenizer", "corpus",
                   "pretrain", "finetune", "manifest", "cli")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))


def import_program():
    """Import lusoforge afresh from the checkout, so set-up pays its import."""
    for name in [n for n in sys.modules if n == "lusoforge" or n.startswith("lusoforge.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"lusoforge.{m}")
                                    for m in PROGRAM_MODULES})


def digest(*paths: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def grid_ops(self, out) -> tuple[int, int]:
        """Operations attempted and failed inside the CLI calls, beyond the calls themselves."""
        return 0, 0


class Pretrain(Workload):
    """Tiny preset, 8192-entry vocabulary: the EMD, tied projection and Adam over a 1M-entry table."""

    name = "pretrain-v8k"
    steps, warmup, peak_lr, every, seq, micro, accum = 6, 2, 1e-3, 3, 64, 8, 2

    def setup(self, seed, d, lf):
        inputs = gen.pretrain_inputs(seed, d)
        model = json.loads(inputs["vocab"].read_text(encoding="utf-8"))
        bpe = ref.BPE(model["vocab"], model["merges"])
        short = [i for i, t in enumerate(inputs["docs"]) if len(bpe.encode(t)) + 2 < self.seq]
        if short:
            raise RuntimeError(f"documents {short[:5]} are not longer than seq {self.seq}")
        return inputs

    def core(self, lf):
        return [(lf.pretrain, "train")]

    def calls(self, inp, out):
        return [["pretrain", "--input", str(inp["corpus"]), "--tokenizer", str(inp["vocab"]),
                 "--preset", "tiny", "--seq-len", str(self.seq),
                 "--micro-batch-size", str(self.micro), "--accumulation-steps", str(self.accum),
                 "--total-steps", str(self.steps), "--warmup-steps", str(self.warmup),
                 "--peak-lr", str(self.peak_lr), "--checkpoint-every", str(self.every),
                 "--seed", "7", "--out", str(out / "pre")]]

    def items(self, inp, out):
        # every sequence is seq tokens wide, so this counts the non-pad input tokens trained
        return self.steps * self.accum * self.micro * self.seq

    def outputs(self, out):
        return [out / "pre" / n for n in ("model.ckpt", "loss_log.csv", "loss_curve.csv")] + \
            [out / "pre" / f"model_step{s:06d}.ckpt" for s in range(self.every, self.steps + 1, self.every)]

    def check(self, inp, out, lf):
        with open(out / "pre" / "loss_log.csv", encoding="utf-8", newline="") as f:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(f)]
        config, arrays, _ = lf.checkpoint.load_checkpoint(out / "pre" / "model.ckpt")
        return checks.check_pretrain(rows, arrays, steps=self.steps, warmup=self.warmup,
                                     peak_lr=self.peak_lr, vocab=gen.PRETRAIN_VOCAB)


class Sweep(Workload):
    """The paper's 36-run grid at the micro preset: short runs plus inference, no EMD."""

    name = "sweep-grid"
    epochs, batch, seq = 2, 16, 32

    def setup(self, seed, d, lf):
        return gen.sweep_inputs(seed, d, lf)

    def core(self, lf):
        return [(lf.finetune, "run_grid")]

    def calls(self, inp, out):
        return [["sweep", "--task", "rte", "--checkpoint", str(inp["checkpoint"]),
                 "--tokenizer", str(inp["vocab"]), "--train", str(inp["train"]),
                 "--test", str(inp["test"]), "--grid", "full", "--epochs", str(self.epochs),
                 "--batch-size", str(self.batch), "--seq-len", str(self.seq),
                 "--seed", "3", "--out", str(out / "sweep")]]

    def items(self, inp, out):
        report = json.loads((out / "sweep" / "metrics_report.json").read_text(encoding="utf-8"))
        return sum(1 for r in report["runs"] if r["status"] == "ok")

    def grid_ops(self, out):
        path = out / "sweep" / "metrics_report.json"
        if not path.exists():
            return checks.GRID_RUNS, checks.GRID_RUNS
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        return checks.GRID_RUNS, checks.GRID_RUNS - sum(1 for r in runs if r["status"] == "ok")

    def outputs(self, out):
        return [out / "sweep" / "metrics_report.json", out / "sweep" / "summary.csv"]

    def check(self, inp, out, lf):
        report = json.loads((out / "sweep" / "metrics_report.json").read_text(encoding="utf-8"))
        return checks.check_sweep(report, n_dev=ref.dev_size(gen.SWEEP_TRAIN), n_test=gen.SWEEP_TEST)


class Curate(Workload):
    """Filter, tokenizer training and stats: pure-Python data preparation, no autodiff."""

    name = "curate"

    def setup(self, seed, d, lf):
        return gen.curate_inputs(seed, d)

    def core(self, lf):
        return [(lf.corpus, "run_pipeline"), (lf.tokenizer, "train_tokenizer"), (lf.corpus, "corpus_stats")]

    def calls(self, inp, out):
        filtered = str(out / "filter" / "filtered.jsonl")
        return [["corpus", "filter", "--input", str(inp["corpus"]), "--cc", "pt", "--near-dups",
                 "--out", str(out / "filter")],
                ["tokenizer", "train", "--input", filtered, "--vocab-size", str(checks.CURATE_VOCAB),
                 "--out", str(out / "tok")],
                ["corpus", "stats", "--input", filtered, "--tokenizer", str(out / "tok" / "vocab.json"),
                 "--out", str(out / "stats")]]

    def items(self, inp, out):
        return len(inp["expected"].rows)

    def outputs(self, out):
        return [out / "filter" / "filtered.jsonl", out / "filter" / "filter_report.json",
                out / "tok" / "vocab.json", out / "stats" / "stats_report.json"]

    def check(self, inp, out, lf):
        read = lambda p: json.loads(p.read_text(encoding="utf-8"))  # noqa: E731
        with open(out / "filter" / "filtered.jsonl", encoding="utf-8") as f:
            kept = [json.loads(line) for line in f if line.strip()]
        return checks.check_curate(read(out / "filter" / "filter_report.json"), kept,
                                   read(out / "tok" / "vocab.json"),
                                   read(out / "stats" / "stats_report.json"), inp["expected"])


WORKLOADS = {w.name: w for w in (Pretrain(), Sweep(), Curate())}


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Round:
    wall: float
    core: float
    items: float
    attempted: int
    failed: int
    errors: list[str]
    layers: dict[str, float] | None


def run_round(wl, inp, out: Path, lf, first: dict | None, traced: bool) -> tuple[Round, dict]:
    out.mkdir(parents=True)
    gc.collect()  # garbage of the previous round is not this round's cost
    timer = CoreTimer(wl.core(lf))
    timer.install()
    tracer = Tracer(lf) if traced else None
    if tracer:
        tracer.install()
    attempted = failed = 0
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            for argv in wl.calls(inp, out):
                attempted += 1
                try:
                    rc = lf.cli.main(argv)
                except Exception:  # an uncaught error is a failed operation, not a crash of the benchmark
                    traceback.print_exc()
                    rc = -1
                failed += rc != 0
        wall = perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
        timer.restore()
    grid_attempted, grid_failed = wl.grid_ops(out)
    attempted += grid_attempted
    failed += grid_failed
    errors: list[str] = []
    prints = {}
    items = 0
    try:
        prints = digest(*wl.outputs(out))
        items = wl.items(inp, out)
        if first is None:
            errors = wl.check(inp, out, lf)
        elif prints != first:
            errors = [f"outputs differ from the first round: "
                      f"{sorted(k for k in prints if prints[k] != first.get(k))}"]
    except (OSError, ValueError, KeyError) as e:
        errors = [f"missing or unreadable output: {type(e).__name__}: {e}"]
    shutil.rmtree(out)
    return Round(wall, timer.seconds, items, attempted, failed, errors,
                 tracer.metrics() if tracer else None), prints


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lusoforge" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'lusoforge'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl, args, work: Path) -> int:
    setups = []
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir()
        t0 = perf_counter()
        lf = import_program()
        inp = wl.setup(args.seed, d, lf)
        setups.append(perf_counter() - t0)

    rounds: list[Round] = []
    first = None
    start = perf_counter()
    n = 0
    # untraced rounds only, or untraced/traced pairs; always at least two of each kind used
    while n < (4 if args.trace else 2) or perf_counter() - start < args.seconds or (args.trace and n % 2):
        traced = bool(args.trace) and n % 2 == 1
        r, prints = run_round(wl, inp, work / f"round{n}", lf, first, traced)
        if first is None:
            first = prints
        print(f"round {n}{' traced' if traced else ''}: wall {r.wall:.4f} s, core {r.core:.4f} s",
              file=sys.stderr)
        rounds.append(r)
        n += 1

    errors = [e for r in rounds for e in r.errors]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    plain = [r for r in rounds if r.layers is None]
    if args.trace:
        traced = [r for r in rounds if r.layers is not None]
        values = {name: statistics.median(r.layers[name] for r in traced)
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - statistics.median(r.wall for r in plain))
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r.wall for r in plain),
            "items_per_s": statistics.median(r.items / r.core if r.core else 0.0 for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
