"""Profile one lusoforge CLI call with the benchmark's tracer.

    python3 scripts/profile.py eval --task rte --checkpoint ft.ckpt \
        --tokenizer vocab.json --data test.tsv --seq-len 32 --out /tmp/eval

Runs `lusoforge.cli.main(ARGV)` once in this process under `Tracer` from
`bench/tracing.py` (imported as it is, never changed) and prints the op and
block table: the forward and backward milliseconds of each op kind and of
each model block, the graph walk, the node count and Adam, summed over the
whole call (the benchmark divides the same sums by the optimizer steps,
which are printed too), then every other non-zero row of the tracer, then
the two memory rows a run's manifest records: the peak resident MB of this
process (`peak_rss_mb`, the one process the benchmark's `peak_rss_mb`
sees) and of its largest worker process (`workers_peak_rss_mb`, 0 without
workers). The call's own stdout goes to stderr. The exit code is the call's.

Only this process is traced. `sweep` runs its grid in forked workers, and
`pretrain` its micro-batches, whenever more than one CPU is usable, so pin
such a call to one CPU to see its work: `taskset -c 0 python3
scripts/profile.py sweep ...`.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("autodiff", "encoder", "optim", "checkpoint", "tokenizer", "corpus", "pretrain",
           "finetune", "manifest", "cli")


def table(tracer, tracing, memory: dict[str, float]) -> list[str]:
    """One `name value unit` line per row, summed over the traced call, then
    the `memory` rows in MB."""
    rows = []
    for kind in tracing.KINDS:
        for d, times in (("fwd", tracer.fwd), ("bwd", tracer.bwd)):
            ms = 1000.0 * sum(v for (k, _), v in times.items() if k == kind)
            rows.append((f"autodiff.{kind}.{d}_ms", ms, "ms"))
    rows.append(("autodiff.walk_ms", 1000.0 * tracer.self_time["autodiff.backward"], "ms"))
    rows.append(("autodiff.nodes", tracer.count["autodiff.nodes"], "count"))
    for block in tracing.BLOCKS:
        fwd = sum(v for (_, b), v in tracer.fwd.items() if b == block) + tracer.glue[block]
        bwd = sum(v for (_, b), v in tracer.bwd.items() if b == block)
        rows.append((f"encoder.{block}.fwd_ms", 1000.0 * fwd, "ms"))
        rows.append((f"encoder.{block}.bwd_ms", 1000.0 * bwd, "ms"))
    rows.append(("optim.adam_ms", 1000.0 * tracer.total["optim.step"], "ms"))
    rows.append(("optim.steps", tracer.count["optim.step"], "count"))
    shown = {name for name, _, _ in rows}
    units = dict(tracing.PER_LAYER)
    rows += [(name, value, units[name]) for name, value in tracer.metrics().items()
             if value and name not in shown and not name.startswith(("autodiff.", "encoder.",
                                                                       "optim."))]
    rows += [(name, value, "MB") for name, value in memory.items()]
    width = max(len(name) for name, _, _ in rows)
    return [f"{name:<{width}}  {value:12.3f}  {unit}" for name, value, unit in rows]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    # in place of this script's directory, where this file would shadow the stdlib `profile`
    sys.path[:1] = [str(ROOT / "src"), str(ROOT / "bench")]
    import tracing

    lf = types.SimpleNamespace(**{m: importlib.import_module(f"lusoforge.{m}") for m in MODULES})
    tracer = tracing.Tracer(lf)
    tracer.install()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = lf.cli.main(argv)
    finally:
        tracer.restore()
    print(f"profile of: {' '.join(argv)}")
    print("\n".join(table(tracer, tracing, lf.manifest.peak_rss_mb())))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
