"""Print the sha256 of every output the benchmark pins, for one checkout.

    python3 scripts/output_digests.py CHECKOUT --seeds 1 2 3 > digests.txt

For each workload and seed, a fresh process started in CHECKOUT generates
the workload's inputs and runs one round of its CLI calls, both as
CHECKOUT's `bench/run.py` defines them in `WORKLOADS` (imported, never
changed), against CHECKOUT's `src/`. It prints one line
`workload seed file sha256` for each output the workload pins, in order, and
sends the calls' own output to stderr. Run it on two checkouts and `diff`
the listings to show that a change keeps every pinned output's bytes.
The exit code is the first failing run's, or 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("pretrain-v8k", "sweep-grid", "curate")


def digest_round(workload: str, seed: int) -> int:
    """Run one round of `workload` at `seed` in this process, whose working
    directory is the checkout, and print its output digests."""
    root = Path.cwd()
    # in place of this script's directory, where scripts/profile.py would shadow the stdlib
    sys.path[:1] = [str(root / "bench"), str(root / "src")]
    import run  # the checkout's bench/run.py; it pins OpenBLAS to one thread before numpy loads

    wl = run.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        lf = run.import_program()
        (Path(tmp) / "in").mkdir()
        inp = wl.setup(seed, Path(tmp) / "in", lf)
        out = Path(tmp) / "out"
        out.mkdir()
        for argv in wl.calls(inp, out):
            with contextlib.redirect_stdout(sys.stderr):
                rc = lf.cli.main(argv)
            if rc != 0:
                print(f"{workload} seed {seed}: {' '.join(argv[:2])} exited {rc}", file=sys.stderr)
                return rc
        for path in wl.outputs(out):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{workload} {seed} {path.relative_to(out)} {sha}", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="repository checkout with bench/run.py and src/")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--round", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.round:  # the fresh process of one (workload, seed)
        return digest_round(args.round[0], int(args.round[1]))
    root = args.checkout.resolve()
    if not (root / "bench" / "run.py").is_file():
        ap.error(f"{root} has no bench/run.py")
    for workload in WORKLOADS:
        for seed in args.seeds:
            rc = subprocess.run([sys.executable, str(Path(__file__).resolve()), str(root),
                                 "--seeds", str(seed), "--round", workload, str(seed)],
                                cwd=root).returncode
            if rc != 0:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
