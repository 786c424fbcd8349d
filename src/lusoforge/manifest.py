"""Run manifests: what ran, with which config and seed, on which inputs.

The manifest is the audit artifact, not a reproducibility artifact: it
carries timestamps, so byte-identity across reruns is expected of the
primary outputs (vocab, checkpoints, reports) but never of the manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def peak_rss_mb() -> dict[str, float]:
    """Peak resident memory in MB so far of this process (`peak_rss_mb`) and
    of its largest waited-for child, such as a worker (`workers_peak_rss_mb`,
    0 without one)."""
    import resource  # here, so importing the package does no more work

    return {key: resource.getrusage(who).ru_maxrss / 1024.0  # Linux counts KiB
            for key, who in (("peak_rss_mb", resource.RUSAGE_SELF),
                             ("workers_peak_rss_mb", resource.RUSAGE_CHILDREN))}


def openblas_calls(names: tuple[str, ...], *args: int) -> list[int]:
    """Call, with int `args`, the first function of `names` that each OpenBLAS
    this process has loaded exports (numpy's bundled `libscipy_openblas64_*.so`),
    and return each call's result read as a C int, which means nothing for a
    setter: an empty list without an OpenBLAS. `workers` pins threads with it."""
    import ctypes  # here, so importing the package does no more work

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            # the path is the last field of a mapping line
            paths = sorted({line.split(None, 5)[-1].strip() for line in f if "openblas" in line})
    except OSError:
        return []
    results = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded, so this returns the same handle
        except OSError:
            continue
        function = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if function is not None:
            results.append(function(*args))
    return results


@dataclass
class RunManifest:
    command: str
    config: dict = field(default_factory=dict)
    seed: int = 0
    code_version: str = ""
    input_digests: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    started_at: str = field(default_factory=_now)
    finished_at: str = ""

    def add_input(self, path: str | Path):
        self.input_digests[str(path)] = sha256_file(path)

    def add_output(self, path: str | Path):
        self.outputs.append(str(path))

    def write(self, path: str | Path):
        """Stamp `finished_at` unless it is set, then write atomically: to a
        sibling temp file, renamed over the target. The record adds `peak_rss_mb`,
        the library versions and the OpenBLAS thread count (null without one)."""
        import platform

        import numpy
        import scipy

        if not self.finished_at:
            self.finished_at = _now()
        threads = openblas_calls(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"))
        record = {**asdict(self), **peak_rss_mb(), "blas_threads": (threads or [None])[0],
                  "versions": {"python": platform.python_version(),
                               "numpy": numpy.__version__, "scipy": scipy.__version__}}
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(record, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
