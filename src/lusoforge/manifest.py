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
        sibling temp file, renamed over the target."""
        if not self.finished_at:
            self.finished_at = _now()
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(asdict(self), ensure_ascii=False, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
