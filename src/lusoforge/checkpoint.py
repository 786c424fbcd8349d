"""Single-file checkpoint format: JSON header + raw float32 payloads.

Layout:
    bytes 0..8    little-endian uint64, byte length of the header
    header        canonical UTF-8 JSON: format_version, config, meta,
                  tensor directory {name: {shape, offset, size}}
    payload       tensors as little-endian float32, concatenated in sorted
                  name order at the listed offsets

Sorted order plus canonical JSON makes save(load(f)) reproduce f byte for
byte, which the reproducibility contract leans on.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from lusoforge.autodiff import Tensor
from lusoforge.encoder import EncoderConfig
from lusoforge.errors import DataError

FORMAT_VERSION = 1


def save_checkpoint(path: str | Path, config: EncoderConfig,
                    params: dict[str, Tensor], meta: dict | None = None):
    """Write atomically: temp file in the target directory, then rename."""
    names = sorted(params)
    directory: dict[str, dict] = {}
    offset = 0
    blobs: list[bytes] = []
    for name in names:
        data = params[name].data if isinstance(params[name], Tensor) else params[name]
        arr = np.ascontiguousarray(data, dtype="<f4")
        blob = arr.tobytes()
        directory[name] = {"shape": list(arr.shape), "offset": offset, "size": len(blob)}
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "meta": meta or {},
        "tensors": directory,
    }
    header_bytes = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> tuple[EncoderConfig, dict[str, np.ndarray], dict]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < 8:
        raise DataError(f"checkpoint {path} truncated: {len(raw)} bytes")
    (header_len,) = struct.unpack("<Q", raw[:8])
    if 8 + header_len > len(raw):
        raise DataError(f"checkpoint {path} header overruns file")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"checkpoint {path} has a corrupt header: {e}") from e
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {header.get('format_version')!r}")
    try:
        config = EncoderConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint {path} has an invalid config: {e}") from e
    payload = raw[8 + header_len :]
    tensors: dict[str, np.ndarray] = {}
    for name, entry in header["tensors"].items():
        start, size = entry["offset"], entry["size"]
        if start + size > len(payload):
            raise DataError(f"checkpoint {path}: tensor {name!r} overruns payload")
        arr = np.frombuffer(payload[start : start + size], dtype="<f4").reshape(entry["shape"])
        tensors[name] = arr.copy()  # writable, owned
    return config, tensors, header.get("meta", {})


def check_inputs_fit(config: EncoderConfig, path: str | Path, vocab_size: int, seq_len: int):
    """Refuse, as a DataError, a tokenizer of another vocabulary size or a
    sequence length above max_seq_len for the model checkpoint `path` holds."""
    if config.vocab_size != vocab_size:
        raise DataError(f"tokenizer has {vocab_size} entries but checkpoint "
                        f"{path} has {config.vocab_size}")
    if seq_len > config.max_seq_len:
        raise DataError(f"seq_len {seq_len} exceeds max_seq_len "
                        f"{config.max_seq_len} of checkpoint {path}")


def params_from_arrays(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Trainable tensors over the arrays themselves, not copies: the arrays
    `load_checkpoint` returns are owned, and `TaskModel` copies what it trains."""
    from collections import OrderedDict

    return OrderedDict((k, Tensor(arrays[k], requires_grad=True)) for k in sorted(arrays))
