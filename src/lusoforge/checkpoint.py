"""Single-file checkpoint format: JSON header + raw float32 payloads.

Layout:
    bytes 0..8    little-endian uint64, byte length of the header
    header        canonical UTF-8 JSON: format_version, config, meta,
                  tensor directory {name: {shape, offset, size}}
    payload       tensors as little-endian float32, concatenated in sorted
                  name order at the listed offsets

Sorted order plus canonical JSON makes save(load(f)) reproduce f byte for
byte, which the reproducibility contract leans on.

A checkpoint holds a config of well-typed fields and the tensors that
`encoder.param_shapes` declares for it and its meta `head_type`.
`load_checkpoint` checks both before it reads any payload: a bad field or
the first missing, extra, misshaped or wrongly sized tensor is one DataError.
A fine-tuned checkpoint may also hold its config's decoder tensors, as older
versions wrote; they are dropped.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from lusoforge.autodiff import Tensor
from lusoforge.encoder import HEAD_WIDTHS, EncoderConfig, param_shapes
from lusoforge.errors import DataError

FORMAT_VERSION = 1


def save_checkpoint(path: str | Path, config: EncoderConfig,
                    params: dict[str, Tensor], meta: dict | None = None):
    """Write atomically: temp file in the target directory, then rename."""
    directory: dict[str, dict] = {}
    offset = 0
    blobs: list[bytes] = []
    for name in sorted(params):
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
        f.writelines([struct.pack("<Q", len(header_bytes)), header_bytes, *blobs])
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> tuple[EncoderConfig, dict[str, np.ndarray], dict]:
    """(config, arrays in `param_shapes` order, meta); any fault is one DataError."""
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
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise DataError(f"checkpoint {path} is not of format version {FORMAT_VERSION}")
    try:
        config = EncoderConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint {path} has an invalid config: {e}") from e
    meta, directory = header.get("meta"), header.get("tensors")
    if not isinstance(meta, dict) or not isinstance(directory, dict):
        raise DataError(f"checkpoint {path} header must hold a meta object and a tensors object")
    head_type = meta.get("head_type")
    if head_type not in (None, *HEAD_WIDTHS):
        raise DataError(f"checkpoint {path} names an unknown head type {head_type!r}")
    schema = param_shapes(config, head_type)
    dropped = param_shapes(config).keys() - schema.keys() if head_type else set()
    payload = raw[8 + header_len :]
    spans = {}
    for name in [*schema, *sorted(directory.keys() - schema.keys() - dropped)]:
        if name not in schema or name not in directory:
            raise DataError(f"checkpoint {path} lacks tensor {name!r}" if name in schema else
                            f"checkpoint {path} holds tensor {name!r}, which its model lacks")
        entry, shape = directory[name], list(schema[name])
        nbytes = 4 * np.prod(shape, dtype=object)  # Python ints, which cannot wrap
        if not (isinstance(entry, dict) and entry.get("shape") == shape
                and entry.get("size") == nbytes and type(entry.get("offset")) is int
                and 0 <= entry["offset"] <= len(payload) - nbytes):
            raise DataError(f"checkpoint {path}: tensor {name!r} has entry {entry}, but its "
                            f"model needs shape {shape}, {nbytes} bytes within {len(payload)}")
        spans[name] = entry["offset"], nbytes
    tensors = {name: np.frombuffer(payload[start : start + nbytes], dtype="<f4")
               .reshape(schema[name]).copy()  # writable, owned
               for name, (start, nbytes) in spans.items()}
    return config, tensors, meta


def check_inputs_fit(config: EncoderConfig, path: str | Path, vocab_size: int, seq_len: int):
    """Refuse, as a DataError, a tokenizer of another vocabulary size or a
    sequence length above max_seq_len for the model checkpoint `path` holds."""
    if config.vocab_size != vocab_size:
        raise DataError(f"tokenizer has {vocab_size} entries but checkpoint "
                        f"{path} has {config.vocab_size}")
    if seq_len > config.max_seq_len:
        raise DataError(f"seq_len {seq_len} exceeds max_seq_len "
                        f"{config.max_seq_len} of checkpoint {path}")


def check_head(path: str | Path, meta: dict, head_type: str | None):
    """Refuse, as a DataError, a checkpoint whose meta head type is not `head_type`."""
    held, needed = (f"a {t} head" if t else "no head" for t in (meta.get("head_type"), head_type))
    if held != needed:
        raise DataError(f"checkpoint {path} holds {held}, but this command needs {needed}")


def params_from_arrays(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Trainable tensors over the arrays themselves, not copies, in their
    order (`param_shapes` order, as `init_params` draws): the arrays
    `load_checkpoint` returns are owned, and `TaskModel` copies what it trains."""
    return {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
