"""Self-describing parameter checkpoint files.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(model configuration plus ordered parameter paths and shapes), then the raw
row-major float64 parameter data, little-endian, in header order.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .optim import ParameterStore

MAGIC = b"FCWCKPT1"


def save_checkpoint(path: str | Path, params: ParameterStore, config: dict) -> None:
    entries = [{"path": k, "shape": list(t.shape)} for k, t in params.items()]
    header = json.dumps({"config": config, "params": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, t in params.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ParameterStore, dict]:
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic {blob[:8]!r})")
    pos = 16 + int.from_bytes(blob[8:16], "little")  # past the header length and the header
    if len(blob) < pos:
        raise ValueError(f"{path}: truncated checkpoint header")
    header = json.loads(blob[16:pos].decode("utf-8"))
    if not isinstance(header, dict) or set(header) != {"config", "params"}:
        raise ValueError(f"{path}: checkpoint header needs exactly the keys config and params")
    store = ParameterStore()
    for entry in header["params"]:
        r, c = entry["shape"]
        raw = blob[pos : pos + r * c * 8]
        if len(raw) != r * c * 8:
            raise ValueError(f"{path}: truncated parameter data for {entry['path']}")
        data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(r, c)
        store.add(entry["path"], data)
        pos += len(raw)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes after the parameter data")
    return store, header["config"]
