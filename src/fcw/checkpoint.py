"""Self-describing parameter checkpoint files.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(model configuration plus ordered parameter paths and shapes), then the raw
row-major float64 parameter data, little-endian, in header order.
"""
from __future__ import annotations

import hashlib
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


def checkpoint_sha256(path: str | Path) -> str:
    """Hex sha256 of the checkpoint file; binds a calibration to its model."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _param_entries(path, params) -> list[tuple[str, int, int]]:
    """(name, rows, cols) of each header parameter entry, validated."""
    if not isinstance(params, list):
        raise ValueError(f"{path}: checkpoint params must be a list, got {type(params).__name__}")
    entries: list[tuple[str, int, int]] = []
    seen: set[str] = set()
    for i, entry in enumerate(params):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str) or "shape" not in entry:
            raise ValueError(f"{path}: parameter entry {i} needs a string path and a shape, got {entry!r}")
        name, shape = entry["path"], entry["shape"]
        if not (
            isinstance(shape, list)
            and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            raise ValueError(f"{path}: parameter {name!r} shape must be two non-negative integers, got {shape!r}")
        if name in seen:
            raise ValueError(f"{path}: duplicate parameter {name!r}")
        seen.add(name)
        entries.append((name, *shape))
    return entries


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
    for name, r, c in _param_entries(path, header["params"]):
        raw = blob[pos : pos + r * c * 8]
        if len(raw) != r * c * 8:
            raise ValueError(f"{path}: truncated parameter data for {name}")
        store.add(name, np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(r, c))
        pos += len(raw)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes after the parameter data")
    return store, header["config"]
