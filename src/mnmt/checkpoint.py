"""Binary checkpoint files: named float32 tensors with a trailing checksum.

Layout (all integers little-endian):

    magic   6 bytes  b"MNMT01"
    version u32
    config  u32 byte length + UTF-8 JSON
    count   u32
    tensor  u32 name length + name bytes, u32 rank, u32 dims...,
            row-major float32 data
    check   8 bytes: BLAKE2b-64 of everything before it
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from .numerics import ParamSet

MAGIC = b"MNMT01"
VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, corrupted, or wrong-format checkpoint file."""


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def serialize(tensors: dict[str, np.ndarray], config: dict) -> bytes:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    cfg_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(cfg_bytes)))
    parts.append(cfg_bytes)
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    payload = b"".join(parts)
    return payload + _checksum(payload)


def deserialize(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    if len(blob) < len(MAGIC) + 4 + 8:
        raise CheckpointError("checkpoint truncated")
    payload, check = blob[:-8], blob[-8:]
    if _checksum(payload) != check:
        raise CheckpointError("checkpoint checksum mismatch (file corrupted)")
    if payload[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    off = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(payload):
            raise CheckpointError("checkpoint truncated")
        out = payload[off : off + n]
        off += n
        return out

    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    config = json.loads(take(cfg_len).decode("utf-8"))
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n = int(np.prod(dims)) if rank else 1
        data = np.frombuffer(take(4 * n), dtype="<f4").reshape(dims)
        tensors[name] = data.astype(np.float64)
    if off != len(payload):
        raise CheckpointError("trailing bytes after last tensor")
    return config, tensors


def save_checkpoint(path: str, pset: ParamSet, config: dict) -> None:
    """Write atomically: a temporary file in the same directory replaces ``path``
    only once complete, so an interrupted save leaves the previous file intact."""
    blob = serialize({name: t.data for name, t in pset.params.items()}, config)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return deserialize(blob)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def params_from_arrays(arrays: dict[str, np.ndarray]) -> ParamSet:
    """The arrays packed into one parameter store, in file order."""
    return ParamSet(arrays)
