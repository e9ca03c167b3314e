"""Flat binary model checkpoints bound to the vocabulary they were trained with.

Layout (little-endian):

    magic        4 bytes  b"ICKP"
    version      uint16
    schema_hash  32 bytes sha256 of the normal values + vocabularies (schema_hash)
    meta_len     uint32, then meta_len bytes of UTF-8 JSON (kind, task, dims)
    n_params     uint32
    per parameter, in sorted name order:
        name_len uint16, name bytes
        ndim     uint8, shape int64 each
        data     float64 row-major

Parameters are float64 on disk; models train in float32, and widening
float32 to float64 is exact, so a loaded array equals the trained one.

Loading rejects files whose schema hash differs from the active one, so a
model can never silently run against a different vocabulary, and raises
``SchemaError`` for a file that ends before its layout does, has bytes after
its last parameter, or holds meta that is not UTF-8 JSON or a parameter name
that is not UTF-8.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from ..schema import CATEGORICAL_VARIABLES, NUMERICAL_VARIABLES

MAGIC = b"ICKP"
VERSION = 1


def schema_hash(normals: Sequence[float], vocabs: Mapping[str, Sequence[str]]) -> bytes:
    """sha256 over each variable's name and kind, then its normal value or its vocabulary."""
    digest = hashlib.sha256()
    for name, normal in zip(NUMERICAL_VARIABLES, normals, strict=True):
        digest.update(f"{name}numerical{float(normal)!r}".encode("utf-8"))
    for name in CATEGORICAL_VARIABLES:
        digest.update(f"{name}categorical".encode("utf-8"))
        for v in vocabs[name]:
            digest.update(b"\x00" + v.encode("utf-8"))
    return digest.digest()


def save_checkpoint(path, params: Mapping[str, np.ndarray], schema_digest: bytes, meta: dict) -> None:
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(schema_digest)
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<q", dim))
            fh.write(arr.tobytes())


def _read(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise SchemaError(f"{path}: truncated checkpoint")
    return data


def load_checkpoint(path, expected_schema_digest: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if _read(fh, 4, path) != MAGIC:
            raise SchemaError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<H", _read(fh, 2, path))
        if version != VERSION:
            raise SchemaError(f"{path}: unsupported checkpoint version {version}")
        digest = _read(fh, 32, path)
        if digest != expected_schema_digest:
            raise SchemaError(f"{path}: checkpoint schema hash does not match the active vocabulary")
        (meta_len,) = struct.unpack("<I", _read(fh, 4, path))
        meta_bytes = _read(fh, meta_len, path)
        try:
            meta = json.loads(meta_bytes.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both
            raise SchemaError(f"{path}: corrupt checkpoint meta ({exc})") from exc
        (n_params,) = struct.unpack("<I", _read(fh, 4, path))
        params: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", _read(fh, 2, path))
            try:
                name = _read(fh, name_len, path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: corrupt parameter name ({exc})") from exc
            (ndim,) = struct.unpack("<B", _read(fh, 1, path))
            shape = struct.unpack(f"<{ndim}q", _read(fh, 8 * ndim, path))
            count = int(np.prod(shape)) if ndim else 1
            params[name] = np.frombuffer(_read(fh, 8 * count, path), dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise SchemaError(f"{path}: bytes after the last parameter")
    return meta, params
