"""PYRT named-tensor container.

Layout (all integers little-endian):
    magic "PYRT" | version u16 | entry count u32
    per entry: name length u16 | UTF-8 name | dtype code u8 | ndim u8
               | dims u32 each | raw little-endian payload
Dtype codes: 0 = f32, 1 = f64, 2 = i64. Entry order is preserved, so a
round-trip through save/load reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContainerError

MAGIC = b"PYRT"
VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}
_KIND_TO_CODE = {("f", 4): 0, ("f", 8): 1, ("i", 8): 2}


def serialize_tensors(tensors: dict) -> bytes:
    """Encode an ordered name -> ndarray mapping into container bytes."""
    parts = [MAGIC, struct.pack("<HI", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        code = _KIND_TO_CODE.get((arr.dtype.kind, arr.dtype.itemsize))
        if code is None:
            raise ContainerError(f"entry {name!r}: unsupported dtype {arr.dtype}")
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise ContainerError(f"entry name too long ({len(name_b)} bytes)")
        if arr.ndim > 0xFF:
            raise ContainerError(f"entry {name!r}: too many dimensions ({arr.ndim})")
        if any(d > 0xFFFFFFFF for d in arr.shape):
            raise ContainerError(f"entry {name!r}: dimension exceeds u32")
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<BB", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code]).tobytes())
    return b"".join(parts)


def deserialize_tensors(blob: bytes) -> dict:
    """Decode container bytes into an ordered name -> ndarray mapping."""
    if blob[:4] != MAGIC:
        raise ContainerError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 10:
        raise ContainerError("truncated header")
    version, count = struct.unpack_from("<HI", blob, 4)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    out: dict[str, np.ndarray] = {}
    off = 10
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            code, ndim = struct.unpack_from("<BB", blob, off)
            off += 2
            dims = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
        except (struct.error, UnicodeDecodeError) as exc:
            raise ContainerError(f"truncated or non-UTF-8 entry header at offset {off}") from exc
        dtype = _CODE_TO_DTYPE.get(code)
        if dtype is None:
            raise ContainerError(f"entry {name!r}: unknown dtype code {code}")
        nbytes = math.prod(dims) * dtype.itemsize
        payload = blob[off:off + nbytes]
        if len(payload) != nbytes:
            raise ContainerError(f"entry {name!r}: truncated payload")
        off += nbytes
        if name in out:
            raise ContainerError(f"duplicate entry name {name!r}")
        try:
            out[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:  # dims numpy cannot represent, e.g. (0, 2**32-1, 2**32-1)
            raise ContainerError(f"entry {name!r}: bad shape {dims}: {exc}") from exc
    if off != len(blob):
        raise ContainerError(f"{len(blob) - off} trailing bytes after last entry")
    return out


def save_tensors(path, tensors: dict) -> None:
    Path(path).write_bytes(serialize_tensors(tensors))


def load_tensors(path) -> dict:
    return deserialize_tensors(Path(path).read_bytes())
