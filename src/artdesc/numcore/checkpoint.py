"""Versioned binary parameter container.

Byte layout (all integers little-endian):

    magic            8 bytes  b"ARTDCKP1"
    version          u32      currently 1
    digest_len       u32      followed by that many UTF-8 bytes (config digest, hex)
    meta_len         u32      followed by that many UTF-8 bytes (JSON metadata)
    n_params         u32
    then per parameter, in sorted-name order:
      name_len       u32      followed by UTF-8 name
      ndim           u8
      dims           ndim x u32
      data           prod(dims) x f64 little-endian

Round trips are bit-exact: save followed by load reproduces every array and
the metadata byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from artdesc.errors import FormatError

MAGIC = b"ARTDCKP1"
VERSION = 1


def digest_of(obj) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    config_digest: str,
    meta: dict | None = None,
) -> None:
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    digest_bytes = config_digest.encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(digest_bytes)))
        f.write(digest_bytes)
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            data = np.asarray(arrays[name], dtype=np.float64)
            name_bytes = name.encode("utf-8")
            f.write(struct.pack("<I", len(name_bytes)))
            f.write(name_bytes)
            f.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<I", dim))
            f.write(data.astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str, dict, int]:
    """Returns (arrays, config_digest, meta, version)."""
    raw = Path(path).read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(f"truncated checkpoint while reading {what}", pos)
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    def text(n: int, what: str) -> str:
        start = pos
        try:
            return take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid UTF-8", start + exc.start) from None

    if take(len(MAGIC), "magic") != MAGIC:
        raise FormatError("bad checkpoint magic", 0)
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", pos - 4)
    (digest_len,) = struct.unpack("<I", take(4, "digest length"))
    digest = text(digest_len, "config digest")
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    meta_start = pos
    try:
        meta = json.loads(text(meta_len, "metadata"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"metadata is not valid JSON ({exc.msg})", meta_start) from None
    if not isinstance(meta, dict):
        raise FormatError("metadata is not a JSON object", meta_start)
    (n_params,) = struct.unpack("<I", take(4, "parameter count"))

    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", take(4, "parameter name length"))
        name = text(name_len, "parameter name")
        (ndim,) = struct.unpack("<B", take(1, f"ndim of '{name}'"))
        shape = tuple(
            struct.unpack("<I", take(4, f"dim of '{name}'"))[0] for _ in range(ndim)
        )
        count = int(np.prod(shape)) if shape else 1
        blob = take(8 * count, f"data of '{name}'")
        arrays[name] = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(shape)
    if pos != len(raw):
        raise FormatError("trailing bytes after last parameter", pos)
    return arrays, digest, meta, version
