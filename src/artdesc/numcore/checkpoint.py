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
_U32 = struct.Struct("<I")


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


class ByteReader:
    """Reads a little-endian binary file front to back. Running past the end
    of the buffer or decoding invalid UTF-8 raises FormatError with the byte
    offset; ``kind`` names the file in the message."""

    def __init__(self, raw: bytes, kind: str):
        self.raw = raw
        self.kind = kind
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError(f"truncated {self.kind} while reading {what}", self.pos)
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        """A u32 byte length followed by that many UTF-8 bytes."""
        return self.strings(1, what)[0]

    def strings(self, count: int, what: str) -> list[str]:
        """``count`` strings in a row, each as ``string`` reads it."""
        raw, pos, size, out = self.raw, self.pos, len(self.raw), []
        for _ in range(count):
            if pos + 4 > size:
                raise FormatError(f"truncated {self.kind} while reading {what}", pos)
            start = pos + 4
            pos = start + _U32.unpack_from(raw, pos)[0]
            if pos > size:
                raise FormatError(f"truncated {self.kind} while reading {what}", start)
            try:
                out.append(raw[start:pos].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"{what} is not valid UTF-8", start + exc.start) from None
        self.pos = pos
        return out

    def end(self, what: str) -> None:
        if self.pos != len(self.raw):
            raise FormatError(f"trailing bytes after {what}", self.pos)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str, dict, int]:
    """Returns (arrays, config_digest, meta, version)."""
    r = ByteReader(Path(path).read_bytes(), "checkpoint")
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError("bad checkpoint magic", 0)
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", r.pos - 4)
    digest = r.string("config digest")
    meta_start = r.pos + 4
    try:
        meta = json.loads(r.string("metadata"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"metadata is not valid JSON ({exc.msg})", meta_start) from None
    if not isinstance(meta, dict):
        raise FormatError("metadata is not a JSON object", meta_start)
    (n_params,) = r.unpack("<I", "parameter count")

    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        name = r.string("parameter name")
        (ndim,) = r.unpack("<B", f"ndim of '{name}'")
        shape = r.unpack(f"<{ndim}I", f"dims of '{name}'")
        count = int(np.prod(shape)) if shape else 1
        blob = r.take(8 * count, f"data of '{name}'")
        arrays[name] = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(shape)
    r.end("last parameter")
    return arrays, digest, meta, version
