"""The one binary container for every binary artifact (decoder and filler
checkpoints, the knowledge index, feature grids), and the atomic write
behind every file the package writes.

The layout (integers little-endian; a string is a u32 byte length followed
by that many UTF-8 bytes):

    magic        8 bytes  b"ARTDCKP1"
    version      u32      3
    metadata     string   a JSON object: "kind" and the writer's own keys
    n_arrays     u32
    then per array, in the writer's order:
      name       string
      dtype      string   one of f8, f4, i8, u8, u4, u1
      ndim       u8
      dims       ndim x u32
      pad        u8       0-7, then that many zero bytes, so that the data
                          starts at a multiple of 8 bytes from the file start
      data       prod(dims) values, little-endian, C order
    sha256       32 bytes, the digest of every byte before it

The reader checks the trailer, the artifact's content address, before it
parses anything after the version; its errors name the file. It reads
version 3 only: older files must be written again. Round trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import uuid
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from artdesc.errors import FormatError

MAGIC = b"ARTDCKP1"
VERSION = 3
DTYPES = ("f8", "f4", "i8", "u8", "u4", "u1")
ALIGN = 8  # array data starts at a multiple of this many bytes
_TRAILER = 32


def digest_of(obj) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write(path: str | Path, chunks: Iterable) -> None:
    """Writes the bytes-like ``chunks`` to a new file next to ``path``,
    fsyncs it and renames it over ``path``. If anything fails on the way,
    the new file is removed and ``path`` keeps its old contents. The file
    gets the mode of the one it replaces, or what a plain ``open()`` would
    give a new file (0o666 less the umask)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        if path.exists():
            os.chmod(tmp, path.stat().st_mode & 0o7777)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _string(text: str) -> bytes:
    blob = text.encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def save_container(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Writes ``meta`` (a JSON object) and ``arrays`` (each of a dtype in
    DTYPES), hashing the chunks as they are written."""
    chunks = [MAGIC, struct.pack("<I", VERSION),
              _string(json.dumps(meta, sort_keys=True, separators=(",", ":"))),
              struct.pack("<I", len(arrays))]
    offset = sum(len(chunk) for chunk in chunks)
    for name, array in arrays.items():
        code = array.dtype.str[1:]
        if code not in DTYPES:
            raise ValueError(f"array '{name}' has unsupported dtype {array.dtype}")
        head = _string(name) + _string(code) + struct.pack(f"<B{array.ndim}I", array.ndim,
                                                           *array.shape)
        pad = -(offset + len(head) + 1) % ALIGN
        data = np.ascontiguousarray(array, "<" + code).reshape(-1).view(np.uint8)
        chunks += [head + bytes([pad]) + bytes(pad), data]
        offset += len(head) + 1 + pad + data.size

    def sealed():
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(chunk)
            yield chunk
        yield digest.digest()

    atomic_write(path, sealed())


class ByteReader:
    """Reads a little-endian binary buffer front to back. Running past the
    end or decoding invalid UTF-8 raises FormatError with the byte offset;
    ``kind`` names the file in the message."""

    def __init__(self, raw: bytes | memoryview, kind: str):
        self.raw = raw
        self.kind = kind
        self.pos = 0

    def take(self, n: int, what: str):
        if self.pos + n > len(self.raw):
            raise FormatError(f"truncated {self.kind} while reading {what}", self.pos)
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        """A u32 byte length followed by that many UTF-8 bytes."""
        (size,) = self.unpack("<I", what)
        start = self.pos
        try:
            return str(self.take(size, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid UTF-8", start + exc.start) from None

    def end(self, what: str) -> None:
        if self.pos != len(self.raw):
            raise FormatError(f"trailing bytes after {what}", self.pos)


def load_container(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray], str]:
    """Returns (meta, arrays, the trailer in hex); ``path`` and ``kind`` name
    the file in errors. The file is read once into one buffer and hashed
    there, and each array is an aligned, read-only view of its bytes there."""
    with open(path, "rb") as f:
        buffer = np.empty(os.fstat(f.fileno()).st_size, np.uint8)
        f.readinto(buffer)
    try:
        return _parse_container(memoryview(buffer), kind)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc.message}", exc.offset) from None


def _parse_container(raw: memoryview, kind: str) -> tuple[dict, dict[str, np.ndarray], str]:
    r = ByteReader(raw, kind)
    if r.raw[:4] == b"TFIX":  # the magic of the first index format, with its own layout
        raise FormatError("this index has the version 1 layout, which is no longer "
                          "read; rebuild it with `artdesc index`", 0)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError(f"bad {kind} magic", 0)
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise FormatError(f"{kind} has container version {version}, which is not read "
                          f"(only version {VERSION} is); retrain or rebuild it", r.pos - 4)
    body = len(r.raw) - _TRAILER
    sha256 = hashlib.sha256(r.raw[:body]).digest()
    if body < r.pos or sha256 != r.raw[body:]:
        raise FormatError(f"{kind} checksum mismatch: the file is corrupt", max(body, 0))
    r.raw = r.raw[:body]
    start = r.pos + 4
    try:
        meta = json.loads(r.string("metadata"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"metadata is not valid JSON ({exc.msg})", start) from None
    if not isinstance(meta, dict):
        raise FormatError("metadata is not a JSON object", start)
    (count,) = r.unpack("<I", "array count")
    arrays = {}
    for _ in range(count):
        name = r.string("array name")
        code = r.string(f"dtype of '{name}'")
        if code not in DTYPES:
            raise FormatError(f"array '{name}' has unknown dtype '{code}'", r.pos)
        (ndim,) = r.unpack("<B", f"ndim of '{name}'")
        shape = r.unpack(f"<{ndim}I", f"dims of '{name}'")
        (pad,) = r.unpack("<B", f"padding of '{name}'")
        if pad >= ALIGN or any(r.take(pad, f"padding of '{name}'")) or r.pos % ALIGN:
            raise FormatError(f"bad padding before the data of '{name}'", r.pos - 1)
        dtype = np.dtype("<" + code)
        blob = r.take(dtype.itemsize * math.prod(shape), f"data of '{name}'")
        array = np.frombuffer(blob, dtype).reshape(shape)
        array.flags.writeable = False
        arrays[name] = array
    r.end("last array")
    return meta, arrays, sha256.hex()
