"""The artifact container: bit-exact round trips, aligned read-only views,
the version 1 and 2 readers, and atomic writes."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from artdesc.errors import FormatError
from artdesc.numcore import load_checkpoint, save_checkpoint
from artdesc.numcore.checkpoint import (
    VERSION,
    ByteReader,
    atomic_write,
    digest_of,
    load_container,
    save_container,
)


def save_checkpoint_v1(path, arrays, config_digest, meta=None):
    """The version 1 writer, as it was before version 2 replaced it: kept to
    write the old files that the reader must still load."""
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    digest_bytes = config_digest.encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"ARTDCKP1")
        f.write(struct.pack("<I", 1))
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


def save_container_v2(path, meta, arrays):
    """The version 2 writer, as it was before version 3 aligned the array
    data: kept to write the old files that the reader must still load."""
    def string(text):
        blob = text.encode("utf-8")
        return struct.pack("<I", len(blob)) + blob

    body = [b"ARTDCKP1", struct.pack("<I", 2),
            string(json.dumps(meta, sort_keys=True, separators=(",", ":"))),
            struct.pack("<I", len(arrays))]
    for name, array in arrays.items():
        code = array.dtype.str[1:]
        body += [string(name) + string(code),
                 struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape),
                 np.ascontiguousarray(array, "<" + code).tobytes()]
    blob = b"".join(body)
    with open(path, "wb") as f:
        f.write(blob + hashlib.sha256(blob).digest())


def _mixed_arrays(rng):
    """Arrays of every dtype, with names of odd lengths, so that unpadded
    data would land at every byte offset."""
    return {"a": rng.normal(size=(3, 5)), "bb": rng.integers(0, 9, size=7).astype("<u4"),
            "ccc": rng.integers(-5, 5, size=(2, 3)).astype("<i8"), "dddd": rng.normal(size=1),
            "e": rng.integers(0, 9, size=3).astype("<u8")}


def test_load_hands_out_aligned_read_only_views(tmp_path):
    arrays = _mixed_arrays(np.random.default_rng(16))
    path = tmp_path / "x.bin"
    save_container(path, {"kind": "test"}, arrays)
    meta, loaded, version = load_container(path, "test")
    assert version == VERSION and meta == {"kind": "test"}
    buffers = set()
    for name, array in arrays.items():
        got = loaded[name]
        assert got.dtype == array.dtype and np.array_equal(got, array)
        assert got.flags.aligned and not got.flags.writeable and not got.flags.owndata
        buffers.add(id(_owner(got)))
    assert len(buffers) == 1  # views of the one buffer the file was read into


def _owner(array):
    """The object that owns an array's memory."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return _owner(array.obj) if isinstance(array, memoryview) else array


def test_version_2_file_loads_the_same(tmp_path):
    arrays = _mixed_arrays(np.random.default_rng(17))
    old, new = tmp_path / "v2.bin", tmp_path / "v3.bin"
    save_container_v2(old, {"kind": "test"}, arrays)
    save_container(new, {"kind": "test"}, arrays)
    meta_old, got_old, version_old = load_container(old, "test")
    meta_new, got_new, version_new = load_container(new, "test")
    assert (version_old, version_new) == (2, VERSION) and meta_old == meta_new
    for name, array in arrays.items():
        assert np.array_equal(got_old[name], array) and got_old[name].dtype == array.dtype
        assert got_old[name].flags.aligned and not got_old[name].flags.writeable


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    arrays = {
        "a.w": rng.normal(size=(3, 4)),
        "a.b": rng.normal(size=7),
        "scalarish": rng.normal(size=(1,)),
    }
    digest = digest_of({"hidden": 8})
    meta = {"kind": "decoder", "variant": "baseline", "seed": 3}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, digest, meta)
    loaded, got_digest, got_meta, version = load_checkpoint(path)
    assert version == VERSION == 3
    assert got_digest == digest
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arrays[name].shape
        assert np.array_equal(loaded[name], arrays[name])  # bit-exact via f64


def test_version_1_file_loads_the_same(tmp_path):
    rng = np.random.default_rng(15)
    arrays = {"emb": rng.normal(size=(4, 3)), "b": rng.normal(size=5), "s": np.float64(2.5)}
    meta = {"kind": "filler", "config": {"hidden_size": 4}, "seed": 1}
    old, new = tmp_path / "v1.ckpt", tmp_path / "new.ckpt"
    save_checkpoint_v1(old, arrays, "d" * 64, meta)
    save_checkpoint(new, arrays, "d" * 64, meta)
    got_old, got_new = load_checkpoint(old), load_checkpoint(new)
    assert got_old[3] == 1 and got_new[3] == VERSION
    assert got_old[1:3] == got_new[1:3] == ("d" * 64, meta)
    for name, value in arrays.items():
        assert got_old[0][name].shape == np.shape(value)
        assert np.array_equal(got_old[0][name], got_new[0][name])
        assert np.array_equal(got_old[0][name], value)


def test_double_round_trip_identical_bytes(tmp_path):
    rng = np.random.default_rng(14)
    arrays = {"w": rng.normal(size=(5, 2))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, "d" * 64, {"x": 1})
    loaded, digest, meta, _ = load_checkpoint(p1)
    save_checkpoint(p2, loaded, digest, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        load_checkpoint(path)
    assert exc.value.offset == 0


def test_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2))}, "ab", {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(FormatError) as exc:
        load_checkpoint(path)
    assert exc.value.offset > 0


def test_digest_is_canonical():
    assert digest_of({"b": 1, "a": 2}) == digest_of({"a": 2, "b": 1})
    assert digest_of({"a": 1}) != digest_of({"a": 2})


def _strings(*blobs: bytes) -> bytes:
    return b"".join(struct.pack("<I", len(blob)) + blob for blob in blobs)


def test_strings_read_in_order():
    r = ByteReader(_strings(b"ab", "été".encode("utf-8"), b"", b"xyz"), "index")
    assert [r.string("term") for _ in range(3)] == ["ab", "été", ""]
    assert r.string("doc id") == "xyz"
    r.end("index payload")


@pytest.mark.parametrize("raw, offset, message", [
    (_strings(b"ab") + b"\x05\x00", 6, "truncated index while reading term"),
    (_strings(b"ab") + struct.pack("<I", 5) + b"abc", 10, "truncated index while reading term"),
    (_strings(b"ab", b"a\xffc"), 11, "term is not valid UTF-8"),
], ids=["truncated-length", "truncated-bytes", "bad-utf8"])
def test_strings_errors_report_offsets(raw, offset, message):
    """Truncation is reported where the unreadable length or string starts,
    bad UTF-8 at its first bad byte."""
    r = ByteReader(raw, "index")
    assert r.string("term") == "ab"
    with pytest.raises(FormatError, match=message) as exc:
        r.string("term")
    assert exc.value.offset == offset


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(3)}, "ab", {})
    before = path.read_bytes()

    def chunks():
        yield b"first chunk"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(path, chunks())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_new_file_gets_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "wb"):
        pass
    atomic_write(tmp_path / "atomic", [b"x"])
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode
    os.chmod(tmp_path / "atomic", 0o600)
    atomic_write(tmp_path / "atomic", [b"y"])
    assert os.stat(tmp_path / "atomic").st_mode & 0o777 == 0o600
