"""The artifact container: bit-exact round trips, aligned read-only views,
the trailer as content address, and atomic writes."""

import hashlib
import os
import struct

import numpy as np
import pytest

from artdesc.errors import FormatError
from artdesc.numcore.checkpoint import (
    ByteReader,
    atomic_write,
    digest_of,
    load_container,
    save_container,
)


def old_container_header(version: int) -> bytes:
    """The head of a container of an older ``version``, as far as the reader
    reads before it refuses one: version 2 files carried a trailer, so that
    one is sealed; version 1 files had none."""
    head = b"ARTDCKP1" + struct.pack("<II", version, 2) + b"{}"
    return head + hashlib.sha256(head).digest() if version == 2 else head


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
    meta, loaded, _ = load_container(path, "test")
    assert meta == {"kind": "test"}
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


def test_load_returns_the_trailer_as_content_address(tmp_path):
    path = tmp_path / "x.bin"
    save_container(path, {"kind": "test"}, _mixed_arrays(np.random.default_rng(18)))
    raw = path.read_bytes()
    sha256 = load_container(path, "test")[2]
    assert sha256 == raw[-32:].hex() == hashlib.sha256(raw[:-32]).hexdigest()


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    arrays = {
        "a.b": rng.normal(size=7),
        "a.w": rng.normal(size=(3, 4)),
        "scalarish": rng.normal(size=(1,)),
    }
    meta = {"kind": "decoder", "variant": "baseline", "seed": 3,
            "config_digest": digest_of({"hidden": 8})}
    path = tmp_path / "model.ckpt"
    save_container(path, meta, arrays)
    got_meta, loaded, _ = load_container(path, "checkpoint")
    assert got_meta == meta
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arrays[name].shape
        assert np.array_equal(loaded[name], arrays[name])  # bit-exact via f64


def test_double_round_trip_identical_bytes(tmp_path):
    rng = np.random.default_rng(14)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_container(p1, {"x": 1}, {"w": rng.normal(size=(5, 2))})
    meta, loaded, _ = load_container(p1, "checkpoint")
    save_container(p2, meta, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        load_container(path, "checkpoint")
    assert exc.value.offset == 0


def test_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "model.ckpt"
    save_container(path, {}, {"w": np.ones((2, 2))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(FormatError) as exc:
        load_container(path, "checkpoint")
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
    save_container(path, {}, {"w": np.ones(3)})
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
