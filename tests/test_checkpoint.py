"""Checkpoint container round trips bit-exactly."""

import struct

import numpy as np
import pytest

from artdesc.errors import FormatError
from artdesc.numcore import load_checkpoint, save_checkpoint
from artdesc.numcore.checkpoint import ByteReader, digest_of


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
    assert version == 1
    assert got_digest == digest
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arrays[name].shape
        assert np.array_equal(loaded[name], arrays[name])  # bit-exact via f64


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
    r = ByteReader(_strings(b"ab", "\u00e9t\u00e9".encode("utf-8"), b"") + _strings(b"xyz"), "index")
    assert r.strings(3, "term") == ["ab", "\u00e9t\u00e9", ""]
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
    with pytest.raises(FormatError, match=message) as exc:
        ByteReader(raw, "index").strings(2, "term")
    assert exc.value.offset == offset
