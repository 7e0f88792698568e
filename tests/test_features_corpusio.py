"""Feature grid files and corpus JSONL round trips."""

import hashlib
import re

import numpy as np
import pytest

from artdesc.corpus import (
    FeatureGrid,
    load_corpus,
    load_feature_grid,
    record_from_dict,
    record_to_dict,
    save_corpus,
    save_feature_grid,
)
from artdesc.corpus.types import TopicLabel
from artdesc.errors import DataError, FormatError
from artdesc.numcore.checkpoint import load_container, save_container


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        values = rng.normal(size=(4, 8)).astype(np.float32).astype(np.float64)
        path = tmp_path / "p1.fgrd"
        save_feature_grid(path, values)
        grid = load_feature_grid(path)
        assert grid.n_locations == 4 and grid.feature_dim == 8
        assert np.array_equal(grid.values, values)

    def test_paper_scale_accepted(self, tmp_path):
        path = tmp_path / "big.fgrd"
        save_feature_grid(path, np.zeros((196, 2048)))
        grid = load_feature_grid(path)
        assert grid.n_locations == 14 * 14
        assert grid.feature_dim == 2048

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.fgrd"
        save_feature_grid(path, np.ones((3, 3)))
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="bad feature grid magic") as exc:
            load_feature_grid(path)
        assert exc.value.offset == 0 and str(path) in str(exc.value)

    def test_size_mismatch_reports_offset(self, tmp_path):
        path = tmp_path / "short.fgrd"
        save_feature_grid(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="checksum mismatch") as exc:
            load_feature_grid(path)
        assert exc.value.offset > 0 and str(path) in str(exc.value)

    def test_old_layout_is_refused(self, tmp_path):
        """The layout before grids were containers: magic, u32 L, u32 D,
        then L*D float32 values."""
        path = tmp_path / "old.fgrd"
        path.write_bytes(b"FGRD" + np.array([2, 3], "<u4").tobytes()
                         + np.ones(6, "<f4").tobytes())
        with pytest.raises(FormatError, match="bad feature grid magic") as exc:
            load_feature_grid(path)
        assert exc.value.offset == 0 and str(path) in str(exc.value)

    def test_stored_as_float32_container(self, tmp_path):
        """The trailer is the grid's content address, and the one array is
        float32."""
        path = tmp_path / "p1.fgrd"
        save_feature_grid(path, np.arange(6.0).reshape(2, 3))
        meta, arrays, sha256 = load_container(path, "feature grid")
        assert meta == {"kind": "feature-grid"} and list(arrays) == ["values"]
        assert arrays["values"].dtype == np.dtype("<f4")
        assert sha256 == hashlib.sha256(path.read_bytes()[:-32]).hexdigest()

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_value_beyond_float32_is_refused_before_writing(self, tmp_path, value):
        """A finite value that float32 cannot hold would be stored as inf,
        which load_feature_grid refuses, so nothing is written."""
        path = tmp_path / "p1.fgrd"
        with pytest.raises(DataError, match="beyond the float32 range") as exc:
            save_feature_grid(path, np.array([[0.5, value]]))
        assert str(path) in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_largest_float32_value_round_trips(self, tmp_path):
        path = tmp_path / "p1.fgrd"
        big = float(np.finfo(np.float32).max)
        save_feature_grid(path, np.array([[big, -big]]))
        assert load_feature_grid(path).values.tolist() == [[big, -big]]

    @pytest.mark.parametrize("meta, arrays, message", [
        ({"kind": "checkpoint"},{"values": np.ones((2, 3), "<f4")}, "is not a feature-grid"),
        ({"kind": "feature-grid"}, {"values": np.ones((2, 3))}, "is not a feature-grid"),
        ({"kind": "feature-grid"}, {"other": np.ones((2, 3), "<f4")}, "is not a feature-grid"),
        ({"kind": "feature-grid"}, {"values": np.ones(3, "<f4")}, "must be (L, D)"),
        ({"kind": "feature-grid"}, {"values": np.full((2, 3), np.inf, "<f4")}, "non-finite"),
    ], ids=["kind", "dtype", "name", "rank", "non-finite"])
    def test_other_container_is_refused(self, tmp_path, meta, arrays, message):
        path = tmp_path / "odd.fgrd"
        save_container(path, meta, arrays)
        with pytest.raises(DataError, match=re.escape(message)) as exc:
            load_feature_grid(path)
        assert str(path) in str(exc.value)


class TestGridLayout:
    """A grid's rows are an odd number of 64-byte cache lines apart, so no
    row pitch is a multiple of 4 KB; the pitch never shows in its values or
    in its file."""

    @pytest.mark.parametrize("width, pitch_lines", [
        (1, 1), (8, 1), (9, 3), (16, 3), (17, 3), (24, 3), (25, 5), (2048, 257), (2049, 257),
    ])
    def test_row_pitch(self, width, pitch_lines):
        values = np.arange(3.0 * width).reshape(3, width)
        grid = FeatureGrid(values)
        assert grid.values.shape == (3, width) and grid.values.dtype == np.float64
        assert grid.values.strides == (64 * pitch_lines, 8)
        assert np.array_equal(grid.values, values)

    def test_reference_grid_row_stride_is_not_a_multiple_of_a_page(self, tmp_path):
        path = tmp_path / "p.fgrd"
        save_feature_grid(path, np.ones((196, 2048)))
        for grid in (FeatureGrid(np.ones((196, 2048))), FeatureGrid(np.ones((196, 2048), "f4")),
                     load_feature_grid(path)):
            assert grid.values.strides[0] % 4096 != 0

    def test_round_trip_keeps_bits_and_file_bytes(self, tmp_path):
        """A saved and loaded grid holds the float32 values bit for bit, and
        saving it again writes the same bytes: the bytes that the contiguous
        layout before padded rows wrote for these values."""
        values = ((np.arange(196 * 2048) % 997) / 7.0 - 71.0).reshape(196, 2048)
        first, second = tmp_path / "a.fgrd", tmp_path / "b.fgrd"
        save_feature_grid(first, values)
        grid = load_feature_grid(first)
        want = values.astype(np.float32).astype(np.float64)
        assert np.ascontiguousarray(grid.values).tobytes() == want.tobytes()
        save_feature_grid(second, grid.values)
        assert second.read_bytes() == first.read_bytes()
        assert hashlib.sha256(first.read_bytes()).hexdigest() == (
            "7d30234b0fe3b2e37e603bf15f2d5a4ccbcad0f2d0b4684a942bc18927e6c9e1")


RECORD = {
    "id": "p1",
    "sentences": [
        {
            "text": "Painted by Vermeer in 1665.",
            "topic": "context",
            "entities": [
                {"value": "Vermeer", "type": "person"},
                {"value": "1665", "type": "date"},
            ],
        },
        {"text": "A quiet interior scene.", "topic": "content", "entities": []},
        {"text": "Loose brushwork throughout.", "topic": None, "entities": []},
    ],
    "attributes": {"artist": "vermeer", "type": "genre", "timeframe": "1651-1700", "school": "dutch"},
    "objects": ["window", "table"],
    "reference": "Painted by Vermeer in 1665. A quiet interior scene.",
}


class TestCorpusIO:
    def test_record_parsing(self):
        rec = record_from_dict(RECORD)
        assert rec.id == "p1"
        assert sum(s.masked.slot_count() for s in rec.sentences) == 2
        assert sum(len(s.values) for s in rec.sentences) == 2
        assert rec.sentences[0].values == ["Vermeer", "1665"]
        assert rec.sentences[0].masked.topic == TopicLabel.CONTEXT
        assert rec.sentences[1].masked.topic == TopicLabel.CONTENT
        # unlabeled sentence kept with context topic, flagged
        assert rec.sentences[2].topic_labeled is False
        assert rec.sentences[2].masked.topic == TopicLabel.CONTEXT

    def test_round_trip(self, tmp_path):
        rec = record_from_dict(RECORD)
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, [rec])
        loaded = load_corpus(path)
        assert len(loaded) == 1
        assert record_to_dict(loaded[0]) == record_to_dict(rec)

    def test_missing_entity_value_rejected(self):
        bad = {
            "id": "x",
            "sentences": [
                {"text": "no names here", "topic": "content",
                 "entities": [{"value": "Rubens", "type": "person"}]}
            ],
        }
        with pytest.raises(DataError, match="Rubens"):
            record_from_dict(bad)

    def test_unknown_attribute_key_rejected(self):
        bad = dict(RECORD, id="y", attributes={"artist": "x", "era": "old"})
        with pytest.raises(DataError, match="era"):
            record_from_dict(bad)

    def test_duplicate_ids_rejected(self, tmp_path):
        rec = record_from_dict(RECORD)
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, [rec])
        blob = path.read_text()
        path.write_text(blob + blob)
        with pytest.raises(DataError, match="duplicate"):
            load_corpus(path)

    def test_features_loaded_by_id(self, tmp_path):
        fdir = tmp_path / "features"
        fdir.mkdir()
        save_feature_grid(fdir / "p1.fgrd", np.ones((2, 3)))
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, [record_from_dict(RECORD)])
        loaded = load_corpus(path, features_dir=fdir)
        assert loaded[0].features is not None
        assert loaded[0].features.feature_dim == 3

    def test_slot_value_bookkeeping(self):
        rec = record_from_dict(RECORD)
        assert all(s.masked.slot_count() == len(s.values) for s in rec.sentences)
