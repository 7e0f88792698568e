"""Corpus ingestion: one JSON record per line.

Record schema:
    {"id": str,
     "sentences": [{"text": str, "topic": "content"|"form"|"context"|null,
                    "entities": [{"value": str, "type": str}]}],
     "attributes": {"artist": str, "type": str, "timeframe": str, "school": str},
     "objects": [str],
     "reference": str}

Feature grids live in separate binary files named <id>.fgrd under a features
directory; ``read_record_grid`` reads one onto its record.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

from artdesc.corpus.features import load_feature_grid
from artdesc.corpus.masking import mask_sentence
from artdesc.corpus.types import (
    EntityType,
    PaintingRecord,
    SentenceEntry,
    TopicLabel,
)
from artdesc.errors import DataError
from artdesc.numcore.checkpoint import atomic_write


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{where}: missing key '{key}'")
    return obj[key]


def _spans_for_values(text: str, entities: list[dict],
                      where: str) -> list[tuple[tuple[int, int], EntityType]]:
    """Locate each entity value left-to-right (case-insensitive, first match
    at or after the previous entity's end)."""
    spans = []
    lowered = text.lower()
    cursor = 0
    for j, ent in enumerate(entities):
        value = _field(ent, "value", f"{where} entity {j}")
        etype = EntityType.from_name(_field(ent, "type", f"{where} entity {j}"))
        start = lowered.find(value.lower(), cursor)
        if start < 0:
            raise DataError(f"entity value '{value}' not found in sentence: {text!r}")
        spans.append(((start, start + len(value)), etype))
        cursor = start + len(value)
    return spans


def check_metadata(obj: dict, where: str, attribute_types: tuple[type, ...] = (str,)) -> dict:
    """``obj`` once its "attributes" (if any) map each key to a string, or to
    one of ``attribute_types``, and its "objects" (if any) list strings.
    Anything else raises DataError naming ``where`` and the key."""
    attributes = obj.get("attributes", {})
    objects = obj.get("objects", [])
    if not isinstance(attributes, dict) or not isinstance(objects, list):
        raise DataError(f"{where}: 'attributes' must be an object and 'objects' a list")
    for key, value in attributes.items():
        if not isinstance(value, attribute_types):
            raise DataError(f"{where}: attribute '{key}' must be a string, "
                            f"got {type(value).__name__}")
    for i, value in enumerate(objects):
        if not isinstance(value, str):
            raise DataError(f"{where}: objects[{i}] must be a string, got {type(value).__name__}")
    return obj


def record_from_dict(obj: dict) -> PaintingRecord:
    # a null attribute is a missing one (PaintingRecord stores it as "")
    check_metadata(obj, f"painting '{obj.get('id')}'", (str, type(None)))
    sentences = []
    for i, sent in enumerate(obj.get("sentences", [])):
        where = f"painting '{obj.get('id')}' sentence {i}"
        text = _field(sent, "text", where)
        topic_name = sent.get("topic")
        topic_labeled = topic_name is not None
        topic = TopicLabel.from_name(topic_name) if topic_labeled else TopicLabel.CONTEXT
        spans = _spans_for_values(text, sent.get("entities", []), where)
        masked, values = mask_sentence(text, spans, topic)
        sentences.append(SentenceEntry(text, masked, values, topic_labeled))
    return PaintingRecord(
        id=obj["id"],
        sentences=sentences,
        attributes=obj.get("attributes", {}),
        objects=list(obj.get("objects", [])),
        reference=obj.get("reference", ""),
    )


def feature_path(features_dir: str | Path, painting_id: str) -> Path:
    return Path(features_dir) / f"{painting_id}.fgrd"


def read_record_grid(record: PaintingRecord, features_dir: str | Path) -> None:
    """Reads the record's grid from ``features_dir`` onto ``record.features``.
    A missing file raises DataError naming it, a corrupt one FormatError."""
    fpath = feature_path(features_dir, record.id)
    try:
        record.features = load_feature_grid(fpath)
    except FileNotFoundError:
        raise DataError(f"missing feature file for painting '{record.id}': {fpath}") from None


def record_to_dict(record: PaintingRecord) -> dict:
    sentences = []
    for entry in record.sentences:
        types = entry.masked.slot_types()
        sentences.append(
            {
                "text": entry.raw,
                "topic": entry.masked.topic.name.lower() if entry.topic_labeled else None,
                "entities": [
                    {"value": value, "type": etype.name.lower()}
                    for value, etype in zip(entry.values, types)
                ],
            }
        )
    return {
        "id": record.id,
        "sentences": sentences,
        "attributes": dict(record.attributes),
        "objects": list(record.objects),
        "reference": record.reference,
    }


def check_object(obj, where: str, required: tuple[str, ...], types: dict | None = None) -> dict:
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise DataError(f"{where}: missing keys {missing}")
    for key, expected in (types or {}).items():
        expected = expected if isinstance(expected, tuple) else (expected,)
        value = obj.get(key)
        # a JSON true is not an int, although Python's bool is one
        if key in obj and (not isinstance(value, expected)
                           or isinstance(value, bool) and bool not in expected):
            names = ["null" if t is type(None) else t.__name__ for t in expected]
            raise DataError(f"{where}: '{key}' must be {' or '.join(names)}, "
                            f"got {type(value).__name__}")
    return obj


def read_text(path: str | Path) -> str:
    """A UTF-8 text file; undecodable bytes raise DataError naming ``path``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def read_jsonl(path: str | Path, required: tuple[str, ...] = (),
               types: dict | None = None) -> Iterator[tuple[int, dict]]:
    """Yields (line number, object). Undecodable text, invalid JSON, a line
    that is not an object, an object without a required key, or a key in
    ``types`` whose value has another type raises DataError naming
    ``path:lineno``."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        yield lineno, check_object(obj, f"{path}:{lineno}", required, types)


def read_json(path: str | Path, many: bool = False, required: tuple[str, ...] = (),
              types: dict | None = None) -> dict | list[dict]:
    """One JSON object from a file, or with ``many`` a JSON list of objects.
    Each object must hold the ``required`` keys, and a key in ``types`` that
    it holds must be an instance of that type (or tuple of types). Anything
    else raises DataError naming ``path``."""
    try:
        value = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not many:
        return check_object(value, str(path), required, types)
    if not isinstance(value, list):
        raise DataError(f"{path}: expected a JSON list, got {type(value).__name__}")
    return [check_object(obj, f"{path} item {i}", required, types)
            for i, obj in enumerate(value)]


def load_corpus(path: str | Path, features_dir: str | Path | None = None) -> list[PaintingRecord]:
    records = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, required=("id",)):
        try:
            record = record_from_dict(obj)
            if features_dir is not None:
                read_record_grid(record, features_dir)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if record.id in seen:
            raise DataError(f"{path}:{lineno}: duplicate painting id '{record.id}'")
        seen.add(record.id)
        records.append(record)
    return records


def save_corpus(path: str | Path, records: list[PaintingRecord]) -> None:
    atomic_write(path, (json.dumps(record_to_dict(record), ensure_ascii=False).encode("utf-8")
                        + b"\n" for record in records))
