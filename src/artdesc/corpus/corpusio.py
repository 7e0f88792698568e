"""Corpus ingestion: one JSON record per line.

Record schema:
    {"id": str,
     "sentences": [{"text": str, "topic": "content"|"form"|"context"|null,
                    "entities": [{"value": str, "type": str}]}],
     "attributes": {"artist": str, "type": str, "timeframe": str, "school": str},
     "objects": [str],
     "reference": str}

Feature grids live in separate binary files named <id>.fgrd under a features
directory.
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

FEATURE_SUFFIX = ".fgrd"


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


def record_from_dict(obj: dict, features_dir: str | Path | None = None) -> PaintingRecord:
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
    features = None
    if features_dir is not None:
        fpath = Path(features_dir) / f"{obj['id']}{FEATURE_SUFFIX}"
        if not fpath.exists():
            raise DataError(f"missing feature file for painting '{obj['id']}': {fpath}")
        features = load_feature_grid(fpath)
    return PaintingRecord(
        id=obj["id"],
        sentences=sentences,
        attributes=obj.get("attributes", {}),
        objects=list(obj.get("objects", [])),
        reference=obj.get("reference", ""),
        features=features,
    )


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


def read_jsonl(path: str | Path, required: tuple[str, ...] = ()) -> Iterator[tuple[int, dict]]:
    """Yields (line number, object). Undecodable text, invalid JSON, a line
    that is not an object, or an object without a required key raises
    DataError naming ``path:lineno``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        missing = [key for key in required if key not in obj]
        if missing:
            raise DataError(f"{path}:{lineno}: missing keys {missing}")
        yield lineno, obj


def load_corpus(path: str | Path, features_dir: str | Path | None = None) -> list[PaintingRecord]:
    records = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, required=("id",)):
        record = record_from_dict(obj, features_dir)
        if record.id in seen:
            raise DataError(f"{path}:{lineno}: duplicate painting id '{record.id}'")
        seen.add(record.id)
        records.append(record)
    return records


def save_corpus(path: str | Path, records: list[PaintingRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record_to_dict(record), ensure_ascii=False))
            f.write("\n")
