"""Corpus ingestion: one JSON record per line.

Record schema:
    {"id": str,
     "sentences": [{"text": str, "topic": "content"|"form"|"context"|null,
                    "entities": [{"value": str, "type": str}]}],
     "attributes": {"artist": str|null, "type": str|null, "timeframe": str|null,
                    "school": str|null},
     "objects": [str],
     "reference": str}

Feature grids live in separate container files named <id>.fgrd under a
features directory. Every text file the package reads goes through
``read_text``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from collections.abc import Iterator
from importlib.resources.abc import Traversable
from pathlib import Path
from types import NoneType, UnionType

from artdesc.corpus.features import load_feature_grid
from artdesc.corpus.masking import mask_sentence
from artdesc.corpus.text import tokenize, tokenize_with_spans
from artdesc.corpus.types import (
    EntityType,
    PaintingRecord,
    SentenceEntry,
    TopicLabel,
)
from artdesc.errors import ConfigError, DataError
from artdesc.numcore.checkpoint import atomic_write

RECORD_TYPES = {"id": str, "sentences": list[dict], "attributes": dict[str, str | None],
                "objects": list[str], "reference": str}
SENTENCE_TYPES = {"text": str, "topic": str | None, "entities": list[dict]}
ENTITY_TYPES = {"value": str, "type": str}


def _spans_for_values(text: str, entities: list[dict],
                      where: str) -> list[tuple[tuple[int, int], EntityType]]:
    """Locate each entity value left-to-right as a run of whole tokens
    whose text equals the value case-insensitively (the first run at or
    after the previous entity's end), as the tagger spans them."""
    tokens = tokenize_with_spans(text)
    words = [token for token, _, _ in tokens]
    spans = []
    cursor = 0
    for j, ent in enumerate(entities):
        check_object(ent, f"{where} entity {j}", ("value", "type"), ENTITY_TYPES)
        value = ent["value"]
        etype = EntityType.from_name(ent["type"])
        run = tokenize(value)
        n = len(run)
        start = next((i for i in range(cursor, len(tokens) - n + 1) if n and words[i : i + n] == run
                      and text[tokens[i][1] : tokens[i + n - 1][2]].lower() == value.lower()), None)
        if start is None:
            raise DataError(f"entity value '{value}' not found as whole tokens in sentence: "
                            f"{text!r}")
        spans.append(((tokens[start][1], tokens[start + n - 1][2]), etype))
        cursor = start + n
    return spans


def record_from_dict(obj: dict) -> PaintingRecord:
    """A record of the schema above; a key of another type, or a sentence or
    entity without its text, value or type, raises DataError naming it."""
    where = f"painting '{obj.get('id')}'"
    # a null attribute is a missing one (PaintingRecord stores it as "")
    check_object(obj, where, ("id",), RECORD_TYPES)
    sentences = []
    for i, sent in enumerate(obj.get("sentences", [])):
        check_object(sent, f"{where} sentence {i}", ("text",), SENTENCE_TYPES)
        text = sent["text"]
        topic_name = sent.get("topic")
        topic_labeled = topic_name is not None
        topic = TopicLabel.from_name(topic_name) if topic_labeled else TopicLabel.CONTEXT
        spans = _spans_for_values(text, sent.get("entities", []), f"{where} sentence {i}")
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


def _hint_name(hint) -> str:
    """``list[str]``, ``str or null``: a type hint as an error names it."""
    if typing.get_origin(hint) is UnionType:
        return " or ".join(map(_hint_name, typing.get_args(hint)))
    return repr(hint) if typing.get_args(hint) else "null" if hint is NoneType else hint.__name__


def _check_value(value, hint, key: str, where: str) -> None:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    classes = args if origin is UnionType else (list if origin is tuple else origin or hint,)
    # a JSON true is not an int, although Python's bool is one
    if not isinstance(value, classes) or isinstance(value, bool) and bool not in classes:
        raise DataError(f"{where}: '{key}' must be {_hint_name(hint)}, "
                        f"got {type(value).__name__}")
    if origin is UnionType or not args:
        return
    # the element hint: X of list[X], tuple[X, ...] or dict[str, X]
    element, items = (args[1], value.values()) if origin is dict else (args[0], value)
    # one C-level pass over elements of a class; the loop names an offender
    if isinstance(element, type) and all(map(element.__instancecheck__, items)) and (
            element is not int or not any(map(bool.__instancecheck__, items))):
        return
    keys, label = (value, "{}.{}") if origin is dict else (range(len(value)), "{}[{}]")
    for k, item in zip(keys, items):
        _check_value(item, element, label.format(key, k), where)


def check_object(obj, where: str, required: tuple[str, ...] = (), types: dict | None = None,
                 closed: bool = False) -> dict:
    """``obj`` once it is a JSON object that holds the ``required`` keys,
    whose keys in ``types`` hold values of their type hints and, if
    ``closed``, that holds no other key. A hint is a class, a union of
    classes (None allowed), ``list[X]``, ``tuple[X, ...]`` (a JSON list) or
    ``dict[str, X]``, and elements are checked to the last level. Anything
    else raises DataError naming ``where``, the key (with the index or key
    of a nested element), the hint and the type found."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise DataError(f"{where}: missing keys {missing}")
    types = types or {}
    unknown = sorted(obj.keys() - types.keys()) if closed else []
    if unknown:
        raise DataError(f"{where}: unknown keys {unknown}")
    for key, hint in types.items():
        if key in obj:
            _check_value(obj[key], hint, key, where)
    return obj


_type_hints = functools.cache(typing.get_type_hints)


def config_from_object(cls, obj, where: str):
    """The config dataclass ``cls`` built from a JSON object that holds each
    field without a default, no key that is not a field, and every value of
    its field's annotated type. Anything else, or a value that ``cls``
    rejects, raises ConfigError naming ``where``."""
    required = tuple(f.name for f in dataclasses.fields(cls)
                     if f.default is f.default_factory is dataclasses.MISSING)
    try:
        check_object(obj, where, required, _type_hints(cls), closed=True)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    try:
        return cls(**obj)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def read_text(path: str | Path | Traversable) -> str:
    """A UTF-8 text file or package resource; bad bytes raise DataError naming it."""
    try:
        return (Path(path) if isinstance(path, str) else path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def read_entries(path: str | Path | Traversable,
                 comment: str | None = "#") -> Iterator[tuple[int, str]]:
    """Yields (line number, stripped line) for each line of a UTF-8 text file
    that is neither blank nor, unless ``comment`` is None, a comment."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if line and not (comment and line.startswith(comment)):
            yield lineno, line


def read_jsonl(path: str | Path, required: tuple[str, ...] = (),
               types: dict | None = None) -> Iterator[tuple[int, dict]]:
    """Yields (line number, object). Undecodable text, invalid JSON, or a
    line that ``check_object`` refuses with ``required`` and ``types``
    raises DataError naming ``path:lineno``."""
    for lineno, line in read_entries(path, comment=None):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        yield lineno, check_object(obj, f"{path}:{lineno}", required, types)


def read_json(path: str | Path, many: bool = False, required: tuple[str, ...] = (),
              types: dict | None = None) -> dict | list[dict]:
    """One JSON object from a file, or with ``many`` a JSON list of objects,
    each checked by ``check_object`` with ``required`` and ``types``.
    Anything else raises DataError naming ``path``."""
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
                record.features = load_feature_grid(feature_path(features_dir, record.id))
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
