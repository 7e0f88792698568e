"""Query construction from painting metadata."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

from artdesc.corpus.types import ATTRIBUTE_TYPES
from artdesc.retriever.normalize import read_word_list

# the warning of a caller whose painting's query came out empty
EMPTY_QUERY = "built an empty retrieval query (no attributes or usable objects)"


@lru_cache(maxsize=1)
def default_blocklist() -> frozenset[str]:
    return read_word_list(resources.files("artdesc.data") / "blocklist.txt")


def load_blocklist(path: str | Path | None) -> frozenset[str]:
    """The blocklist at ``path``; the package list for None."""
    return default_blocklist() if path is None else read_word_list(path)


def build_query(attributes: dict[str, str], objects: list[str],
                blocklist: frozenset[str] | None = None) -> str:
    """Attribute values in the fixed order artist, type, timeframe, school,
    followed by detected object concepts not on the blocklist; "" if
    none is left, which the caller warns of, naming its painting."""
    if blocklist is None:
        blocklist = default_blocklist()
    parts = [attributes.get(key, "").strip() for key in ATTRIBUTE_TYPES]
    parts = [p for p in parts if p]
    for concept in objects:
        concept = concept.strip()
        if concept and concept.lower() not in blocklist:
            parts.append(concept)
    return " ".join(parts)
