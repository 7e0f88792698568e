"""Typed candidate harvesting from retrieved articles and artistic attributes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from artdesc.corpus import ATTRIBUTE_KEYS, EntityType, Gazetteer, tag_entities

# attribute values carry a fixed entity type each
ATTRIBUTE_TYPES = {
    "artist": EntityType.PERSON,
    "school": EntityType.LOCATION,
    "timeframe": EntityType.DATE,
    "type": EntityType.MISC,
}


class Candidate(NamedTuple):
    surface: str
    entity_type: EntityType
    source: str  # "article" | "attribute"


@dataclass
class CandidateSet:
    """Deduplicated candidates in deterministic order: attribute-derived
    entries first, then article entries by rank and position."""

    entries: list[Candidate]

    def __post_init__(self):
        deduped: list[Candidate] = []
        seen: set[tuple[str, EntityType]] = set()
        for cand in self.entries:
            key = (cand.surface.lower(), cand.entity_type)
            if key not in seen:
                seen.add(key)
                deduped.append(cand)
        self.entries = deduped

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def of_type(self, etype: EntityType) -> list[tuple[int, Candidate]]:
        return [(i, c) for i, c in enumerate(self.entries) if c.entity_type == etype]

    def find(self, surface: str, etype: EntityType) -> int | None:
        key = surface.lower()
        for i, cand in enumerate(self.entries):
            if cand.entity_type == etype and cand.surface.lower() == key:
                return i
        return None


def extract_candidates(
    bodies: Iterable[str],
    attributes: dict[str, str],
    gazetteer: Gazetteer,
) -> CandidateSet:
    """Entities tagged in the ranked article bodies plus typed attribute values."""
    entries: list[Candidate] = []
    for key in ATTRIBUTE_KEYS:
        value = (attributes or {}).get(key, "").strip()
        if value:
            entries.append(Candidate(value, ATTRIBUTE_TYPES[key], "attribute"))
    for body in bodies:
        for (start, end), etype in tag_entities(body, gazetteer):
            entries.append(Candidate(body[start:end], etype, "article"))
    return CandidateSet(entries)
