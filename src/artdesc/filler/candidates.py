"""Typed candidate harvesting from retrieved articles and artistic attributes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from artdesc.corpus import ATTRIBUTE_TYPES, EntityType, Gazetteer, tag_entities


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
        # (lowercased surface, type) -> position of its first entry
        self._positions: dict[tuple[str, EntityType], int] = {}
        deduped: list[Candidate] = []
        for cand in self.entries:
            key = (cand.surface.lower(), cand.entity_type)
            if key not in self._positions:
                self._positions[key] = len(deduped)
                deduped.append(cand)
        self.entries = deduped

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def find(self, surface: str, etype: EntityType) -> int | None:
        return self._positions.get((surface.lower(), etype))


def attribute_candidates(attributes: dict[str, str]) -> list[Candidate]:
    """The non-blank attribute values, typed and in ``ATTRIBUTE_TYPES`` order."""
    return [Candidate(value, etype, "attribute") for key, etype in ATTRIBUTE_TYPES.items()
            if (value := attributes.get(key, "").strip())]


def extract_candidates(
    bodies: Iterable[str],
    attributes: dict[str, str],
    gazetteer: Gazetteer,
) -> CandidateSet:
    """Entities tagged in the ranked article bodies plus typed attribute values."""
    entries = attribute_candidates(attributes)
    for body in bodies:
        for (start, end), etype in tag_entities(body, gazetteer):
            entries.append(Candidate(body[start:end], etype, "article"))
    return CandidateSet(entries)
