"""Domain types for description corpora: entities, topics, masked sentences."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from artdesc.errors import DataError


class EntityType(enum.IntEnum):
    """Closed set of maskable entity types with stable serialization codes."""

    PERSON = 0
    LOCATION = 1
    ORGANIZATION = 2
    ORDINAL = 3
    NUMBER = 4
    DATE = 5
    MISC = 6

    @property
    def slot_surface(self) -> str:
        return f"[{self.name.lower()}]"

    @classmethod
    def from_name(cls, name: str) -> "EntityType":
        try:
            return cls[name.upper()]
        except KeyError:
            raise DataError(f"unknown entity type '{name}'") from None


SLOT_SURFACES = {et.slot_surface: et for et in EntityType}


class TopicLabel(enum.IntEnum):
    """The three-way description taxonomy, in the order a description
    composes its topics."""

    CONTENT = 0
    FORM = 1
    CONTEXT = 2

    @classmethod
    def from_name(cls, name: str) -> "TopicLabel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise DataError(f"unknown topic label '{name}'") from None


@dataclass(frozen=True)
class Word:
    text: str

    def __post_init__(self):
        if not self.text:
            raise DataError("empty word token")
        if self.text != self.text.lower():
            raise DataError(f"word token '{self.text}' must be lowercase")
        if "[" in self.text or "]" in self.text:
            raise DataError(f"word token '{self.text}' contains slot-marker characters")


@dataclass(frozen=True)
class Slot:
    entity_type: EntityType


Token = Word | Slot


def token_surface(token: Token) -> str:
    return token.text if isinstance(token, Word) else token.entity_type.slot_surface


@dataclass
class MaskedSentence:
    """Token sequence with entity mentions replaced by typed slots."""

    tokens: list[Token]
    topic: TopicLabel = TopicLabel.CONTEXT

    def __post_init__(self):
        if not self.tokens:
            raise DataError("masked sentence must contain at least one token")

    def surfaces(self) -> list[str]:
        return [token_surface(t) for t in self.tokens]

    def slot_count(self) -> int:
        return sum(1 for t in self.tokens if isinstance(t, Slot))

    def slot_types(self) -> list[EntityType]:
        return [t.entity_type for t in self.tokens if isinstance(t, Slot)]


@dataclass
class SentenceEntry:
    """One corpus sentence: raw text, its masked form, and the masked values.

    topic_labeled is False for sentences whose annotation was absent; they are
    kept (with topic defaulting to context) for statistics but are excluded
    from decoder training.
    """

    raw: str
    masked: MaskedSentence
    values: list[str]
    topic_labeled: bool = True

    def __post_init__(self):
        if self.masked.slot_count() != len(self.values):
            raise DataError(
                f"sentence has {self.masked.slot_count()} slots but "
                f"{len(self.values)} entity values"
            )


# the painting attributes, in query order, each with the entity type of its values
ATTRIBUTE_TYPES = {
    "artist": EntityType.PERSON,
    "type": EntityType.MISC,
    "timeframe": EntityType.DATE,
    "school": EntityType.LOCATION,
}


@dataclass
class FeatureGrid:
    """L x D grid of visual feature vectors standing in for an encoded image.

    ``values`` is an (L, D) float64 view of a buffer whose rows are an odd
    number of 64-byte cache lines apart: ceil(D/8) lines, plus one if that
    count is even (2056 floats at D = 2048). A row pitch that is a multiple
    of 4 KB maps every row of a column block onto the same few cache sets,
    so the decoder's blocked reads of the grid in place would not stay
    cached (see ``DecodeStep``). The pitch changes only speed, never bits.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(f"feature grid must be (L, D) with L,D >= 1, got {values.shape}")
        lines = -(-values.shape[1] // 8) | 1  # an odd number of cache lines per row
        self.values = np.empty((values.shape[0], 8 * lines))[:, :values.shape[1]]
        self.values[...] = values
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature grid contains non-finite values")

    @property
    def n_locations(self) -> int:
        return self.values.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[1]


@dataclass
class PaintingRecord:
    id: str
    sentences: list[SentenceEntry]
    attributes: dict[str, str] = field(default_factory=dict)
    objects: list[str] = field(default_factory=list)
    reference: str = ""
    features: FeatureGrid | None = None

    def __post_init__(self):
        normalized = dict.fromkeys(ATTRIBUTE_TYPES, "")
        for key, value in self.attributes.items():
            if key not in ATTRIBUTE_TYPES:
                raise DataError(f"record '{self.id}': unknown attribute key '{key}'")
            normalized[key] = value or ""
        self.attributes = normalized
        if not self.reference:
            self.reference = " ".join(s.raw for s in self.sentences)
