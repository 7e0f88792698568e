"""Deterministic gazetteer + pattern entity tagger.

Stands in for a statistical name tagger behind the same contract: typed,
non-overlapping character spans in left-to-right order. Names come from
dictionaries (longest match wins), dates/numbers/ordinals from patterns.
"""

from __future__ import annotations

import re
from pathlib import Path

from artdesc.corpus.corpusio import read_entries
from artdesc.corpus.text import tokenize_with_spans
from artdesc.corpus.types import EntityType
from artdesc.errors import DataError
from artdesc.numcore.checkpoint import digest_of

_YEAR_RE = re.compile(r"^[12]\d{3}$")
_NUMBER_RE = re.compile(r"^\d+(?:[.,]\d+)*$")
_ORDINAL_RE = re.compile(r"^\d+(?:st|nd|rd|th)$")

_MONTHS = frozenset(
    "january february march april may june july august september october november december".split()
)
_WORD_ORDINALS = frozenset(
    "first second third fourth fifth sixth seventh eighth ninth tenth".split()
)


class Gazetteer:
    """Phrase dictionary mapping lowercased token tuples to entity types."""

    sha256: str | None = None  # the digest of the entries ``from_file`` parsed

    def __init__(self, entries: dict[str, EntityType] | None = None):
        self._phrases: dict[tuple[str, ...], EntityType] = {}
        self.max_len = 0
        for surface, etype in (entries or {}).items():
            self.add(surface, etype)

    def add(self, surface: str, etype: EntityType) -> None:
        key = tuple(tok for tok, _, _ in tokenize_with_spans(surface))
        if not key:
            raise DataError(f"gazetteer surface '{surface}' tokenizes to nothing")
        self._phrases[key] = etype
        self.max_len = max(self.max_len, len(key))

    def lookup(self, phrase: tuple[str, ...]) -> EntityType | None:
        return self._phrases.get(phrase)

    @classmethod
    def from_file(cls, path: str | Path) -> "Gazetteer":
        """One surface-form<TAB>type entry per line, as ``read_entries`` reads
        lines; a bad entry raises DataError naming ``path:lineno``."""
        gaz = cls()
        for lineno, line in read_entries(path):
            surface, tab, type_name = line.partition("\t")
            if not tab:
                raise DataError(f"{path}:{lineno}: expected 'surface<TAB>type'")
            try:
                gaz.add(surface.strip(), EntityType.from_name(type_name.strip()))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        gaz.sha256 = digest_of([(" ".join(key), etype.name) for key, etype in gaz._phrases.items()])
        return gaz


def _pattern_type(token: str) -> EntityType | None:
    if _YEAR_RE.match(token):
        return EntityType.DATE
    if _ORDINAL_RE.match(token):
        return EntityType.ORDINAL
    if _NUMBER_RE.match(token):
        return EntityType.NUMBER
    if token in _MONTHS:
        return EntityType.DATE
    if token in _WORD_ORDINALS:
        return EntityType.ORDINAL
    return None


def tag_entities(sentence: str, gazetteer: Gazetteer) -> list[tuple[tuple[int, int], EntityType]]:
    """Typed entity spans, non-overlapping, in left-to-right order.

    At each token position the longest gazetteer match wins; failing that,
    single-token date/ordinal/number patterns apply.
    """
    spans: list[tuple[tuple[int, int], EntityType]] = []
    toks = tokenize_with_spans(sentence)
    i = 0
    while i < len(toks):
        matched = False
        for length in range(min(gazetteer.max_len, len(toks) - i), 0, -1):
            phrase = tuple(t for t, _, _ in toks[i : i + length])
            etype = gazetteer.lookup(phrase)
            if etype is not None:
                spans.append(((toks[i][1], toks[i + length - 1][2]), etype))
                i += length
                matched = True
                break
        if matched:
            continue
        etype = _pattern_type(toks[i][0])
        if etype is not None:
            spans.append(((toks[i][1], toks[i][2]), etype))
        i += 1
    return spans
