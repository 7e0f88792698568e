"""Retrieval text normalization: lowercase, stop-word removal, Porter stemming."""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from importlib.resources.abc import Traversable
from pathlib import Path

from artdesc.corpus.corpusio import read_entries
from artdesc.retriever.porter import stem

_WORD_RE = re.compile(r"[a-z0-9]+")


def read_word_list(path: str | Path | Traversable) -> frozenset[str]:
    """One lowercased entry per line; blank lines and '#' comments skipped.
    A file that is not UTF-8 raises DataError naming it."""
    return frozenset(entry.lower() for _, entry in read_entries(path))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    return read_word_list(resources.files("artdesc.data") / "stopwords.txt")


def normalize_text(text: str, stopwords: frozenset[str] | None = None,
                   stems: dict[str, str] | None = None) -> list[str]:
    """Lowercased alphanumeric tokens, stop words dropped, words stemmed.
    Numeric tokens pass through unstemmed. ``stems`` (word to stem) is filled
    here: passing one dict to many calls stems each distinct word once."""
    if stopwords is None:
        stopwords = default_stopwords()
    stems = {} if stems is None else stems
    tokens = [token for token in _WORD_RE.findall(text.lower()) if token not in stopwords]
    for token in tokens:
        if token not in stems:
            stems[token] = token if token.isdigit() else stem(token)
    return [stems[token] for token in tokens]
