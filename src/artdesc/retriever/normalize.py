"""Retrieval text normalization: lowercase, stop-word removal, Porter stemming."""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from importlib.resources.abc import Traversable
from pathlib import Path

from artdesc.errors import DataError
from artdesc.retriever.porter import stem

_WORD_RE = re.compile(r"[a-z0-9]+")


def read_word_list(path: Path | Traversable) -> frozenset[str]:
    """One lowercased entry per line; blank lines and '#' comments skipped.
    A file that is not UTF-8 raises DataError naming it."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    lines = (line.strip().lower() for line in text.splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    return read_word_list(resources.files("artdesc.data") / "stopwords.txt")


def load_stopwords(path: str | Path) -> frozenset[str]:
    return read_word_list(Path(path))


def normalize_text(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercased alphanumeric tokens, stop words dropped, words stemmed.
    Numeric tokens pass through unstemmed."""
    if stopwords is None:
        stopwords = default_stopwords()
    out = []
    for token in _WORD_RE.findall(text.lower()):
        if token in stopwords:
            continue
        out.append(stem(token) if not token.isdigit() else token)
    return out
