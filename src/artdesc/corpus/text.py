"""Tokenization and sentence splitting."""

from __future__ import annotations

import re

# Words (with internal apostrophes/hyphens) or single punctuation marks, matched
# in the text as written, so offsets index it: lowercasing can lengthen a text.
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:['’-][a-z0-9]+)*|[^\sa-z0-9]", re.IGNORECASE)

# Words before a period that do not end a sentence.
ABBREVIATIONS = frozenset(
    "mr mrs ms dr prof st no vol etc vs fig ca cf jr sr ed op".split())


def tokenize(text: str) -> list[str]:
    """Split on whitespace, keep punctuation as separate tokens, and
    lowercase each token."""
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def tokenize_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Like tokenize() but with each token's (start, end) offsets into text."""
    return [(m.group(0).lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def _word_before(text: str, idx: int) -> str:
    """Alphabetic run immediately preceding text[idx]."""
    j = idx
    while j > 0 and text[j - 1].isalpha():
        j -= 1
    return text[j:idx]


def split_sentences(text: str) -> list[str]:
    """Split on sentence terminators with an abbreviation guard.

    A '.' does not end a sentence when the preceding word is a known
    abbreviation or a single letter (initials). '!' and '?' always split.
    """
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ".!?":
            # consume runs like "..." or "?!"
            j = i
            while j + 1 < n and text[j + 1] in ".!?":
                j += 1
            if ch == "." and i == j:
                word = _word_before(text, i).lower()
                if word and (word in ABBREVIATIONS or len(word) == 1):
                    i += 1
                    continue
            # attach closing quotes/brackets to the sentence
            j += 1
            while j < n and text[j] in "\"')]":
                j += 1
            piece = text[start:j].strip()
            if piece:
                sentences.append(piece)
            start = j
            i = j
        else:
            i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences
