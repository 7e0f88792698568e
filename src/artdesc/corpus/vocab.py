"""Token vocabulary with fixed reserved indices.

Index layout: 0 <pad>, 1 <s>, 2 </s>, 3 <unk>; build_vocab() additionally
pins the seven slot surfaces at indices 4..10, then frequency-ordered words.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable

from artdesc.corpus.types import SLOT_SURFACES, EntityType, MaskedSentence, Slot, Token, Word
from artdesc.errors import DataError

PAD, START, END, UNK = "<pad>", "<s>", "</s>", "<unk>"
RESERVED = (PAD, START, END, UNK)


class Vocab:
    def __init__(self, tokens: list[str]):
        if len(tokens) < len(RESERVED) or tuple(tokens[: len(RESERVED)]) != RESERVED:
            raise DataError(f"vocab must start with the reserved tokens {RESERVED}")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocab tokens must be unique")

    # fixed reserved indices
    pad = 0
    start = 1
    end = 2
    unk = 3

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, self.unk)

    def slot_id(self, etype: EntityType) -> int:
        idx = self.index.get(etype.slot_surface)
        if idx is None:
            raise DataError(f"vocab has no slot token for {etype.name}")
        return idx

    def encode_token(self, token: Token) -> int:
        if isinstance(token, Slot):
            return self.slot_id(token.entity_type)
        return self.id_of(token.text)

    def encode(self, sentence: MaskedSentence) -> list[int]:
        return [self.encode_token(t) for t in sentence.tokens]

    def decode_token(self, idx: int) -> Token:
        surface = self.tokens[idx]
        etype = SLOT_SURFACES.get(surface)
        if etype is not None:
            return Slot(etype)
        return Word(surface) if surface not in RESERVED else Word(surface.strip("<>/") or "pad")

    def digest(self) -> str:
        payload = "\n".join(self.tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def count_words(corpus: Iterable[MaskedSentence]) -> Counter:
    """Word-token frequencies (slots excluded); the independent test oracle
    recounts with its own pass."""
    counts: Counter = Counter()
    for sentence in corpus:
        for token in sentence.tokens:
            if isinstance(token, Word):
                counts[token.text] += 1
    return counts


def vocab_from_counts(counts: Counter, min_freq: int, specials: tuple[str, ...] = ()) -> Vocab:
    """The reserved tokens, all seven slot tokens, ``specials``, then the
    words counted at least min_freq times, by frequency (desc) and then
    lexicographically; the other words map to <unk>."""
    if min_freq < 1:
        raise DataError(f"min_freq must be >= 1, got {min_freq}")
    tokens = [*RESERVED, *(et.slot_surface for et in EntityType), *specials]
    tokens.extend(sorted((t for t, c in counts.items() if c >= min_freq),
                         key=lambda t: (-counts[t], t)))
    return Vocab(tokens)


def build_vocab(corpus: list[MaskedSentence], min_freq: int = 1) -> Vocab:
    """The decoder vocab over the corpus's words (see vocab_from_counts)."""
    if not corpus:
        raise DataError("cannot build a vocab from an empty corpus")
    return vocab_from_counts(count_words(corpus), min_freq)
