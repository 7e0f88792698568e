"""Fill-model input layout: [CLS] masked-description [SEP].

This module alone knows the layout. The scorer reads the description
through its BiLSTM and takes the candidates as a separate set, so slot
choices depend on candidate content, never on list position.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from artdesc.corpus import EntityType, MaskedSentence, PaintingRecord, Slot, tokenize
from artdesc.corpus.vocab import Vocab, count_words, vocab_from_counts
from artdesc.errors import DataError

CLS, SEP = "<cls>", "<sep>"


@dataclass
class FillInput:
    tokens: list[str]  # [CLS], y surfaces, [SEP]
    slot_positions: list[int]  # indices into tokens, between CLS and SEP
    slot_types: list[EntityType]

    def __post_init__(self):
        if self.tokens.count(CLS) != 1 or self.tokens.count(SEP) != 1:
            raise DataError("fill input must contain exactly one CLS and one SEP")
        sep_position = self.tokens.index(SEP)
        for pos in self.slot_positions:
            if not 0 < pos < sep_position:
                raise DataError(f"slot position {pos} falls outside the description segment")
        if len(self.slot_positions) != len(self.slot_types):
            raise DataError("slot positions/types length mismatch")


def encode_fill_input(masked: list[MaskedSentence]) -> FillInput:
    """Lay out [CLS] y [SEP] with the position and type of every slot, in
    the order the slots appear."""
    tokens = [CLS]
    slot_positions: list[int] = []
    slot_types: list[EntityType] = []
    for sentence in masked:
        for token in sentence.tokens:
            if isinstance(token, Slot):
                slot_positions.append(len(tokens))
                slot_types.append(token.entity_type)
                tokens.append(token.entity_type.slot_surface)
            else:
                tokens.append(token.text)
    tokens.append(SEP)
    return FillInput(tokens, slot_positions, slot_types)


def build_filler_vocab(records: list[PaintingRecord], min_freq: int = 1) -> Vocab:
    """Vocabulary over masked-sentence words plus the word tokens of entity
    values and attribute values (candidates must be distinguishable), with
    the CLS/SEP specials pinned after the slot band."""
    if not records:
        raise DataError("cannot build a filler vocab from an empty corpus")
    counts = count_words(entry.masked for record in records for entry in record.sentences)
    for record in records:
        for value in chain(*(entry.values for entry in record.sentences),
                           record.attributes.values()):
            counts.update(tokenize(value))
    return vocab_from_counts(counts, min_freq, (CLS, SEP))
