"""Vocabulary construction."""

from collections import Counter

import numpy as np
import pytest

from artdesc.corpus import (
    EntityType,
    MaskedSentence,
    Slot,
    TopicLabel,
    Word,
    build_vocab,
)
from artdesc.corpus.vocab import RESERVED, Vocab
from artdesc.errors import DataError


def sent(*words, topic=TopicLabel.CONTENT):
    return MaskedSentence([Word(w) for w in words], topic)


def test_min_freq_filters_to_unk():
    vocab = build_vocab([sent("a", "a", "b")], min_freq=2)
    assert "a" in vocab.index
    assert "b" not in vocab.index
    assert vocab.id_of("b") == vocab.unk


def test_all_slot_tokens_present():
    vocab = build_vocab([sent("x")])
    for et in EntityType:
        assert et.slot_surface in vocab.index
    # slots occupy the fixed band right after the reserved tokens
    assert vocab.slot_id(EntityType.PERSON) == len(RESERVED)


def test_frequency_table_matches_independent_count():
    rng = np.random.default_rng(23)
    words = [f"w{i}" for i in range(20)]
    sentences = []
    oracle = Counter()  # independent hash-count pass
    for _ in range(200):
        chosen = [words[int(rng.integers(0, 20))] for _ in range(int(rng.integers(1, 8)))]
        oracle.update(chosen)
        sentences.append(sent(*chosen))
    from artdesc.corpus import count_words

    assert count_words(sentences) == oracle
    vocab = build_vocab(sentences, min_freq=3)
    expected_words = sorted(
        (w for w, c in oracle.items() if c >= 3), key=lambda w: (-oracle[w], w)
    )
    assert vocab.tokens[len(RESERVED) + len(EntityType):] == expected_words


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        build_vocab([])


def test_encode_decode():
    vocab = build_vocab([sent("blue", "sky")])
    ms = MaskedSentence([Word("blue"), Slot(EntityType.DATE), Word("never-seen")])
    ids = vocab.encode(ms)
    assert ids[0] == vocab.id_of("blue")
    assert ids[1] == vocab.slot_id(EntityType.DATE)
    assert ids[2] == vocab.unk
    assert vocab.decode_token(ids[1]) == Slot(EntityType.DATE)
    assert vocab.decode_token(ids[0]) == Word("blue")


def test_deterministic_index_order():
    sentences = [sent("b", "a", "c"), sent("a", "c"), sent("c")]
    v1 = build_vocab(sentences)
    v2 = build_vocab(list(sentences))
    assert v1.tokens == v2.tokens
    words = v1.tokens[len(RESERVED) + len(EntityType):]
    assert words == ["c", "a", "b"]  # freq desc, then lexicographic


def test_custom_vocab_requires_reserved_prefix():
    with pytest.raises(DataError):
        Vocab(["a", "b", "c", "d", "e"])
    small = Vocab(list(RESERVED) + ["a"])
    assert len(small) == 5
