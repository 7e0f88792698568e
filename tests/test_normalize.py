"""Retrieval text normalization."""

import numpy as np

from artdesc.retriever import default_stopwords, normalize_text, stem


def test_spec_example():
    assert normalize_text("The paintings") == ["paint"]


def test_empty():
    assert normalize_text("") == []


def test_stopwords_dropped():
    assert normalize_text("the and of by") == []


def test_numbers_pass_through():
    assert normalize_text("painted in 1502") == ["paint", "1502"]


def test_punctuation_stripped():
    assert normalize_text("Rembrandt's etching, 1642!") == ["rembrandt", "etch", "1642"]


def test_fixpoint_streams_are_stable():
    # Streams already at the normalize fixpoint pass through unchanged.
    rng = np.random.default_rng(61)
    base_words = ["painting", "agreed", "colours", "masterpieces", "history",
                  "allegory", "baroque", "portrait", "1650", "landscape"]
    for _ in range(100):
        raw = " ".join(base_words[int(i)] for i in rng.integers(0, len(base_words), size=6))
        stream = normalize_text(raw)
        for _ in range(10):
            nxt = normalize_text(" ".join(stream))
            if nxt == stream:
                break
            stream = nxt
        assert normalize_text(" ".join(stream)) == stream


def test_shared_stem_dict_gives_the_same_tokens():
    stems = {}
    texts = ["Paintings painted 1502", "painting the paintings", "agreed 1502"]
    assert [normalize_text(t, stems=stems) for t in texts] == [normalize_text(t) for t in texts]
    assert stems == {w: w if w.isdigit() else stem(w)
                     for w in ("paintings", "painted", "1502", "painting", "agreed")}


def test_custom_stopword_set():
    assert normalize_text("alpha beta", stopwords=frozenset({"alpha"})) == [stem("beta")]


def test_default_stopwords_contains_core_words():
    words = default_stopwords()
    for w in ("the", "a", "of", "and", "is"):
        assert w in words
