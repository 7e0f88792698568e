"""Tokenizer and sentence splitter."""

import numpy as np

from artdesc.corpus import split_sentences, tokenize


def test_tokenize_lowercases_and_keeps_punctuation():
    assert tokenize("He died in 1502.") == ["he", "died", "in", "1502", "."]
    assert tokenize("A still-life, richly painted!") == [
        "a", "still-life", ",", "richly", "painted", "!",
    ]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   ") == []


def test_split_basic():
    assert split_sentences("One. Two.") == ["One.", "Two."]


def test_split_abbreviation_guard():
    assert split_sentences("A. B.") == ["A. B."]
    assert split_sentences("Dr. Smith arrived. He left.") == ["Dr. Smith arrived.", "He left."]
    assert split_sentences("See fig. 3 for detail. It is large.") == [
        "See fig. 3 for detail.",
        "It is large.",
    ]


def test_split_empty():
    assert split_sentences("") == []


def test_split_question_exclamation():
    assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]


def test_split_terminator_runs_stay_whole():
    assert split_sentences("Wait... Really?! Yes.") == ["Wait...", "Really?!", "Yes."]


def test_split_attaches_closing_quotes_and_brackets():
    assert split_sentences('He wrote "done." (It was late.) Then he left.') == [
        'He wrote "done."', "(It was late.)", "Then he left."]


def test_split_covers_input():
    text = "First bit. Second bit! Third?"
    parts = split_sentences(text)
    assert "".join(text.split()) == "".join("".join(p.split()) for p in parts)


def test_split_round_trip_50_random_sentences():
    # Generator-based round trip: concatenating known sentences recovers them.
    rng = np.random.default_rng(21)
    words = ["painting", "canvas", "master", "colour", "light", "figure", "scene", "detail"]
    sentences = []
    for _ in range(50):
        n = int(rng.integers(3, 9))
        body = " ".join(rng.choice(words) for _ in range(n))
        sentences.append(body.capitalize() + ".")
    glued = " ".join(sentences)
    assert split_sentences(glued) == sentences
