"""Entity tagging and mask/unmask round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artdesc.corpus import (
    EntityType,
    Gazetteer,
    PaintingRecord,
    SentenceEntry,
    Slot,
    TopicLabel,
    Word,
    load_corpus,
    mask_sentence,
    record_from_dict,
    save_corpus,
    tag_entities,
    tokenize,
    unmask,
)
from artdesc.errors import DataError
from artdesc.numcore.checkpoint import digest_of

VASARI_SENTENCE = (
    "An account of Vasari says that Signorelli wanted to represent in the "
    "figure of the naked Christ his own son, who died of plague in 1502."
)


@pytest.fixture
def gazetteer():
    return Gazetteer(
        {
            "Vasari": EntityType.PERSON,
            "Signorelli": EntityType.PERSON,
            "Christ": EntityType.PERSON,
            "Florence": EntityType.LOCATION,
        }
    )


class TestGazetteerFile:
    def test_entries_skip_blank_lines_and_comments(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("# people\n\n  Vasari\tperson  \nNew York\tlocation\n", encoding="utf-8")
        gaz = Gazetteer.from_file(path)
        # the digest covers every parsed entry: these two and nothing else
        assert gaz.sha256 == digest_of([("vasari", "PERSON"), ("new york", "LOCATION")])
        assert gaz.lookup(("new", "york")) is EntityType.LOCATION

    @pytest.mark.parametrize("line, message", [
        ("Vasari", "expected 'surface<TAB>type'"),
        ("Vasari\tpainter", "unknown entity type 'painter'"),
    ], ids=["no-tab", "unknown-type"])
    def test_bad_entry_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "gaz.tsv"
        path.write_text(f"# people\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:2: {message}$"):
            Gazetteer.from_file(path)


class TestTagger:
    def test_year_pattern(self, gazetteer):
        spans = tag_entities("who died of plague in 1502", gazetteer)
        assert len(spans) == 1
        (start, end), etype = spans[0]
        assert "who died of plague in 1502"[start:end] == "1502"
        assert etype == EntityType.DATE

    def test_gazetteer_person(self, gazetteer):
        sent = "An account of Vasari says"
        spans = tag_entities(sent, gazetteer)
        assert len(spans) == 1
        (start, end), etype = spans[0]
        assert sent[start:end] == "Vasari"
        assert etype == EntityType.PERSON

    def test_no_matches(self, gazetteer):
        assert tag_entities("a quiet river scene", gazetteer) == []

    def test_spans_sorted_non_overlapping(self, gazetteer):
        spans = tag_entities(VASARI_SENTENCE, gazetteer)
        prev_end = -1
        for (start, end), _ in spans:
            assert start >= prev_end
            assert start < end
            prev_end = end

    def test_numbers_and_ordinals(self, gazetteer):
        sent = "the 2nd version has 12 figures"
        got = {sent[s:e]: t for (s, e), t in tag_entities(sent, gazetteer)}
        assert got == {"2nd": EntityType.ORDINAL, "12": EntityType.NUMBER}

    def test_month_names_and_word_ordinals(self, gazetteer):
        sent = "Finished in March, the first of three panels"
        got = {sent[s:e]: t for (s, e), t in tag_entities(sent, gazetteer)}
        assert got == {"March": EntityType.DATE, "first": EntityType.ORDINAL}

    def test_multiword_gazetteer_longest_match(self):
        gaz = Gazetteer({"New York": EntityType.LOCATION, "York": EntityType.LOCATION})
        sent = "shown in New York today"
        spans = tag_entities(sent, gaz)
        assert len(spans) == 1
        (start, end), _ = spans[0]
        assert sent[start:end] == "New York"

    def test_case_insensitive(self, gazetteer):
        spans = tag_entities("VASARI wrote it", gazetteer)
        assert len(spans) == 1


class TestMasking:
    def test_vasari_transformation(self, gazetteer):
        spans = tag_entities(VASARI_SENTENCE, gazetteer)
        masked, values = mask_sentence(VASARI_SENTENCE, spans)
        assert values == ["Vasari", "Signorelli", "Christ", "1502"]
        expected = (
            "an account of [person] says that [person] wanted to represent in "
            "the figure of the naked [person] his own son , who died of plague "
            "in [date] ."
        )
        assert " ".join(masked.surfaces()) == expected

    def test_empty_entity_list(self):
        masked, values = mask_sentence("A small panel painting.", [])
        assert values == []
        assert masked.surfaces() == tokenize("A small panel painting.")

    def test_overlapping_spans_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            mask_sentence("abcdef", [((0, 4), EntityType.MISC), ((2, 6), EntityType.MISC)])

    def test_unmask_inverts_mask(self, gazetteer):
        spans = tag_entities(VASARI_SENTENCE, gazetteer)
        masked, values = mask_sentence(VASARI_SENTENCE, spans)
        assert unmask(masked, values) == tokenize(VASARI_SENTENCE)

    def test_unmask_value_count_checked(self):
        masked, _ = mask_sentence("born in 1502", [((8, 12), EntityType.DATE)])
        with pytest.raises(DataError):
            unmask(masked, [])


WORDS = ["the", "painter", "made", "a", "scene", "with", "light", "and", "shadow", "detail"]
NAMES = ["Vermeer", "Goya", "Rubens", "Utrecht", "Delft", "1642", "1820", "third"]
NAME_TYPES = [
    EntityType.PERSON,
    EntityType.PERSON,
    EntityType.PERSON,
    EntityType.LOCATION,
    EntityType.LOCATION,
    EntityType.DATE,
    EntityType.DATE,
    EntityType.ORDINAL,
]


def random_tagged_sentence(rng):
    """Random sentence with token-aligned entity spans, built independently
    of the tagger."""
    parts, spans = [], []
    pos = 0
    n_chunks = int(rng.integers(1, 6))
    for _ in range(n_chunks):
        if rng.random() < 0.4:
            k = int(rng.integers(0, len(NAMES)))
            surface = NAMES[k]
            if parts:
                pos += 1  # joining space
            spans.append(((pos, pos + len(surface)), NAME_TYPES[k]))
            parts.append(surface)
            pos += len(surface)
        else:
            word = WORDS[int(rng.integers(0, len(WORDS)))]
            if parts:
                pos += 1
            parts.append(word)
            pos += len(word)
    sentence = " ".join(parts)
    return sentence, spans


def test_mask_unmask_round_trip_random():
    rng = np.random.default_rng(22)
    for _ in range(500):
        sentence, spans = random_tagged_sentence(rng)
        masked, values = mask_sentence(sentence, spans)
        assert unmask(masked, values) == tokenize(sentence)
        assert masked.slot_count() == len(values)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_mask_unmask_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    sentence, spans = random_tagged_sentence(rng)
    masked, values = mask_sentence(sentence, spans)
    assert unmask(masked, values) == tokenize(sentence)


def test_spans_index_the_text_as_written():
    """"İ" lowercases to two characters, "i" and U+0307; the spans still
    index the sentence itself, through the tagger and through a corpus
    record's entity values."""
    sentence = "İzmir painter worked in Rome."
    want = ("i\u0307zmir painter worked in [location] .", ["Rome"])
    gaz = Gazetteer({"Rome": EntityType.LOCATION})
    masked, values = mask_sentence(sentence, tag_entities(sentence, gaz))
    assert (" ".join(masked.surfaces()), values) == want
    record = record_from_dict({"id": "p", "sentences": [{
        "text": sentence, "topic": "context",
        "entities": [{"value": "Rome", "type": "location"}]}]})
    entry = record.sentences[0]
    assert (" ".join(entry.masked.surfaces()), entry.values) == want


# Latin, Turkish, Greek and Cyrillic letters, combining marks, digits and
# word-internal punctuation; no "[" or "]", which no word token may hold
MIXED_ALPHABET = "aeizAEIZ09 İıIi\u0307\u0301\u0308éÉΔδλжЖ.,'’-!"
MIXED_NAMES = {"İzmir": EntityType.LOCATION, "Rome": EntityType.LOCATION,
               "Δελφοί": EntityType.LOCATION, "Ilıca": EntityType.LOCATION,
               "Jose\u0301 Ribera": EntityType.PERSON, "1642": EntityType.DATE}


@given(st.lists(st.tuples(st.one_of(st.text(MIXED_ALPHABET, min_size=1, max_size=8),
                                    st.sampled_from(sorted(MIXED_NAMES))),
                          st.booleans()), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_mixed_script_spans_lie_in_the_text_and_survive_the_corpus_file(tmp_path_factory,
                                                                       chunks):
    """The gazetteer holds the names above and the chunks drawn with True."""
    sentence = " ".join(chunk for chunk, _ in chunks)
    if not tokenize(sentence):
        return
    gazetteer = Gazetteer({**MIXED_NAMES, **{chunk: EntityType.MISC for chunk, named in chunks
                                             if named and tokenize(chunk)}})
    spans = tag_entities(sentence, gazetteer)
    assert all(0 <= start < end <= len(sentence) for (start, end), _ in spans)
    masked, values = mask_sentence(sentence, spans, TopicLabel.FORM)
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    save_corpus(path, [PaintingRecord(id="p", sentences=[SentenceEntry(sentence, masked,
                                                                       values)])])
    (entry,) = load_corpus(path)[0].sentences
    assert (entry.masked, entry.values) == (masked, values)


def test_word_token_invariants():
    with pytest.raises(DataError):
        Word("")
    with pytest.raises(DataError):
        Word("Upper")
    with pytest.raises(DataError):
        Word("bad[token]")
    assert Word("fine").text == "fine"
    assert Slot(EntityType.DATE).entity_type == EntityType.DATE


def test_masked_sentence_topic_default():
    masked, _ = mask_sentence("a scene", [])
    assert masked.topic == TopicLabel.CONTEXT
