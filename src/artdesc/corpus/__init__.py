"""Corpus ingestion: sentence splitting, entity tagging/masking, vocabularies,
feature grids, and sidecar metadata."""

from artdesc.corpus.corpusio import load_corpus, record_from_dict, record_to_dict, save_corpus
from artdesc.corpus.features import load_feature_grid, save_feature_grid
from artdesc.corpus.masking import mask_sentence, sentence_from_surfaces, unmask
from artdesc.corpus.tagger import Gazetteer, tag_entities
from artdesc.corpus.text import split_sentences, tokenize
from artdesc.corpus.types import (
    ATTRIBUTE_TYPES,
    EntityType,
    FeatureGrid,
    MaskedSentence,
    PaintingRecord,
    SentenceEntry,
    Slot,
    TopicLabel,
    Word,
)
from artdesc.corpus.vocab import Vocab, build_vocab, count_words

__all__ = [
    "ATTRIBUTE_TYPES",
    "EntityType",
    "FeatureGrid",
    "Gazetteer",
    "MaskedSentence",
    "PaintingRecord",
    "SentenceEntry",
    "Slot",
    "TopicLabel",
    "Vocab",
    "Word",
    "build_vocab",
    "count_words",
    "load_corpus",
    "load_feature_grid",
    "mask_sentence",
    "record_from_dict",
    "record_to_dict",
    "save_corpus",
    "save_feature_grid",
    "sentence_from_surfaces",
    "split_sentences",
    "tag_entities",
    "tokenize",
    "unmask",
]
