"""Training loop contracts: learning signal, determinism, joint objective."""

import logging
import math

import numpy as np
import pytest

from synth import memorization_corpus, topic_disjoint_corpus

import artdesc.numcore as nc
from artdesc.decoder import (
    DecoderConfig,
    TrainConfig,
    build_training_items,
    train_conditional,
    train_decoder,
)
from artdesc.corpus import TopicLabel
from artdesc.errors import ConfigError


def small_config(vocab, variant="baseline", **kw):
    defaults = dict(variant=variant, vocab_size=len(vocab), feature_dim=6,
                    hidden_size=16, embed_size=12, topic_embed_size=4, max_len=10)
    defaults.update(kw)
    return DecoderConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return memorization_corpus(np.random.default_rng(40), n_records=6)


def test_first_epoch_beats_uniform(corpus):
    records, vocab = corpus
    ckpt = train_decoder(records, vocab, small_config(vocab),
                         TrainConfig(epochs=1, lr=5e-3, batch_size=1, seed=4))
    assert ckpt.history[0]["nll_per_token"] < math.log(len(vocab))


def test_identical_seed_identical_curve(corpus):
    records, vocab = corpus
    tcfg = TrainConfig(epochs=3, batch_size=3, seed=5)
    a = train_decoder(records, vocab, small_config(vocab), tcfg)
    b = train_decoder(records, vocab, small_config(vocab), tcfg)
    assert [h["nll_per_token"] for h in a.history] == [h["nll_per_token"] for h in b.history]
    for name in a.store.names():
        assert np.array_equal(a.store[name].data, b.store[name].data)


def test_each_epoch_is_logged_as_it_ends(corpus, monkeypatch):
    records, vocab = corpus
    seen = []
    original = nc.scheduled_lr

    def starts(base_lr, epoch, *args):
        seen.append(("start", epoch))
        return original(base_lr, epoch, *args)

    class Ends(logging.Handler):
        def emit(self, record):
            seen.append(("end", record))

    monkeypatch.setattr(nc, "scheduled_lr", starts)
    handler = Ends(logging.INFO)
    logger = logging.getLogger("artdesc.training")
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.INFO)  # unlike assigning .level, this clears the enabled-for cache
    try:
        ckpt = train_decoder(records, vocab, small_config(vocab),
                             TrainConfig(epochs=2, batch_size=3, seed=5))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert [kind for kind, _ in seen] == ["start", "end", "start", "end"]
    tokens = sum(len(item.token_ids) - 1 for item in build_training_items(records, vocab,
                                                                          "baseline"))
    for (_, record), entry in zip(seen[1::2], ckpt.history):
        assert record.getMessage() == "epoch"
        for key, value in entry.items():  # the history entry, as it was appended
            assert getattr(record, key) == value
        assert record.units_per_s == pytest.approx(tokens / record.seconds)
    # timings go to the log only: a fixed seed reproduces the history exactly
    assert all(set(entry) == {"epoch", "lr", "nll_per_token"} for entry in ckpt.history)


class _Events(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.mark.parametrize("variant, batch_size", [("baseline", 6), ("parallel", 3)])
def test_epoch_event_counts_batches_and_padding(corpus, variant, batch_size):
    """The epoch event reports the minibatches and the padded share of the
    recurrences' (B, T) positions; the history holds neither, and logging
    them changes no history."""
    records, vocab = corpus
    config = small_config(vocab, variant=variant)
    tcfg = TrainConfig(epochs=2, batch_size=batch_size, seed=12)
    quiet = train_decoder(records, vocab, config, tcfg)
    handler = _Events()
    logger = logging.getLogger("artdesc.training")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        ckpt = train_decoder(records, vocab, config, tcfg)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert ckpt.history == quiet.history
    assert all(set(entry) == {"epoch", "lr", "nll_per_token"} for entry in ckpt.history)
    items = build_training_items(records, vocab, variant)
    lengths = [len(item.token_ids) - 1 for item in items]
    assert [r.batches for r in handler.records] == [math.ceil(len(items) / batch_size)] * 2
    for record in handler.records:
        assert 0.0 < record.padded_share < 1.0  # ragged lengths pad, real rows dominate
    if batch_size >= len(items):  # one minibatch: the share is exact
        padded = len(items) * max(lengths) - sum(lengths)
        assert handler.records[0].padded_share == padded / (len(items) * max(lengths))


def test_different_seed_differs(corpus):
    records, vocab = corpus
    a = train_decoder(records, vocab, small_config(vocab), TrainConfig(epochs=2, seed=6))
    b = train_decoder(records, vocab, small_config(vocab), TrainConfig(epochs=2, seed=7))
    assert a.history[-1]["nll_per_token"] != b.history[-1]["nll_per_token"]


def test_small_corpus_memorizes():
    records, vocab = memorization_corpus(np.random.default_rng(41), n_records=4,
                                         min_len=3, max_len=5)
    ckpt = train_decoder(
        records, vocab,
        small_config(vocab, hidden_size=32, embed_size=24),
        TrainConfig(epochs=250, lr=5e-3, lr_decay_every=None, batch_size=2, seed=8),
    )
    assert ckpt.history[-1]["nll_per_token"] <= 0.05


@pytest.mark.parametrize("field, value", [
    ("lr", math.inf), ("lr", math.nan), ("lr", -1e-3),
    ("lr_decay", 0.0), ("lr_decay", 1.5), ("lr_decay", math.nan),
    ("lr_decay_every", 0), ("lr_decay_every", -1),
])
def test_bad_optimizer_settings_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(epochs=1, **{field: value})


def test_vocab_mismatch_rejected(corpus):
    records, vocab = corpus
    bad = small_config(vocab)
    bad.vocab_size += 1
    with pytest.raises(ConfigError, match="vocab"):
        train_decoder(records, vocab, bad, TrainConfig(epochs=1))


def test_feature_dim_mismatch_rejected(corpus):
    records, vocab = corpus
    with pytest.raises(ConfigError, match="dim"):
        train_decoder(records, vocab, small_config(vocab, feature_dim=9),
                      TrainConfig(epochs=1))


def test_empty_corpus_rejected(corpus):
    _, vocab = corpus
    with pytest.raises(ConfigError):
        train_decoder([], vocab, small_config(vocab), TrainConfig(epochs=1))


class TestTopicItems:
    def test_missing_topic_contributes_no_item(self):
        records, vocab = topic_disjoint_corpus(np.random.default_rng(42), n_records=3)
        # remove all form sentences from one record
        records[0].sentences = [
            e for e in records[0].sentences if e.masked.topic != TopicLabel.FORM
        ]
        items = build_training_items(records, vocab, "parallel")
        form_items = [i for i in items if i.topic == TopicLabel.FORM]
        assert len(form_items) == 2  # one per remaining record

    def test_unlabeled_sentences_excluded_from_topic_training(self):
        records, vocab = topic_disjoint_corpus(np.random.default_rng(43), n_records=2)
        for entry in records[0].sentences:
            entry.topic_labeled = False
        items = build_training_items(records, vocab, "parallel")
        assert all(i.topic is not None for i in items)
        assert len([i for i in items if i.topic == TopicLabel.CONTENT]) == 1

    def test_same_topic_sentences_appended(self):
        records, vocab = topic_disjoint_corpus(np.random.default_rng(44), n_records=1)
        # duplicate the content sentence; the training item must concatenate both
        rec = records[0]
        content = [e for e in rec.sentences if e.masked.topic == TopicLabel.CONTENT][0]
        rec.sentences.append(content)
        items = build_training_items([rec], vocab, "parallel")
        content_item = [i for i in items if i.topic == TopicLabel.CONTENT][0]
        inner = content_item.token_ids[1:-1]
        assert inner == vocab.encode(content.masked) * 2


@pytest.fixture(scope="module")
def topic_corpus():
    return topic_disjoint_corpus(np.random.default_rng(45), n_records=4)


class TestConditionalObjective:

    def test_joint_loss_at_least_mle(self, topic_corpus):
        records, vocab = topic_corpus
        config = small_config(vocab, variant="conditional")
        ckpt = train_conditional(records, vocab, config,
                                 TrainConfig(epochs=3, batch_size=2, seed=10))
        for entry in ckpt.history:
            assert entry["classifier_ce_per_item"] >= 0.0

    def test_requires_conditional_variant(self, topic_corpus):
        records, vocab = topic_corpus
        with pytest.raises(ConfigError):
            train_conditional(records, vocab, small_config(vocab, variant="baseline"),
                              TrainConfig(epochs=1))

    def test_determinism(self, topic_corpus):
        records, vocab = topic_corpus
        config = small_config(vocab, variant="conditional")
        tcfg = TrainConfig(epochs=2, batch_size=2, seed=11)
        a = train_conditional(records, vocab, config, tcfg)
        b = train_conditional(records, vocab, config, tcfg)
        assert a.history == b.history

    def test_the_variant_picks_the_objective(self, topic_corpus):
        """train_decoder trains a conditional config with its classifier,
        bit for bit as train_conditional does."""
        records, vocab = topic_corpus
        config = small_config(vocab, variant="conditional")
        tcfg = TrainConfig(epochs=2, batch_size=3, seed=12)
        a = train_decoder(records, vocab, config, tcfg)
        b = train_conditional(records, vocab, config, tcfg)
        assert a.history == b.history
        assert all("classifier_ce_per_item" in entry for entry in a.history)
        want = b.store.state_arrays()
        got = a.store.state_arrays()
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name
