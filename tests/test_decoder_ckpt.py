"""Decoder checkpoint round trips and digest verification."""

import numpy as np
import pytest

from synth import memorization_corpus

from artdesc.corpus import TopicLabel
from artdesc.decoder import (
    DecoderConfig,
    TrainConfig,
    greedy_decode,
    load_decoder_checkpoint,
    save_decoder_checkpoint,
    train_decoder,
)
from artdesc.errors import ConfigError
from artdesc.numcore.checkpoint import load_container, save_container


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    records, vocab = memorization_corpus(np.random.default_rng(50), n_records=3,
                                         min_len=3, max_len=4)
    config = DecoderConfig(variant="baseline", vocab_size=len(vocab), feature_dim=6,
                           hidden_size=12, embed_size=8, max_len=8)
    ckpt = train_decoder(records, vocab, config, TrainConfig(epochs=3, seed=13))
    path = tmp_path_factory.mktemp("ckpt") / "dec.ckpt"
    save_decoder_checkpoint(path, ckpt)
    return records, ckpt, path


def test_round_trip_preserves_generation(trained):
    records, ckpt, path = trained
    loaded = load_decoder_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.vocab.tokens == ckpt.vocab.tokens
    for record in records:
        a, sa = greedy_decode(ckpt, record.features, TopicLabel.CONTENT, 8)
        b, sb = greedy_decode(loaded, record.features, TopicLabel.CONTENT, 8)
        assert a == b and sa == sb


def test_round_trip_parameters_bit_exact(trained):
    _, ckpt, path = trained
    loaded = load_decoder_checkpoint(path)
    for name in ckpt.store.names():
        assert np.array_equal(loaded.store[name].data, ckpt.store[name].data)


def test_vocab_mismatch_fails_loudly(trained, tmp_path):
    """A vocab edited behind a valid trailer no longer matches its digest."""
    path = trained[2]
    meta, arrays, _ = load_container(path, "checkpoint")
    meta["vocab_tokens"][-1] = "zzz"
    tampered = tmp_path / "vocab.ckpt"
    save_container(tampered, meta, arrays)
    with pytest.raises(ConfigError, match="vocab digest mismatch"):
        load_decoder_checkpoint(tampered)


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "other.ckpt"
    save_container(path, {"kind": "filler", "config_digest": "d"}, {"w": np.zeros(2)})
    with pytest.raises(ConfigError, match="decoder"):
        load_decoder_checkpoint(path)


def test_tampered_meta_detected(trained, tmp_path):
    _, ckpt, path = trained
    meta, arrays, _ = load_container(path, "checkpoint")
    meta["config"]["hidden_size"] += 1
    tampered = tmp_path / "tampered.ckpt"
    save_container(tampered, meta, arrays)
    with pytest.raises(ConfigError, match="digest"):
        load_decoder_checkpoint(tampered)