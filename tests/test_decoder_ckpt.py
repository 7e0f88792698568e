"""Decoder checkpoint round trips and digest verification."""

import hashlib

import numpy as np
import pytest

from synth import memorization_corpus

from artdesc.corpus import TopicLabel
from artdesc.decoder import (
    DecoderConfig,
    TrainConfig,
    greedy_decode,
    init_decoder_params,
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


# SHA-256 of each variant's initial parameters, names and bytes in store
# order, for the DecoderConfig of ``test_initial_parameters_keep_their_bits``
INIT_DIGESTS = {
    "baseline": "94d79434a6e328df0e79d4da1e79b89469f6b390492fce1d56257000a67c6ad7",
    "parallel": "a01039b80077ccf132111555113c32ee9b72eb1bf96646144df2fa79d6f7cd58",
    "conditional": "7d4f19dbf4bc5ff6b71dcf19e39109474ed5fa9b29fee3b36a3a41726481a499",
}


@pytest.mark.parametrize("variant", sorted(INIT_DIGESTS))
def test_initial_parameters_keep_their_bits(variant):
    """The parameters, their order and the rng draws that fill them
    stay as they are, so a seed trains the same checkpoint."""
    config = DecoderConfig(variant=variant, vocab_size=12, feature_dim=4, hidden_size=6,
                           embed_size=5, topic_embed_size=3, max_len=8)
    digest = hashlib.sha256()
    for name, array in init_decoder_params(config,
                                           np.random.default_rng(0)).state_arrays().items():
        digest.update(name.encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[variant]


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