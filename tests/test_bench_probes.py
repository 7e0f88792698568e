"""The traced benchmark run (perfbench/) wraps module attributes of the
package and times training epochs by the calls of ``scheduled_lr``. These
tests fail when a refactor moves one of those attach points."""

import sys
from pathlib import Path

import numpy as np
import pytest

from synth import entity_corpus

import artdesc.numcore as nc
import artdesc.pipeline as pl
from artdesc.corpus import FeatureGrid, TopicLabel
from artdesc.corpus.vocab import RESERVED, Vocab, build_vocab
from artdesc.decoder import DecoderConfig, TrainConfig, init_decoder_params, train_decoder
from artdesc.filler import FillerConfig, build_filler_vocab, train_filler
from artdesc.training import Checkpoint

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import probes  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    records, _ = entity_corpus(np.random.default_rng(17), n_records=3)
    return records


def _train(trainer, records, epochs):
    if trainer == "decoder":
        vocab = build_vocab([e.masked for r in records for e in r.sentences])
        config = DecoderConfig(variant="parallel", vocab_size=len(vocab), feature_dim=6,
                               hidden_size=6, embed_size=4, max_len=12)
        train_decoder(records, vocab, config, TrainConfig(epochs=epochs, batch_size=2, seed=1))
    else:
        vocab = build_filler_vocab(records)
        config = FillerConfig(vocab_size=len(vocab), hidden_size=4, embed_size=4,
                              type_embed_size=2)
        train_filler(records, vocab, config, epochs=epochs, batch_size=2, seed=1)


def test_probes_attach_and_see_training(corpus):
    tracer, _ = probes.install()  # raises if a patched attribute is gone
    try:
        _train("decoder", corpus, epochs=1)
        _train("filler", corpus, epochs=1)
    finally:
        tracer.restore()
    rows = tracer.by_name()
    for name in ("numcore.backward", "numcore.adam_step", "decoder.sequence_loss",
                 "filler.fill_pair_loss", "filler.slot_scores"):
        assert name in rows, f"the traced run no longer sees {name}"


@pytest.mark.parametrize("trainer", ["decoder", "filler"])
def test_scheduled_lr_called_once_per_epoch(corpus, monkeypatch, trainer):
    calls = []
    original = nc.scheduled_lr

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nc, "scheduled_lr", counted)
    _train(trainer, corpus, epochs=2)
    assert len(calls) == 2


def test_probes_see_beam_decode_and_its_greedy_fallback():
    vocab = Vocab(list(RESERVED) + ["a", "b", "c"])
    config = DecoderConfig(variant="baseline", vocab_size=len(vocab), feature_dim=3,
                           hidden_size=4, embed_size=3, max_len=4)
    ckpt = Checkpoint(config, vocab, init_decoder_params(config, np.random.default_rng(0)), 0)
    grid = FeatureGrid(np.random.default_rng(1).normal(size=(2, 3)))
    tracer, counts = probes.install()
    try:
        pl.generate(ckpt, grid, TopicLabel.CONTENT, mode="beam", beam_size=3)
    finally:
        tracer.restore()
    # decoder.greedy_fallback.share is the greedy time under beam_decode
    assert len(tracer.durations("decoder.beam_decode")) == 1
    assert len(tracer.durations("decoder.greedy_decode", under="decoder.beam_decode")) == 1
    assert counts.tokens_generated >= 1
