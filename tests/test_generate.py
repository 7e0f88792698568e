"""Greedy/beam decoding and description composition."""

import logging

import numpy as np
import pytest

from synth import memorization_corpus, random_grid

from artdesc.corpus import MaskedSentence, TopicLabel, Word
from artdesc.corpus.vocab import RESERVED, Vocab
from artdesc.decoder import (
    DecoderConfig,
    TrainConfig,
    beam_decode,
    compose_description,
    generate,
    greedy_decode,
    init_decoder_params,
    train_decoder,
)
from artdesc.decoder.generate import _log_softmax
from artdesc.decoder.model import attend, decode_logits, init_state
from artdesc.errors import ConfigError
from artdesc.training import Checkpoint


def random_checkpoint(seed, vocab_size=5, feature_dim=3, hidden=4, embed=3, max_len=3,
                      scale=1.0):
    """Untrained decoder with random weights over a tiny vocab."""
    extra = [f"t{i}" for i in range(vocab_size - len(RESERVED))]
    vocab = Vocab(list(RESERVED) + extra)
    config = DecoderConfig(variant="baseline", vocab_size=vocab_size,
                           feature_dim=feature_dim, hidden_size=hidden,
                           embed_size=embed, max_len=max_len)
    rng = np.random.default_rng(seed)
    store = init_decoder_params(config, rng)
    for name in store.names():  # spread the logits so rankings are non-trivial
        store[name].data *= scale / 0.08
    grid = random_grid(rng, n_loc=2, feat=feature_dim)
    return Checkpoint(config, vocab, store, seed, []), grid


def exhaustive_argmax(ckpt, grid, topic, max_len):
    """Enumerate every legal output sequence and pick the best by the beam's
    comparison key. Scores accumulate left-to-right like the beam does."""
    vocab = ckpt.vocab
    end = vocab.end
    results = []

    def expand(state, prev, tokens, score):
        depth = len(tokens)
        if depth == max_len:
            results.append((score, tokens))
            return
        new_state, logp = None, None
        z, _ = attend(grid, state[0], ckpt.store, "dec")
        new_state, logits = decode_logits(z, state, prev, ckpt.store, "dec")
        logp = _log_softmax(logits.data)
        for w in range(len(vocab)):
            s = score + float(logp[w])
            if w == end:
                if depth > 0:
                    results.append((s, tokens))
            else:
                expand(new_state, w, tokens + (w,), s)

    expand(init_state(grid, ckpt.store, "dec"), vocab.start, (), 0.0)
    return min(results, key=lambda e: (-e[0], len(e[1]), e[1]))


class TestBeam:
    def test_beam_one_equals_greedy(self):
        for seed in range(30):
            ckpt, grid = random_checkpoint(seed)
            g_tokens, g_score = greedy_decode(ckpt, grid, TopicLabel.CONTENT, 3)
            b_tokens, b_score = beam_decode(ckpt, grid, TopicLabel.CONTENT, 3, beam_size=1)
            assert b_tokens == g_tokens
            assert b_score == g_score

    def test_beam_never_worse_than_greedy(self):
        for seed in range(30):
            ckpt, grid = random_checkpoint(seed)
            _, g_score = greedy_decode(ckpt, grid, TopicLabel.CONTENT, 3)
            _, b_score = beam_decode(ckpt, grid, TopicLabel.CONTENT, 3, beam_size=5)
            assert b_score >= g_score

    def test_large_beam_equals_exhaustive(self):
        for seed in range(10):
            ckpt, grid = random_checkpoint(seed)
            want_score, want_tokens = exhaustive_argmax(ckpt, grid, TopicLabel.CONTENT, 3)
            got_tokens, got_score = beam_decode(ckpt, grid, TopicLabel.CONTENT, 3,
                                                beam_size=200)
            assert tuple(got_tokens) == want_tokens
            assert got_score == want_score

    def test_generation_deterministic(self):
        ckpt, grid = random_checkpoint(99)
        a = generate(ckpt, grid, TopicLabel.CONTENT, mode="beam", beam_size=5)
        b = generate(ckpt, grid, TopicLabel.CONTENT, mode="beam", beam_size=5)
        assert a.surfaces() == b.surfaces()

    def test_trained_model_beam_reproduces_sentence(self):
        records, vocab = memorization_corpus(np.random.default_rng(46), n_records=3,
                                             min_len=3, max_len=4)
        config = DecoderConfig(variant="baseline", vocab_size=len(vocab), feature_dim=6,
                               hidden_size=32, embed_size=24, max_len=8)
        ckpt = train_decoder(records, vocab, config,
                             TrainConfig(epochs=220, lr=5e-3, lr_decay_every=None,
                                         batch_size=1, seed=12))
        for record in records:
            sentence = generate(ckpt, record.features, TopicLabel.CONTENT,
                                mode="beam", beam_size=5)
            assert sentence.surfaces() == record.sentences[0].masked.surfaces()


class TestGenerateValidation:
    def test_bad_mode(self):
        ckpt, grid = random_checkpoint(1)
        with pytest.raises(ConfigError):
            generate(ckpt, grid, TopicLabel.CONTENT, mode="sample")

    def test_bad_beam_size(self):
        ckpt, grid = random_checkpoint(1)
        with pytest.raises(ConfigError):
            generate(ckpt, grid, TopicLabel.CONTENT, beam_size=0)

    def test_bad_topic(self):
        ckpt, grid = random_checkpoint(1)
        with pytest.raises(ConfigError):
            generate(ckpt, grid, "content")

    def test_grid_mismatch(self):
        ckpt, _ = random_checkpoint(1)
        with pytest.raises(ConfigError, match="feature dim"):
            generate(ckpt, random_grid(np.random.default_rng(0), feat=9), TopicLabel.CONTENT)

    def test_output_nonempty(self):
        for seed in range(20):
            ckpt, grid = random_checkpoint(seed)
            sentence = generate(ckpt, grid, TopicLabel.FORM, mode="greedy")
            assert len(sentence.tokens) >= 1


class TestCompose:
    def _sent(self, word, topic):
        return MaskedSentence([Word(word)], topic)

    def test_canonical_order(self):
        m = {
            TopicLabel.CONTEXT: self._sent("c", TopicLabel.CONTEXT),
            TopicLabel.CONTENT: self._sent("a", TopicLabel.CONTENT),
            TopicLabel.FORM: self._sent("b", TopicLabel.FORM),
        }
        out = compose_description(m)
        assert [s.topic for s in out] == [TopicLabel.CONTENT, TopicLabel.FORM, TopicLabel.CONTEXT]

    def test_insertion_order_irrelevant(self):
        a = {t: self._sent(t.name.lower(), t) for t in TopicLabel}
        b = dict(reversed(list(a.items())))
        assert [s.surfaces() for s in compose_description(a)] == [
            s.surfaces() for s in compose_description(b)
        ]

    def test_missing_topic_warns_and_omits(self, caplog):
        m = {TopicLabel.CONTENT: self._sent("a", TopicLabel.CONTENT)}
        with caplog.at_level(logging.WARNING):
            out = compose_description(m)
        assert len(out) == 1
        assert "form" in caplog.text and "context" in caplog.text
