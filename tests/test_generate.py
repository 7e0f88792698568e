"""Greedy/beam decoding and description composition."""

import logging

import numpy as np
import pytest

from synth import memorization_corpus, random_grid

import artdesc.numcore as nc
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
from artdesc.decoder.model import (
    attend,
    decode_logits,
    init_state,
    sub_prefix,
    topic_embedding_index,
)
from artdesc.errors import ConfigError
from artdesc.training import Checkpoint


def random_checkpoint(seed, vocab_size=5, feature_dim=3, hidden=4, embed=3, max_len=3,
                      scale=1.0, variant="baseline"):
    """Untrained decoder with random weights over a tiny vocab."""
    extra = [f"t{i}" for i in range(vocab_size - len(RESERVED))]
    vocab = Vocab(list(RESERVED) + extra)
    config = DecoderConfig(variant=variant, vocab_size=vocab_size,
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


def _tape_step(params, prefix, topic_idx, grid, state, prev):
    z, _ = attend(grid, state[0], params, prefix)
    state, logits = decode_logits(z, state, prev, params, prefix, topic_idx)
    return state, _log_softmax(logits.data)


def tape_greedy_decode(ckpt, grid, topic, max_len):
    """Oracle: greedy decoding through the autodiff tape, one step per token."""
    params = ckpt.store
    prefix = sub_prefix(ckpt.config.variant, topic)
    topic_idx = topic_embedding_index(ckpt.config.variant, topic)
    end = ckpt.vocab.end
    state = init_state(grid, params, prefix)
    prev = ckpt.vocab.start
    tokens = []
    score = 0.0
    for step in range(max_len):
        state, logp = _tape_step(params, prefix, topic_idx, grid, state, prev)
        if step == 0:
            masked = logp.copy()
            masked[end] = -np.inf
            nxt = int(np.argmax(masked))
        else:
            nxt = int(np.argmax(logp))
        score += float(logp[nxt])
        if nxt == end:
            return tokens, score
        tokens.append(nxt)
        prev = nxt
    return tokens, score


def tape_beam_decode(ckpt, grid, topic, max_len, beam_size):
    """Oracle: beam search through the autodiff tape that steps every
    hypothesis, sorts all beam x V candidates and runs a separate greedy
    rollout as its fallback."""
    params = ckpt.store
    prefix = sub_prefix(ckpt.config.variant, topic)
    topic_idx = topic_embedding_index(ckpt.config.variant, topic)
    vocab = ckpt.vocab
    end = vocab.end

    def sort_key(entry):
        return (-entry[0], len(entry[1]), entry[1])

    beam = [(0.0, (), init_state(grid, params, prefix), vocab.start, False)]
    for step in range(max_len):
        if all(done for _, _, _, _, done in beam):
            break
        candidates = []
        for score, tokens, state, prev, done in beam:
            if done:
                candidates.append((score, tokens, None, prev, True))
                continue
            new_state, logp = _tape_step(params, prefix, topic_idx, grid, state, prev)
            for w in range(len(vocab)):
                s = score + float(logp[w])
                if w == end:
                    if step > 0:
                        candidates.append((s, tokens, None, w, True))
                else:
                    candidates.append((s, tokens + (w,), new_state, w, False))
        candidates.sort(key=sort_key)
        beam = candidates[:beam_size]
    finished = [(score, tokens) for score, tokens, _, _, _ in beam]
    g_tokens, g_score = tape_greedy_decode(ckpt, grid, topic, max_len)
    finished.append((g_score, tuple(g_tokens)))
    best = min(finished, key=sort_key)
    return list(best[1]), best[0]


def _oracle_cases(variant):
    """Random checkpoints of the variant, one with all weights zero (every
    candidate ties, so only the (length, tokens) tie-break decides), and
    every topic."""
    for seed in range(4):
        ckpt, grid = random_checkpoint(seed, vocab_size=8, max_len=4, variant=variant)
        if seed == 3:
            for name in ckpt.store.names():
                ckpt.store[name].data[...] = 0.0
        for topic in TopicLabel:
            yield ckpt, grid, topic


class TestTapeOracle:
    @pytest.mark.parametrize("variant", ["baseline", "parallel", "conditional"])
    def test_greedy_matches_tape(self, variant):
        for ckpt, grid, topic in _oracle_cases(variant):
            assert greedy_decode(ckpt, grid, topic, 4) == tape_greedy_decode(ckpt, grid, topic, 4)

    @pytest.mark.parametrize("beam_size", [1, 2, 3, 5, 12])
    @pytest.mark.parametrize("variant", ["baseline", "parallel", "conditional"])
    def test_beam_matches_tape(self, variant, beam_size):
        for ckpt, grid, topic in _oracle_cases(variant):
            got = beam_decode(ckpt, grid, topic, 4, beam_size)
            assert got == tape_beam_decode(ckpt, grid, topic, 4, beam_size)

    def test_decoding_builds_no_tape_node(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decoding called a tape op")

        for op in ("mlp_attention", "lstm_step", "affine"):
            monkeypatch.setattr(nc, op, refuse)
        for variant in ("baseline", "parallel", "conditional"):
            ckpt, grid = random_checkpoint(5, variant=variant)
            for mode in ("greedy", "beam"):
                assert generate(ckpt, grid, TopicLabel.FORM, mode=mode).tokens

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_logits_raise(self):
        ckpt, _ = random_checkpoint(2)
        grid = random_grid(np.random.default_rng(2), n_loc=2, feat=3)
        grid.values[...] = 1.0
        out_w = ckpt.store["dec.out.w"].data
        out_w[...] = 0.0
        out_w[0, -3:] = 1e308  # the context columns; the context sums to 3
        for decode in (tape_greedy_decode, greedy_decode):
            with pytest.raises(FloatingPointError):
                decode(ckpt, grid, TopicLabel.CONTENT, 3)
        with pytest.raises(FloatingPointError):
            beam_decode(ckpt, grid, TopicLabel.CONTENT, 3, 5)


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
