"""Greedy and beam decoding, and the topic order of a composed description."""

import copy
import importlib
import tracemalloc

import numpy as np
import pytest

from synth import memorization_corpus, random_grid
from tape_oracle import attend, decode_logits, init_state

import artdesc.numcore as nc
from artdesc.corpus import (
    FeatureGrid,
    TopicLabel,
    load_feature_grid,
    save_feature_grid,
    tokenize,
)
from artdesc.corpus.vocab import RESERVED, Vocab
from artdesc.decoder import (
    DecoderConfig,
    TrainConfig,
    beam_decode,
    generate,
    greedy_decode,
    init_decoder_params,
    train_decoder,
)
from artdesc.decoder.model import DecodeStep, decoder_input, matvec_rows
from artdesc.errors import ConfigError
from artdesc.numcore import log_softmax_np, tensor
from artdesc.pipeline import Pipeline, PipelineConfig, report_to_json
from artdesc.training import Checkpoint

# the module: the package exports its `generate` function under the same name
generate_mod = importlib.import_module("artdesc.decoder.generate")


def random_checkpoint(seed, vocab_size=5, feature_dim=3, hidden=4, embed=3, max_len=3,
                      scale=1.0, variant="baseline", n_loc=2):
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
    grid = random_grid(rng, n_loc=n_loc, feat=feature_dim)
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
        logp = log_softmax_np(logits.data)
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
    return state, log_softmax_np(logits.data)


def tape_greedy_decode(ckpt, grid, topic, max_len):
    """Oracle: greedy decoding through the autodiff tape, one step per token."""
    params = ckpt.store
    prefix, topic_idx = decoder_input(ckpt.config.variant, topic)
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
        elif logp[end] == logp.max():
            nxt = end  # on a tie the shorter sentence wins
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
    prefix, topic_idx = decoder_input(ckpt.config.variant, topic)
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

    @pytest.mark.parametrize("feature_dim", [513, 1027])
    def test_decoding_matches_tape_across_context_blocks(self, feature_dim):
        """Grids wider than one context block, with a ragged rest: a 513-wide
        grid is read in place whole, a 1027-wide one as two blocks and a
        three-column rest."""
        for seed in range(2):
            ckpt, grid = random_checkpoint(seed, vocab_size=8, feature_dim=feature_dim,
                                           max_len=4, scale=0.1, n_loc=49)
            for topic in (TopicLabel.CONTENT, TopicLabel.CONTEXT):
                want = tape_greedy_decode(ckpt, grid, topic, 4)
                assert greedy_decode(ckpt, grid, topic, 4) == want
                for beam_size in (1, 3, 5):
                    want = tape_beam_decode(ckpt, grid, topic, 4, beam_size)
                    assert beam_decode(ckpt, grid, topic, 4, beam_size) == want

    def test_decoding_builds_no_tape_node(self, monkeypatch):
        """Every tape op makes its node through ``numcore.tensor._node``;
        decoding never reaches it."""
        def refuse(*args, **kwargs):
            raise AssertionError("decoding built a tape node")

        cases = [random_checkpoint(5, variant=variant)
                 for variant in ("baseline", "parallel", "conditional")]
        monkeypatch.setattr(tensor, "_node", refuse)
        with pytest.raises(AssertionError, match="tape node"):  # the patch is live
            nc.tanh_t(nc.constant(np.zeros(1)))
        for ckpt, grid in cases:
            for beam_size in (1, 5):
                assert generate(ckpt, grid, TopicLabel.FORM, beam_size).tokens

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
        """Random checkpoints, and one with all weights zero, where </s>
        ties every other token after the first step."""
        cases = [random_checkpoint(seed) for seed in range(31)]
        for name in cases[-1][0].store.names():
            cases[-1][0].store[name].data[...] = 0.0
        for ckpt, grid in cases:
            g_tokens, g_score = greedy_decode(ckpt, grid, TopicLabel.CONTENT, 3)
            b_tokens, b_score = beam_decode(ckpt, grid, TopicLabel.CONTENT, 3, beam_size=1)
            assert b_tokens == g_tokens
            assert b_score == g_score

    def test_a_beam_of_one_searches_once(self, monkeypatch):
        """A beam of one is one search; a wider beam adds one search of
        width one, its greedy fallback."""
        widths, search = [], generate_mod._search

        def counted(next_logps, end, max_len, beam_size):
            widths.append(beam_size)
            return search(next_logps, end, max_len, beam_size)

        monkeypatch.setattr(generate_mod, "_search", counted)
        ckpt, grid = random_checkpoint(3)
        for beam_size, want in ((1, [1]), (5, [5, 1])):
            widths.clear()
            generate(ckpt, grid, TopicLabel.CONTENT, beam_size)
            assert widths == want, beam_size

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
        a = generate(ckpt, grid, TopicLabel.CONTENT, beam_size=5)
        b = generate(ckpt, grid, TopicLabel.CONTENT, beam_size=5)
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
            sentence = generate(ckpt, record.features, TopicLabel.CONTENT, beam_size=5)
            assert sentence.surfaces() == record.sentences[0].masked.surfaces()


def _blas_build() -> str:
    return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"])


@pytest.mark.parametrize("feature_dim", [2048, 1027, 513])
def test_stacked_products_equal_per_row_gemvs(feature_dim):
    """The stacked products of a decode step have, row by row, the bits of
    the per-row GEMVs ``w @ x`` and ``alpha @ grid`` of the tape path, at the
    reference grid (196 x 2048) and ragged widths. The grid side of each
    product is a contiguous copy of the grid, so the step's reads of the
    padded grid in place are held to the unpadded layout's bits; the
    attention projection ``grid @ w_v.T`` is too. A BLAS that breaks this
    breaks decoding's bit-equality with the tape oracle; the fix is a per-row
    loop, not a tolerance."""
    rng = np.random.default_rng(feature_dim)
    config = DecoderConfig(variant="baseline", vocab_size=40, feature_dim=feature_dim,
                           hidden_size=16, embed_size=16, max_len=10)
    grid = FeatureGrid(rng.normal(size=(196, feature_dim)))
    params = init_decoder_params(config, rng)
    step = DecodeStep(grid, params)
    flat = np.ascontiguousarray(grid.values)
    assert np.array_equal(step.proj, flat @ params["dec.att.w_v"].data.T)
    for rows in range(1, 16):
        alpha = rng.random((rows, 196))
        alpha /= alpha.sum(axis=1, keepdims=True)
        want = np.stack([a @ flat for a in alpha])
        assert np.array_equal(step.context(alpha), want), (
            f"context at {rows} rows differs from alpha @ grid; BLAS: {_blas_build()}")
        for w in (step.att[0], step.lstm[0], step.out[0]):
            x = rng.normal(size=(rows, w.shape[1]))
            want = np.stack([w @ row for row in x])
            assert np.array_equal(matvec_rows(w, x), want), (
                f"{w.shape} product at {rows} rows differs from w @ x; BLAS: {_blas_build()}")


@pytest.mark.parametrize("feature_dim", [513, 1027, 2048])
@pytest.mark.parametrize("variant", ["baseline", "conditional"])
def test_decode_step_matches_tape_row_by_row(variant, feature_dim):
    """Each row of a decode step has the bits of the tape's ``attend`` and
    ``decode_logits`` from the same state and token: its context, its
    states and its logits. The widths cover a grid read in place whole
    (513), blocks with a ragged rest (1027) and the reference grid (2048).
    The tape reads a contiguous copy of the grid, the step the padded grid
    in place."""
    ckpt, grid = random_checkpoint(feature_dim, vocab_size=8, feature_dim=feature_dim,
                                   scale=0.1, variant=variant, n_loc=196)
    flat = copy.copy(grid)
    flat.values = np.ascontiguousarray(grid.values)
    topic = TopicLabel.CONTEXT
    prefix, topic_idx = decoder_input(variant, topic)
    step = DecodeStep(grid, ckpt.store, prefix, topic_idx)
    rng = np.random.default_rng(feature_dim)
    for rows in (1, 2, 5):
        h_prev, c_prev = rng.uniform(-1.0, 1.0, size=(2, rows, ckpt.config.hidden_size))
        y_prev = rng.integers(0, len(ckpt.vocab), size=rows).tolist()
        got = step(h_prev, c_prev, y_prev)
        alphas, contexts = [], []
        for row in range(rows):
            h_row = nc.constant(h_prev[row])
            z, alpha = attend(flat, h_row, ckpt.store, prefix)
            (h, c), logits = decode_logits(z, (h_row, nc.constant(c_prev[row])), y_prev[row],
                                           ckpt.store, prefix, topic_idx)
            for name, have, want in zip(("h", "c", "logits"), got, (h, c, logits)):
                assert np.array_equal(have[row], want.data), (name, rows, row)
            alphas.append(alpha.data)
            contexts.append(z.data)
        assert np.array_equal(step.context(np.stack(alphas)), np.stack(contexts)), rows


class TestEarlyStop:
    """The beam stops once its best finished hypothesis scores strictly
    more than every live one."""

    @staticmethod
    def _beam_steps(monkeypatch, ckpt, grid, beam_size):
        """beam_decode's result and the DecodeStep calls it made before its
        greedy fallback."""
        calls, steps = [], []
        step_call, greedy = DecodeStep.__call__, generate_mod.greedy_decode

        def counted(self, *args):
            calls.append(args)
            return step_call(self, *args)

        def fallback(*args, **kwargs):
            steps.append(len(calls))
            return greedy(*args, **kwargs)

        monkeypatch.setattr(DecodeStep, "__call__", counted)
        monkeypatch.setattr(generate_mod, "greedy_decode", fallback)
        got = beam_decode(ckpt, grid, TopicLabel.CONTENT, ckpt.config.max_len, beam_size)
        return got, steps[0]

    def test_stops_once_a_finished_hypothesis_outranks_every_live_one(self, monkeypatch):
        # </s> all but certain after the first token: after two steps the beam
        # holds every one-token sentence, finished, and live ones far below
        ckpt, grid = random_checkpoint(4, vocab_size=8, max_len=6)
        ckpt.store["dec.out.b"].data[ckpt.vocab.end] = 30.0
        got, steps = self._beam_steps(monkeypatch, ckpt, grid, beam_size=12)
        assert steps == 2 < ckpt.config.max_len
        assert got == tape_beam_decode(ckpt, grid, TopicLabel.CONTENT, 6, 12)

    def test_a_tie_does_not_stop_the_beam(self, monkeypatch):
        # all weights zero: every token has log-prob -log 8, so after two
        # steps the seven finished one-token sentences tie the five live
        # two-token ones; the beam steps those, and then holds no live one
        ckpt, grid = random_checkpoint(5, vocab_size=8, max_len=4)
        for name in ckpt.store.names():
            ckpt.store[name].data[...] = 0.0
        got, steps = self._beam_steps(monkeypatch, ckpt, grid, beam_size=12)
        assert steps == 3
        assert got == tape_beam_decode(ckpt, grid, TopicLabel.CONTENT, 4, 12)


class TestGridInPlace:
    """A decode reads its grid where the grid is; it makes no copy."""

    def test_decode_step_blocks_are_views_of_the_grid(self):
        ckpt, _ = random_checkpoint(6, feature_dim=2048, scale=0.1)
        grid = random_grid(np.random.default_rng(6), n_loc=196, feat=2048)
        step = DecodeStep(grid, ckpt.store)
        assert step.blocks.shape == (4, 196, 512)
        assert np.shares_memory(step.blocks, grid.values)

    def test_three_topics_decode_one_grid_without_a_copy(self, tmp_path):
        """Describing a painting under its three topics peaks less than half
        a grid above the loaded 196 x 2048 grid."""
        ckpt, _ = random_checkpoint(7, vocab_size=8, feature_dim=2048, hidden=8, max_len=4,
                                    scale=0.1, variant="parallel")
        path = tmp_path / "p.fgrd"
        save_feature_grid(path, np.random.default_rng(7).normal(size=(196, 2048)))
        grid = load_feature_grid(path)
        generate(ckpt, grid, TopicLabel.CONTENT, 5)  # first-use allocations, unmeasured
        tracemalloc.start()
        try:
            for topic in TopicLabel:
                generate(ckpt, grid, topic, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values.nbytes / 2


class TestDecodeCap:
    """A beam whose decode working set would exceed ``DECODE_BYTES_CAP`` is
    refused before anything is built."""

    @staticmethod
    def _need(ckpt, grid, beam_size):
        config = ckpt.config
        return 8 * beam_size * (grid.n_locations * config.hidden_size
                                + config.max_len * (2 * config.hidden_size + config.vocab_size))

    def test_a_beam_over_the_cap_is_refused_before_a_decode_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a DecodeStep was built")

        ckpt, _ = random_checkpoint(1)
        grid = random_grid(np.random.default_rng(1), n_loc=196, feat=3)
        monkeypatch.setattr(DecodeStep, "__init__", refuse)
        with pytest.raises(ConfigError) as exc:
            generate(ckpt, grid, TopicLabel.CONTENT, beam_size=10**6)
        message = str(exc.value)
        assert "beam_size 1000000 " in message
        assert str(self._need(ckpt, grid, 10**6)) in message
        assert str(generate_mod.DECODE_BYTES_CAP) in message

    def test_a_beam_at_the_cap_decodes(self, monkeypatch):
        ckpt, grid = random_checkpoint(2)
        monkeypatch.setattr(generate_mod, "DECODE_BYTES_CAP", self._need(ckpt, grid, 3))
        assert generate(ckpt, grid, TopicLabel.CONTENT, 3).tokens
        with pytest.raises(ConfigError, match="beam_size 4 "):
            generate(ckpt, grid, TopicLabel.CONTENT, 4)


class TestGenerateValidation:
    def test_bad_beam_size(self):
        ckpt, grid = random_checkpoint(1)
        with pytest.raises(ConfigError):
            generate(ckpt, grid, TopicLabel.CONTENT, beam_size=0)

    def test_bad_topic(self):
        ckpt, grid = random_checkpoint(1)
        with pytest.raises(ConfigError):
            generate(ckpt, grid, "content", beam_size=5)

    def test_grid_mismatch(self):
        ckpt, _ = random_checkpoint(1)
        with pytest.raises(ConfigError, match="feature dim"):
            generate(ckpt, random_grid(np.random.default_rng(0), feat=9), TopicLabel.CONTENT,
                     beam_size=5)

    def test_output_nonempty(self):
        for seed in range(20):
            ckpt, grid = random_checkpoint(seed)
            sentence = generate(ckpt, grid, TopicLabel.FORM, beam_size=1)
            assert len(sentence.tokens) >= 1


class TestCompose:
    """Pipeline.describe composes the requested topics in the enum's order."""

    def test_canonical_order(self, world):
        _, records, config, _ = world
        record = records[0]
        report = Pipeline(PipelineConfig(**config)).describe(
            record, topics=(TopicLabel.CONTEXT, TopicLabel.CONTENT))
        assert list(report["sentences"]) == ["content", "context"]
        assert report["description_tokens"] == [
            token for entry in record.sentences
            if entry.masked.topic in (TopicLabel.CONTENT, TopicLabel.CONTEXT)
            for token in tokenize(entry.raw)]

    def test_insertion_order_irrelevant(self, world):
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        forward = pipeline.describe(records[0], topics=tuple(TopicLabel))
        backward = pipeline.describe(records[0], topics=tuple(reversed(TopicLabel)))
        assert list(forward["sentences"]) == ["content", "form", "context"]
        assert report_to_json(forward) == report_to_json(backward)
