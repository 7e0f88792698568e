"""Decoder forward contracts: attention, state init, decode steps."""

import numpy as np
import pytest
from tape_oracle import attend, decode_step
from tape_oracle import init_state as tape_init_state

from artdesc import numcore as nc
from artdesc.corpus import FeatureGrid, TopicLabel
from artdesc.decoder import (
    DecoderConfig,
    decoder_input,
    init_decoder_params,
    init_state,
    sequence_loss,
)
from artdesc.errors import ConfigError


def make(variant="baseline", vocab_size=12, feature_dim=4, hidden=6, embed=5, seed=30):
    config = DecoderConfig(
        variant=variant, vocab_size=vocab_size, feature_dim=feature_dim,
        hidden_size=hidden, embed_size=embed, topic_embed_size=3, max_len=8,
    )
    store = init_decoder_params(config, np.random.default_rng(seed))
    return config, store


class TestDecoderInput:
    def test_each_topic_reads_its_input(self):
        for topic in TopicLabel:
            assert decoder_input("baseline", topic) == ("dec", None)
            assert decoder_input("parallel", topic) == (topic.name.lower(), None)
            assert decoder_input("conditional", topic) == ("dec", int(topic))
        assert decoder_input("baseline", None) == ("dec", None)


class TestAttend:
    def test_single_location_returns_row(self):
        config, store = make()
        grid = FeatureGrid(np.random.default_rng(0).normal(size=(1, 4)))
        h = nc.constant(np.zeros(6))
        z, alpha = attend(grid, h, store)
        assert np.allclose(alpha.data, [1.0])
        assert np.allclose(z.data, grid.values[0])

    def test_identical_rows(self):
        config, store = make()
        row = np.array([0.3, -1.2, 0.5, 2.0])
        grid = FeatureGrid(np.tile(row, (5, 1)))
        z, alpha = attend(grid, nc.constant(np.ones(6)), store)
        assert abs(alpha.data.sum() - 1.0) < 1e-9
        assert np.max(np.abs(z.data - row)) < 1e-12

    def test_weighted_sum_oracle_random(self):
        rng = np.random.default_rng(31)
        config, store = make()
        for _ in range(100):
            grid = FeatureGrid(rng.normal(size=(int(rng.integers(1, 7)), 4)))
            z, alpha = attend(grid, nc.constant(rng.normal(size=6)), store)
            expect = sum(alpha.data[i] * grid.values[i] for i in range(grid.n_locations))
            assert np.max(np.abs(z.data - expect)) < 1e-10
            assert abs(alpha.data.sum() - 1.0) < 1e-9

    def test_feature_dim_mismatch(self):
        config, store = make()
        grid = FeatureGrid(np.zeros((3, 7)))
        with pytest.raises(Exception, match="att.w_v"):
            attend(grid, nc.constant(np.zeros(6)), store)


class TestInitState:
    def test_zero_grid_zero_weights(self):
        config, _ = make()
        store = nc.ParamStore()
        for suffix, shape in (
            ("init.w_h", (6, 4)), ("init.b_h", (6,)), ("init.w_c", (6, 4)), ("init.b_c", (6,)),
        ):
            store.add(f"dec.{suffix}", np.zeros(shape))
        h0, c0 = init_state(np.zeros((1, 3, 4)), store)
        assert np.allclose(h0.data, 0.0) and np.allclose(c0.data, 0.0)

    def test_outputs_bounded_by_tanh(self):
        rng = np.random.default_rng(32)
        config, store = make()
        for _ in range(50):
            grid = FeatureGrid(rng.normal(size=(4, 4)) * 10)
            h0, c0 = init_state(grid.values[None], store)
            assert np.all(np.abs(h0.data) < 1.0) and np.all(np.abs(c0.data) < 1.0)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(33)
        config, store = make()
        grids = rng.normal(size=(2, 5, 4))
        h0, c0 = init_state(grids, store)
        assert h0.shape == c0.shape == (2, 6)
        for row, grid in enumerate(grids):
            vbar = grid.mean(axis=0)
            want_h = np.tanh(store["dec.init.w_h"].data @ vbar + store["dec.init.b_h"].data)
            want_c = np.tanh(store["dec.init.w_c"].data @ vbar + store["dec.init.b_c"].data)
            assert np.max(np.abs(h0.data[row] - want_h)) < 1e-12
            assert np.max(np.abs(c0.data[row] - want_c)) < 1e-12


class TestDecodeStep:
    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(34)
        config, store = make()
        grid = FeatureGrid(rng.normal(size=(3, 4)))
        state = tape_init_state(grid, store)
        for prev in range(min(12, config.vocab_size)):
            z, _ = attend(grid, state[0], store)
            state, dist = decode_step(z, state, prev, store)
            assert dist.shape == (config.vocab_size,)
            assert abs(dist.data.sum() - 1.0) < 1e-9

    def test_matches_equation_oracle(self):
        # One step recomputed from scratch with plain numpy.
        rng = np.random.default_rng(35)
        config, store = make()
        grid = FeatureGrid(rng.normal(size=(3, 4)))
        state = tape_init_state(grid, store)
        z, alpha = attend(grid, state[0], store)
        (h, c), dist = decode_step(z, state, 2, store)

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        vbar = grid.values.mean(axis=0)
        h0 = np.tanh(store["dec.init.w_h"].data @ vbar + store["dec.init.b_h"].data)
        c0 = np.tanh(store["dec.init.w_c"].data @ vbar + store["dec.init.b_c"].data)
        pre = grid.values @ store["dec.att.w_v"].data.T + (
            store["dec.att.w_h"].data @ h0 + store["dec.att.b1"].data
        )
        scores = np.tanh(pre) @ store["dec.att.w2"].data + store["dec.att.b2"].data[0]
        e = np.exp(scores - scores.max())
        a = e / e.sum()
        z_ref = a @ grid.values
        x = np.concatenate([z_ref, store["dec.embed"].data[2]])
        u = store["dec.lstm.w"].data @ np.concatenate([x, h0]) + store["dec.lstm.b"].data
        hid = 6
        i, f, o, g = (
            sigmoid(u[:hid]), sigmoid(u[hid:2*hid]), sigmoid(u[2*hid:3*hid]), np.tanh(u[3*hid:])
        )
        c_ref = f * c0 + i * g
        h_ref = o * np.tanh(c_ref)
        logits_ref = store["dec.out.w"].data @ np.concatenate([h_ref, z_ref]) + store["dec.out.b"].data
        er = np.exp(logits_ref - logits_ref.max())
        dist_ref = er / er.sum()
        assert np.max(np.abs(h.data - h_ref)) < 1e-10
        assert np.max(np.abs(c.data - c_ref)) < 1e-10
        assert np.max(np.abs(dist.data - dist_ref)) < 1e-10

    def test_conditional_topics_differ(self):
        rng = np.random.default_rng(36)
        config, store = make(variant="conditional")
        grid = FeatureGrid(rng.normal(size=(3, 4)))
        state = tape_init_state(grid, store)
        z, _ = attend(grid, state[0], store)
        _, d_content = decode_step(z, state, 1, store, topic_idx=int(TopicLabel.CONTENT))
        _, d_form = decode_step(z, state, 1, store, topic_idx=int(TopicLabel.FORM))
        assert not np.allclose(d_content.data, d_form.data)

    def test_conditional_identical_topic_rows_equal(self):
        rng = np.random.default_rng(37)
        config, store = make(variant="conditional")
        store["dec.topic.embed"].data[1] = store["dec.topic.embed"].data[0]
        grid = FeatureGrid(rng.normal(size=(3, 4)))
        state = tape_init_state(grid, store)
        z, _ = attend(grid, state[0], store)
        _, d0 = decode_step(z, state, 1, store, topic_idx=0)
        _, d1 = decode_step(z, state, 1, store, topic_idx=1)
        assert np.allclose(d0.data, d1.data)

    def test_conditional_requires_topic(self):
        """So does the parallel decoder, to pick its sub-decoder."""
        for variant in ("conditional", "parallel"):
            with pytest.raises(ConfigError, match=variant):
                decoder_input(variant, None)
            with pytest.raises(ConfigError, match=variant):
                decoder_input(variant, "content")


class TestParallelIsolation:
    def test_single_topic_loss_leaves_other_subdecoders_untouched(self):
        rng = np.random.default_rng(38)
        config, store = make(variant="parallel")
        grid = FeatureGrid(rng.normal(size=(3, 4)))
        tokens = [1, 5, 6, 7, 2]
        prefix, _ = decoder_input("parallel", TopicLabel.FORM)
        loss, _, _ = sequence_loss([grid], [tokens], store, prefix)
        nc.backward(loss, store)
        for name in store.names():
            grad = store[name].grad
            if name.startswith("form."):
                continue
            assert np.allclose(grad, 0.0), f"{name} received gradient"
        assert any(
            not np.allclose(store[name].grad, 0.0)
            for name in store.names() if name.startswith("form.")
        )
