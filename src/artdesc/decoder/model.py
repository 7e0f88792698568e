"""Decoder parameters, the initial state, and the tape-free step that
decoding runs.

Parameter namespaces: the baseline and conditional decoders live under the
"dec" prefix; the parallel decoder keeps three fully disjoint sub-decoders
under "content"/"form"/"context". The conditional decoder adds a topic
embedding and the topic classifier ("cls.*", see classifier.py).
"""

from __future__ import annotations

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus import FeatureGrid, TopicLabel, mean_pool
from artdesc.decoder.classifier import init_classifier_params
from artdesc.decoder.config import DecoderConfig
from artdesc.errors import ConfigError

State = tuple[nc.Tensor, nc.Tensor]


def decoder_prefixes(variant: str) -> list[str]:
    if variant == "parallel":
        return [t.name.lower() for t in TopicLabel]
    return ["dec"]


def sub_prefix(variant: str, topic: TopicLabel | None) -> str:
    """Which parameter namespace a generation/training step reads."""
    if variant == "parallel":
        if not isinstance(topic, TopicLabel):
            raise ConfigError("parallel decoder requires a topic to select its sub-decoder")
        return topic.name.lower()
    return "dec"


def topic_embedding_index(variant: str, topic: TopicLabel | None) -> int | None:
    if variant != "conditional":
        return None
    if not isinstance(topic, TopicLabel):
        raise ConfigError(f"conditional decoder requires a valid topic, got {topic!r}")
    return int(topic)


def _add_subdecoder(store: nc.ParamStore, prefix: str, config: DecoderConfig,
                    rng: np.random.Generator, with_topic: bool) -> None:
    v = config.vocab_size
    d = config.feature_dim
    h = config.hidden_size
    em = config.embed_size
    x_dim = d + em + (config.topic_embed_size if with_topic else 0)
    store.add(f"{prefix}.embed", nc.uniform_init(rng, (v, em)))
    store.add(f"{prefix}.lstm.w", nc.uniform_init(rng, (4 * h, x_dim + h)))
    store.add(f"{prefix}.lstm.b", np.zeros(4 * h))
    store.add(f"{prefix}.att.w_v", nc.uniform_init(rng, (h, d)))  # the attention MLP is h wide
    store.add(f"{prefix}.att.w_h", nc.uniform_init(rng, (h, h)))
    store.add(f"{prefix}.att.b1", np.zeros(h))
    store.add(f"{prefix}.att.w2", nc.uniform_init(rng, (h,)))
    store.add(f"{prefix}.att.b2", np.zeros(1))
    store.add(f"{prefix}.out.w", nc.uniform_init(rng, (v, h + d)))
    store.add(f"{prefix}.out.b", np.zeros(v))
    store.add(f"{prefix}.init.w_h", nc.uniform_init(rng, (h, d)))
    store.add(f"{prefix}.init.b_h", np.zeros(h))
    store.add(f"{prefix}.init.w_c", nc.uniform_init(rng, (h, d)))
    store.add(f"{prefix}.init.b_c", np.zeros(h))


def init_decoder_params(config: DecoderConfig, rng: np.random.Generator) -> nc.ParamStore:
    store = nc.ParamStore()
    with_topic = config.variant == "conditional"
    for prefix in decoder_prefixes(config.variant):
        _add_subdecoder(store, prefix, config, rng, with_topic)
    if with_topic:
        store.add("dec.topic.embed", nc.uniform_init(rng, (len(TopicLabel), config.topic_embed_size)))
        init_classifier_params(store, config, rng)
    return store


def init_state(grids: np.ndarray, params: nc.ParamStore, prefix: str = "dec") -> State:
    """Initial (h0, c0), each (B, H), from a (B, L, D) stack of grids: each
    grid's mean over its L locations through linear + tanh."""
    vbar = nc.constant(grids.mean(axis=1), name="vbar")
    h0 = nc.tanh_t(nc.linear(vbar, params[f"{prefix}.init.w_h"], params[f"{prefix}.init.b_h"]))
    c0 = nc.tanh_t(nc.linear(vbar, params[f"{prefix}.init.w_c"], params[f"{prefix}.init.b_c"]))
    return h0, c0


class DecodeStep:
    """One tape-free decoder step for one grid and sub-decoder.

    Built once per decoded sentence: the grid's attention projection
    ``grid @ w_v.T`` and the initial state are computed here, once. Each call
    then runs the numcore forward helpers that the training node
    ``attend_lstm_seq`` runs, and the output layer as one GEMV. Its logits
    are bit-identical to the per-step tape path that the tests keep as the
    oracle. A step whose context, state or logits hold a non-finite value
    raises FloatingPointError, as a tape node would.
    """

    def __init__(self, grid: FeatureGrid, params: nc.ParamStore, prefix: str = "dec",
                 topic_idx: int | None = None):
        def p(name: str) -> np.ndarray:
            return params[f"{prefix}.{name}"].data

        self.grid = grid.values
        self.proj = self.grid @ p("att.w_v").T
        self.att = (p("att.w_h"), p("att.b1"), p("att.w2"), p("att.b2"))
        self.embed = p("embed")
        self.topic = () if topic_idx is None else (p("topic.embed")[topic_idx],)
        self.lstm = (p("lstm.w"), p("lstm.b"))
        self.out = (p("out.w"), p("out.b"))
        vbar = mean_pool(grid)
        self.state0 = (np.tanh(p("init.w_h") @ vbar + p("init.b_h")),
                       np.tanh(p("init.w_c") @ vbar + p("init.b_c")))

    def __call__(self, state: tuple[np.ndarray, np.ndarray],
                 y_prev: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """The state after reading ``y_prev`` and the next token's logits."""
        h_prev, c_prev = state
        z, _, _ = nc.attention_np(self.proj, self.grid, h_prev, *self.att)
        parts = [z, self.embed[y_prev], *self.topic, h_prev]
        lstm_w, lstm_b = self.lstm
        h, c, _ = nc.lstm_cell_np(lstm_w @ np.concatenate(parts) + lstm_b, c_prev)
        out_w, out_b = self.out
        hz = np.concatenate([h, z])
        logits = out_w @ hz + out_b
        if not (np.isfinite(hz).all() and np.isfinite(c).all() and np.isfinite(logits).all()):
            raise FloatingPointError("non-finite values produced by the decode step")
        return (h, c), logits
