"""Decoder forward pieces: attention, state init, one decode step, and the
tape-free step that decoding runs.

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
    att = config.attn_hidden_size
    x_dim = d + em + (config.topic_embed_size if with_topic else 0)
    store.add(f"{prefix}.embed", nc.uniform_init(rng, (v, em)))
    store.add(f"{prefix}.lstm.w", nc.uniform_init(rng, (4 * h, x_dim + h)))
    store.add(f"{prefix}.lstm.b", np.zeros(4 * h))
    store.add(f"{prefix}.att.w_v", nc.uniform_init(rng, (att, d)))
    store.add(f"{prefix}.att.w_h", nc.uniform_init(rng, (att, h)))
    store.add(f"{prefix}.att.b1", np.zeros(att))
    store.add(f"{prefix}.att.w2", nc.uniform_init(rng, (att,)))
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


def attend(grid: FeatureGrid, h_prev: nc.Tensor, params: nc.ParamStore,
           prefix: str = "dec") -> tuple[nc.Tensor, nc.Tensor]:
    """Attention context and weights over the grid's L locations."""
    return nc.mlp_attention(
        grid.values,
        h_prev,
        params[f"{prefix}.att.w_v"],
        params[f"{prefix}.att.w_h"],
        params[f"{prefix}.att.b1"],
        params[f"{prefix}.att.w2"],
        params[f"{prefix}.att.b2"],
    )


def init_state(grid: FeatureGrid, params: nc.ParamStore, prefix: str = "dec") -> State:
    """Initial (h0, c0) from the mean-pooled grid through affine + tanh."""
    vbar = nc.constant(mean_pool(grid), name="vbar")
    h0 = nc.tanh_t(nc.affine(params[f"{prefix}.init.w_h"], vbar, params[f"{prefix}.init.b_h"]))
    c0 = nc.tanh_t(nc.affine(params[f"{prefix}.init.w_c"], vbar, params[f"{prefix}.init.b_c"]))
    return h0, c0


def decode_logits(
    z: nc.Tensor,
    state: State,
    y_prev: int,
    params: nc.ParamStore,
    prefix: str = "dec",
    topic_idx: int | None = None,
) -> tuple[State, nc.Tensor]:
    """One recurrent step; returns the new state and the vocab logits."""
    h_prev, c_prev = state
    embed = params[f"{prefix}.embed"]
    if not 0 <= y_prev < embed.data.shape[0]:
        raise ValueError(f"decode step: previous token id {y_prev} out of vocab range")
    parts = [z, nc.embedding(embed, y_prev)]
    if topic_idx is not None:
        parts.append(nc.embedding(params[f"{prefix}.topic.embed"], topic_idx))
    x = nc.concat(parts)
    h, c = nc.lstm_step(x, h_prev, c_prev, params[f"{prefix}.lstm.w"], params[f"{prefix}.lstm.b"])
    logits = nc.affine(params[f"{prefix}.out.w"], nc.concat([h, z]), params[f"{prefix}.out.b"])
    return (h, c), logits


def decode_step(
    z: nc.Tensor,
    state: State,
    y_prev: int,
    params: nc.ParamStore,
    prefix: str = "dec",
    topic_idx: int | None = None,
) -> tuple[State, nc.Tensor]:
    """Like decode_logits but returns the word distribution (sums to 1)."""
    new_state, logits = decode_logits(z, state, y_prev, params, prefix, topic_idx)
    return new_state, nc.softmax(logits)


class DecodeStep:
    """Tape-free ``attend`` + ``decode_logits`` for one grid and sub-decoder.

    Built once per decoded sentence: the grid's attention projection
    ``grid @ w_v.T`` and the initial state are computed here, once. Each call
    then runs the numcore forward helpers that the tape nodes run, on the
    same arrays in the same order, so its logits are bit-identical to
    ``decode_logits`` after ``attend``. A step whose context, state or logits
    hold a non-finite value raises FloatingPointError, as a tape node would.
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
        h, c, _ = nc.lstm_np(np.concatenate(parts), c_prev, *self.lstm)
        out_w, out_b = self.out
        hz = np.concatenate([h, z])
        logits = out_w @ hz + out_b
        if not (np.isfinite(hz).all() and np.isfinite(c).all() and np.isfinite(logits).all()):
            raise FloatingPointError("non-finite values produced by the decode step")
        return (h, c), logits
