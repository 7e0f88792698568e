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
from artdesc.corpus import FeatureGrid, TopicLabel
from artdesc.decoder.classifier import init_classifier_params
from artdesc.decoder.config import DecoderConfig
from artdesc.errors import ConfigError

State = tuple[nc.Tensor, nc.Tensor]


def decoder_input(variant: str, topic: TopicLabel | None) -> tuple[str, int | None]:
    """What a topic's decode or training step reads: its parameter prefix
    and its row of the topic embedding, if any. The baseline reads
    ``("dec", None)`` whatever the topic; the parallel and conditional
    decoders need a topic, to pick a sub-decoder or an embedding row."""
    if variant == "baseline":
        return "dec", None
    if not isinstance(topic, TopicLabel):
        raise ConfigError(f"{variant} decoder requires a valid topic, got {topic!r}")
    return (topic.name.lower(), None) if variant == "parallel" else ("dec", int(topic))


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
    for prefix in dict.fromkeys(decoder_input(config.variant, t)[0] for t in TopicLabel):
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


# Columns per block of the grid that the context reads. A 196 x 512
# float64 block is 800 KB, so it stays in a 2 MB L2 cache while every row of
# a step reads it; the whole 196 x 2048 grid (3.2 MB) does not.
CONTEXT_BLOCK = 512


def matvec_rows(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ row`` for each row of x (B, N), as one stacked ``np.matmul``
    that runs one GEMV per row, so each row has the bits of ``w @ row``."""
    return np.matmul(w, x[:, :, None])[:, :, 0]


class DecodeStep:
    """The tape-free decoder step for one grid and sub-decoder, over a stack
    of hypotheses: one row per hypothesis, and one hypothesis is one row.

    Built once per decoded sentence: the grid's attention projection
    ``grid @ w_v.T`` and the initial state are made here, once; the grid
    itself is read in place and never copied. Each call runs the forward of
    the training node ``attend_lstm_seq`` row-wise: every matrix-vector
    product is one stacked ``np.matmul`` with one GEMV per row, and the
    elementwise stages and the softmax work on whole rows. So each row's
    logits are bit-identical to the per-step tape path that the tests keep
    as the oracle. A step whose context, state or logits hold a non-finite
    value raises FloatingPointError, as a tape node would.

    The context ``alpha @ grid`` reads the grid block by block, each block
    for every row before the next, so a block comes from memory once per
    step and from cache for the other rows. The blocks are strided column
    views of the grid, which stay cached because ``FeatureGrid`` pads its
    row pitch (see its docstring). The columns after the last whole block
    are read in place, not padded into a block of their own: the GEMV kernel
    sums the last few columns of a product in another order than the
    others, so padding would change their bits. They number at least two,
    because numpy computes a one-column product as a dot, which also sums in
    another order.
    """

    def __init__(self, grid: FeatureGrid, params: nc.ParamStore, prefix: str = "dec",
                 topic_idx: int | None = None):
        def p(name: str) -> np.ndarray:
            return params[f"{prefix}.{name}"].data

        values = grid.values
        n_loc, feat = values.shape
        n_blocks = max(feat // CONTEXT_BLOCK - (feat % CONTEXT_BLOCK == 1), 0)
        split = n_blocks * CONTEXT_BLOCK
        self.blocks = values[:, :split].reshape(n_loc, n_blocks, CONTEXT_BLOCK).swapaxes(0, 1)
        self.rest = values[:, split:]
        self.proj = values @ p("att.w_v").T
        self.att = (p("att.w_h"), p("att.b1"), p("att.w2"), p("att.b2"))
        # each token's step input after the context: its embedding, then the topic's
        embed = p("embed")
        if topic_idx is not None:
            topic = p("topic.embed")[topic_idx]
            embed = np.concatenate([embed, np.broadcast_to(topic, (len(embed), len(topic)))],
                                   axis=1)
        self.embed = embed
        self.lstm = (p("lstm.w"), p("lstm.b"))
        self.out = (p("out.w"), p("out.b"))
        vbar = values.mean(axis=0)
        self.state0 = (np.tanh(p("init.w_h") @ vbar + p("init.b_h")),
                       np.tanh(p("init.w_c") @ vbar + p("init.b_c")))

    def context(self, alpha: np.ndarray) -> np.ndarray:
        """``alpha @ grid`` for each row of the attention weights (B, L)."""
        blocks = np.matmul(alpha[None, :, None, :], self.blocks[:, None])[:, :, 0]
        return np.concatenate([*blocks, np.matmul(alpha[:, None, :], self.rest)[:, 0]], axis=1)

    def __call__(self, h_prev: np.ndarray, c_prev: np.ndarray,
                 y_prev: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The states (h, c) after reading ``y_prev`` from (h_prev, c_prev),
        each (B, H), and the next token's logits (B, V)."""
        w_h, b1, w2, b2 = self.att
        act = np.tanh(self.proj + (matvec_rows(w_h, h_prev) + b1)[:, None, :])
        z = self.context(nc.softmax_np(act @ w2 + b2[0]))
        lstm_w, lstm_b = self.lstm
        xh = np.concatenate([z, self.embed[y_prev], h_prev], axis=1)
        h, c, _ = nc.lstm_cell_np(matvec_rows(lstm_w, xh) + lstm_b, c_prev)
        out_w, out_b = self.out
        hz = np.concatenate([h, z], axis=1)
        logits = matvec_rows(out_w, hz) + out_b
        if not (np.isfinite(hz).all() and np.isfinite(c).all() and np.isfinite(logits).all()):
            raise FloatingPointError("non-finite values produced by the decode step")
        return h, c, logits
