"""Topic classifier: convolution windows over per-step word embeddings,
max-pool over time, linear to 3 topic logits.

During joint training the classifier consumes the decoder's per-step output
distributions through their expected embeddings (sum_w p(w) * E[w]), so the
whole objective stays differentiable without sampling. On discrete token
sequences the same network runs on plain embedding rows.

A minibatch is one tensor throughout: the expected embeddings of all its
steps are one GEMM, the padded (B, T, E) layout is one gather, each window
size is one im2col GEMM, and max-pooling over time is one masked node.
"""

from __future__ import annotations

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus import TopicLabel
from artdesc.corpus.vocab import Vocab
from artdesc.decoder.config import DecoderConfig

FILTERS = 16  # per window size
WINDOWS = (2, 3)  # tokens per convolution window


def init_classifier_params(store: nc.ParamStore, config: DecoderConfig,
                           rng: np.random.Generator) -> None:
    store.add("cls.embed", nc.uniform_init(rng, (config.vocab_size, config.embed_size)))
    for n in WINDOWS:
        store.add(f"cls.conv{n}.w", nc.uniform_init(rng, (FILTERS, n * config.embed_size)))
        store.add(f"cls.conv{n}.b", np.zeros(FILTERS))
    store.add("cls.out.w", nc.uniform_init(rng, (len(TopicLabel), FILTERS * len(WINDOWS))))
    store.add("cls.out.b", np.zeros(len(TopicLabel)))


def _logits_from_embeddings(emb: nc.Tensor, lengths, params: nc.ParamStore) -> nc.Tensor:
    """Topic logits (B, 3) of B sequences whose embeddings stand one after
    another in the rows of emb, ``lengths[b]`` rows for sequence b.

    The minibatch is laid out as one (B, T, E) tensor: each sequence's rows,
    then <pad> embeddings up to the widest window so that every window size
    has at least one position, then batch padding, which the max over time
    never reads."""
    lengths = np.asarray(lengths, dtype=np.intp)
    readable = np.maximum(lengths, max(WINDOWS))
    pad_row = emb.shape[0]
    rows = np.full((len(lengths), readable.max()), pad_row)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.arange(pad_row)
    table = nc.concat([emb, nc.embedding(params["cls.embed"], [Vocab.pad])])
    seqs = nc.embedding(table, rows)
    pooled = [
        nc.max_rows(nc.relu_t(nc.linear(nc.windows(seqs, n), params[f"cls.conv{n}.w"],
                                        params[f"cls.conv{n}.b"])), readable - n + 1)
        for n in WINDOWS
    ]
    return nc.linear(nc.concat(pooled, axis=1), params["cls.out.w"], params["cls.out.b"])


def classify_distributions(probs: nc.Tensor, params: nc.ParamStore, lengths) -> nc.Tensor:
    """Topic logits (B, 3) from word distributions (continuous path): the
    rows of ``probs`` (N, V) are B sequences one after another, of
    ``lengths`` rows each."""
    return _logits_from_embeddings(nc.vecmat(probs, params["cls.embed"]), lengths, params)


def classify_tokens(token_ids: list[int], params: nc.ParamStore) -> nc.Tensor:
    """Topic logits (1, 3) from a discrete token sequence."""
    return _logits_from_embeddings(nc.embedding(params["cls.embed"], list(token_ids)),
                                   [len(token_ids)], params)


def predict_topic(token_ids: list[int], params: nc.ParamStore) -> TopicLabel:
    logits = classify_tokens(token_ids, params)
    return TopicLabel(int(np.argmax(logits.data)))
