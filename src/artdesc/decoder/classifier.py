"""Topic classifier: convolution windows over per-step word embeddings,
max-pool over time, linear to 3 topic logits.

During joint training the classifier consumes the decoder's per-step output
distributions through their expected embeddings (sum_w p(w) * E[w]), so the
whole objective stays differentiable without sampling. On discrete token
sequences the same network runs on plain embedding rows.

The sequence is one (T, E) tensor throughout: the expected embeddings are
one GEMM, each window size is one im2col GEMM, and max-pooling is one node.
"""

from __future__ import annotations

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus import TopicLabel
from artdesc.corpus.vocab import Vocab
from artdesc.decoder.config import DecoderConfig


def init_classifier_params(store: nc.ParamStore, config: DecoderConfig,
                           rng: np.random.Generator) -> None:
    ec = config.classifier_embed_size
    f = config.classifier_filters
    store.add("cls.embed", nc.uniform_init(rng, (config.vocab_size, ec)))
    for n in config.classifier_windows:
        store.add(f"cls.conv{n}.w", nc.uniform_init(rng, (f, n * ec)))
        store.add(f"cls.conv{n}.b", np.zeros(f))
    store.add("cls.out.w", nc.uniform_init(rng, (len(TopicLabel), f * len(config.classifier_windows))))
    store.add("cls.out.b", np.zeros(len(TopicLabel)))


def _logits_from_embeddings(emb: nc.Tensor, params: nc.ParamStore,
                            config: DecoderConfig) -> nc.Tensor:
    # pad with the <pad> embedding so every window size has >=1 position
    missing = max(config.classifier_windows) - emb.shape[0]
    if missing > 0:
        emb = nc.concat([emb, nc.embedding(params["cls.embed"], [Vocab.pad] * missing)])
    pooled = [
        nc.max_rows(nc.relu_t(nc.linear(nc.windows(emb, n), params[f"cls.conv{n}.w"],
                                        params[f"cls.conv{n}.b"])))
        for n in config.classifier_windows
    ]
    return nc.affine(params["cls.out.w"], nc.concat(pooled), params["cls.out.b"])


def classify_distributions(probs: nc.Tensor, params: nc.ParamStore,
                           config: DecoderConfig) -> nc.Tensor:
    """Topic logits from word distributions, one per row of ``probs`` (T, V)
    (continuous path)."""
    return _logits_from_embeddings(nc.vecmat(probs, params["cls.embed"]), params, config)


def classify_tokens(token_ids: list[int], params: nc.ParamStore,
                    config: DecoderConfig) -> nc.Tensor:
    """Topic logits from a discrete token sequence."""
    return _logits_from_embeddings(nc.embedding(params["cls.embed"], list(token_ids)),
                                   params, config)


def predict_topic(token_ids: list[int], params: nc.ParamStore,
                  config: DecoderConfig) -> TopicLabel:
    logits = classify_tokens(token_ids, params, config)
    return TopicLabel(int(np.argmax(logits.data)))
