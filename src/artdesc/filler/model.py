"""Slot-filling scorer: bidirectional recurrent encoder over the description
segment, order-free candidate encodings, bilinear compatibility scores.

Each slot position's BiLSTM state is scored against every type-compatible
candidate; a candidate's vector is the mean embedding of its word tokens
concatenated with a type embedding, so scores depend only on candidate
content and permuting the candidate list never changes a choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus import EntityType, tokenize
from artdesc.corpus.vocab import Vocab
from artdesc.errors import ConfigError
from artdesc.filler.candidates import CandidateSet
from artdesc.filler.encoding import FillInput

N_ENTITY_TYPES = len(EntityType)


@dataclass
class FillerConfig:
    vocab_size: int
    hidden_size: int = 32
    embed_size: int = 32
    type_embed_size: int = 8

    def __post_init__(self):
        for name in ("vocab_size", "hidden_size", "embed_size", "type_embed_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


def init_filler_params(config: FillerConfig, rng: np.random.Generator) -> nc.ParamStore:
    store = nc.ParamStore()
    h = config.hidden_size
    em = config.embed_size
    te = config.type_embed_size
    store.add("fill.embed", nc.uniform_init(rng, (config.vocab_size, em)))
    store.add("fill.fwd.w", nc.uniform_init(rng, (4 * h, em + h)))
    store.add("fill.fwd.b", np.zeros(4 * h))
    store.add("fill.bwd.w", nc.uniform_init(rng, (4 * h, em + h)))
    store.add("fill.bwd.b", np.zeros(4 * h))
    store.add("fill.type", nc.uniform_init(rng, (N_ENTITY_TYPES, te)))
    store.add("fill.cand.w", nc.uniform_init(rng, (2 * h, em + te)))
    store.add("fill.cand.b", np.zeros(2 * h))
    store.add("fill.bilinear", nc.uniform_init(rng, (2 * h, 2 * h)))
    return store


def _candidate_words(candidate_sets: Sequence[CandidateSet],
                     vocab: Vocab) -> tuple[np.ndarray, np.ndarray]:
    """The word ids of every candidate, set after set, one after another,
    and the (C, W) matrix whose row c averages candidate c's rows."""
    words = [[vocab.id_of(t) for t in tokenize(cand.surface)] or [vocab.unk]
             for cands in candidate_sets for cand in cands]
    counts = np.array([len(w) for w in words], dtype=np.intp)
    ids = np.array([i for w in words for i in w], dtype=np.intp)
    mean = np.zeros((len(words), len(ids)))
    mean[np.repeat(np.arange(len(words)), counts), np.arange(len(ids))] = np.repeat(1.0 / counts,
                                                                                   counts)
    return ids, mean


def _compatible(fill_inputs: Sequence[FillInput],
                candidate_sets: Sequence[CandidateSet]) -> np.ndarray:
    """(slots, candidates): True where the candidate belongs to the slot's
    own input and has the slot's entity type."""
    slots = np.array([(k, int(etype)) for k, fi in enumerate(fill_inputs)
                      for etype in fi.slot_types], dtype=np.intp).reshape(-1, 2)
    cands = np.array([(k, int(cand.entity_type)) for k, cands in enumerate(candidate_sets)
                      for cand in cands], dtype=np.intp).reshape(-1, 2)
    return (slots[:, None, :] == cands[None, :, :]).all(axis=2)


def slot_scores(
    fill_inputs: Sequence[FillInput],
    candidate_sets: Sequence[CandidateSet],
    params: nc.ParamStore,
    vocab: Vocab,
) -> tuple[nc.Tensor, np.ndarray]:
    """Bilinear scores of every slot of a minibatch of fill inputs against
    every candidate, as one (slots, candidates) tensor, and the boolean mask
    of the type-compatible pairs: a slot matches the candidates of its own
    input's set that have its type. Rows are the slots input after input;
    columns are the candidates set after set.

    One padded BiLSTM reads every description, longest first; the
    candidates' mean word embeddings are one segment-mean GEMM, and the
    bilinear term is one GEMM over all slots and candidates."""
    descriptions = [[vocab.id_of(t) for t in fi.tokens] for fi in fill_inputs]
    order = sorted(range(len(descriptions)), key=lambda k: -len(descriptions[k]))
    lengths = [len(descriptions[k]) for k in order]
    ids = np.full((len(order), lengths[0]), Vocab.pad)
    for row, k in zip(ids, order):
        row[: len(descriptions[k])] = descriptions[k]
    x = nc.embedding(params["fill.embed"], ids)
    states = nc.concat([
        nc.lstm_seq(x, params["fill.fwd.w"], params["fill.fwd.b"], lengths),
        nc.lstm_seq(x, params["fill.bwd.w"], params["fill.bwd.b"], lengths, reverse=True),
    ], axis=1)  # the real rows, in ``order``
    first_row = dict(zip(order, np.cumsum(lengths) - lengths))
    slots = nc.embedding(states, [first_row[k] + pos for k, fi in enumerate(fill_inputs)
                                  for pos in fi.slot_positions])
    word_ids, mean = _candidate_words(candidate_sets, vocab)
    types = [int(cand.entity_type) for cands in candidate_sets for cand in cands]
    feats = nc.concat([nc.vecmat(nc.constant(mean), nc.embedding(params["fill.embed"], word_ids)),
                       nc.embedding(params["fill.type"], types)], axis=1)
    vecs = nc.tanh_t(nc.linear(feats, params["fill.cand.w"], params["fill.cand.b"]))
    scores = nc.linear(slots, nc.linear(vecs, params["fill.bilinear"]))
    return scores, _compatible(fill_inputs, candidate_sets)
