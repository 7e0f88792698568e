"""Slot-filling scorer: bidirectional recurrent encoder over the description
segment, order-free candidate encodings, bilinear compatibility scores.

Each slot position's BiLSTM state is scored against every type-compatible
candidate; a candidate's vector is the mean embedding of its word tokens
concatenated with a type embedding, so scores depend only on candidate
content and permuting the candidate list never changes a choice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
    max_len: int = 120

    def __post_init__(self):
        for name in ("vocab_size", "hidden_size", "embed_size", "type_embed_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_len < 4:
            raise ConfigError(f"max_len must be >= 4, got {self.max_len}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FillerConfig":
        return cls(**d)


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


def encode_description(ids: list[int], params: nc.ParamStore) -> nc.Tensor:
    """BiLSTM states (T, 2H) over the description-side token ids: row t is
    the forward state at position t beside the backward one."""
    x = nc.embedding(params["fill.embed"], ids)
    return nc.concat([nc.lstm_seq(x, params["fill.fwd.w"], params["fill.fwd.b"]),
                      nc.lstm_seq(x, params["fill.bwd.w"], params["fill.bwd.b"], reverse=True)],
                     axis=1)


def _description_ids(fill_input: FillInput, vocab: Vocab) -> list[int]:
    return [vocab.id_of(t) for t in fill_input.tokens[: fill_input.sep_position + 1]]


def _candidate_ids(surface: str, vocab: Vocab) -> list[int]:
    return [vocab.id_of(t) for t in tokenize(surface)] or [vocab.unk]


def candidate_vector(surface: str, etype: EntityType, params: nc.ParamStore,
                     vocab: Vocab) -> nc.Tensor:
    """Mean word embedding of the candidate's tokens plus its type embedding,
    projected through tanh. Position-free by construction."""
    word_ids = _candidate_ids(surface, vocab)
    embs = [nc.embedding(params["fill.embed"], i) for i in word_ids]
    mean = nc.scale(nc.add_n(embs), 1.0 / len(embs))
    tvec = nc.embedding(params["fill.type"], int(etype))
    return nc.tanh_t(nc.affine(params["fill.cand.w"], nc.concat([mean, tvec]),
                               params["fill.cand.b"]))


def slot_scores(
    fill_input: FillInput,
    candidates: CandidateSet,
    params: nc.ParamStore,
    vocab: Vocab,
) -> list[list[tuple[int, nc.Tensor]]]:
    """For each slot, bilinear scores against its type-compatible candidates
    as (candidate index, score) pairs."""
    states = encode_description(_description_ids(fill_input, vocab), params)
    cand_vecs: dict[int, nc.Tensor] = {}
    per_slot: list[list[tuple[int, nc.Tensor]]] = []
    for pos, etype in zip(fill_input.slot_positions, fill_input.slot_types):
        h_slot = nc.embedding(states, pos)
        scored: list[tuple[int, nc.Tensor]] = []
        for idx, cand in candidates.of_type(etype):
            if idx not in cand_vecs:
                cand_vecs[idx] = candidate_vector(cand.surface, cand.entity_type,
                                                  params, vocab)
            score = nc.dot(h_slot, nc.affine(params["fill.bilinear"], cand_vecs[idx]))
            scored.append((idx, score))
        per_slot.append(scored)
    return per_slot


def slot_score_values(fill_input: FillInput, candidates: CandidateSet,
                      params: nc.ParamStore, vocab: Vocab) -> list[list[tuple[int, float]]]:
    """:func:`slot_scores` with no tape, as slot filling runs it: the same
    forward helpers and operations in the same order, so each score equals
    the training forward's bit for bit."""
    def p(name: str) -> np.ndarray:
        return params[f"fill.{name}"].data

    x = p("embed")[_description_ids(fill_input, vocab)]
    states = np.concatenate([nc.lstm_seq_np(x, p("fwd.w"), p("fwd.b"))[0],
                             nc.lstm_seq_np(x, p("bwd.w"), p("bwd.b"), reverse=True)[0]], axis=1)
    cand_vecs: dict[int, np.ndarray] = {}
    per_slot: list[list[tuple[int, float]]] = []
    for pos, etype in zip(fill_input.slot_positions, fill_input.slot_types):
        scored = []
        for idx, cand in candidates.of_type(etype):
            if idx not in cand_vecs:
                rows = p("embed")[_candidate_ids(cand.surface, vocab)]
                mean = rows.sum(axis=0) * (1.0 / len(rows))
                feats = np.concatenate([mean, p("type")[int(cand.entity_type)]])
                cand_vecs[idx] = np.tanh(p("cand.w") @ feats + p("cand.b"))
            scored.append((idx, float(states[pos] @ (p("bilinear") @ cand_vecs[idx]))))
        per_slot.append(scored)
    return per_slot
