"""The per-item, per-step tape path: the oracle for minibatch training.

Before ``attend_lstm_seq``, ``lstm_seq`` and the one-tensor classifier, the
package trained and decoded one token at a time through these functions, one
tape node per op and step; before minibatch-major training it also built one
graph per item, and scored each filler candidate with its own nodes
(``candidate_vector``, ``dot``, ``stack_scalars``). They are kept here as
the reference:

- decoding (``DecodeStep``) must match ``attend`` + ``decode_logits`` bit
  for bit (c05 and ``TestTapeOracle``);
- a minibatch's loss and parameter gradients must match the sum of its
  items' ``sequence_loss`` (+ ``classify_distributions``) and
  ``fill_pair_loss`` here to about 1e-10 relative (stacked GEMMs sum in
  another order).

``neg_log_pick``, ``maximum_list``, ``dot`` and ``stack_scalars`` are the
numcore ops that only this path used; tests also take ``dot(w, w)`` as a
scalar loss.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus import EntityType, FeatureGrid, tokenize
from artdesc.corpus.vocab import Vocab
from artdesc.decoder.classifier import WINDOWS
from artdesc.decoder.model import State
from artdesc.errors import ShapeError
from artdesc.filler.encoding import encode_fill_input
from artdesc.numcore.tensor import _node, _require_1d

# ---------------------------------------------------------------------------
# Ops only the per-step path used
# ---------------------------------------------------------------------------


def neg_log_pick(probs: nc.Tensor, idx: int) -> nc.Tensor:
    """-log(probs[idx]) for probs from an upstream softmax node."""
    _require_1d(probs, "neg_log_pick")
    if not 0 <= idx < probs.data.shape[0]:
        raise ValueError(f"neg_log_pick: index {idx} out of range")
    p = float(probs.data[idx])
    if p <= 0.0:
        raise FloatingPointError("neg_log_pick: zero probability at target index")

    def bwd(out: nc.Tensor) -> None:
        probs.accumulate_grad(-float(out.grad) / p, at=idx)

    return _node(np.array(-np.log(p)), (probs,), bwd, "neg_log_pick")


def maximum_list(ts: Sequence[nc.Tensor]) -> nc.Tensor:
    """Elementwise max over same-shaped tensors; grads route to the first
    tensor attaining the max (deterministic tie-break)."""
    if not ts:
        raise ShapeError("maximum_list: empty input")
    shape = ts[0].shape
    for t in ts:
        if t.shape != shape:
            raise ShapeError(f"maximum_list: shape mismatch {shape} vs {t.shape} ('{t.name}')")
    stacked = np.stack([t.data for t in ts])
    winner = np.argmax(stacked, axis=0)  # first occurrence wins

    def bwd(out: nc.Tensor) -> None:
        for i, t in enumerate(ts):
            t.accumulate_grad(out.grad * (winner == i))

    return _node(stacked.max(axis=0), tuple(ts), bwd, "maximum_list")


def dot(a: nc.Tensor, b: nc.Tensor) -> nc.Tensor:
    _require_1d(a, "dot")
    _require_1d(b, "dot")
    if a.shape != b.shape:
        raise ShapeError(f"dot: shape mismatch {a.shape} vs {b.shape} ('{a.name}' vs '{b.name}')")

    def bwd(out: nc.Tensor) -> None:
        g = float(out.grad)
        a.accumulate_grad(g * b.data)
        b.accumulate_grad(g * a.data)

    return _node(np.array(a.data @ b.data), (a, b), bwd, "dot")


def stack_scalars(ts: Sequence[nc.Tensor]) -> nc.Tensor:
    for t in ts:
        if t.data.size != 1:
            raise ShapeError(f"stack_scalars: '{t.name}' has shape {t.shape}, want scalar")

    def bwd(out: nc.Tensor) -> None:
        for i, t in enumerate(ts):
            t.accumulate_grad(np.array(out.grad[i]).reshape(t.shape))

    return _node(np.array([float(t.data.reshape(())) for t in ts]), tuple(ts), bwd, "stack_scalars")


# ---------------------------------------------------------------------------
# Decoder, one step at a time
# ---------------------------------------------------------------------------


def init_state(grid: FeatureGrid, params: nc.ParamStore, prefix: str = "dec") -> State:
    """Initial (h0, c0), each (H,), from the mean-pooled grid through affine + tanh."""
    vbar = nc.constant(grid.values.mean(axis=0), name="vbar")
    h0 = nc.tanh_t(nc.affine(params[f"{prefix}.init.w_h"], vbar, params[f"{prefix}.init.b_h"]))
    c0 = nc.tanh_t(nc.affine(params[f"{prefix}.init.w_c"], vbar, params[f"{prefix}.init.b_c"]))
    return h0, c0


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


def sequence_loss(
    grid: FeatureGrid,
    token_ids: list[int],
    params: nc.ParamStore,
    prefix: str,
    topic_idx: int | None = None,
    collect_probs: bool = False,
) -> tuple[nc.Tensor, int, list[nc.Tensor]]:
    """Teacher-forced NLL summed over transitions; optionally also the
    per-step output distributions for the topic classifier."""
    state = init_state(grid, params, prefix)
    losses: list[nc.Tensor] = []
    probs: list[nc.Tensor] = []
    for prev, nxt in zip(token_ids[:-1], token_ids[1:]):
        z, _ = attend(grid, state[0], params, prefix)
        state, logits = decode_logits(z, state, prev, params, prefix, topic_idx)
        if collect_probs:
            p = nc.softmax(logits)
            probs.append(p)
            losses.append(neg_log_pick(p, nxt))
        else:
            losses.append(nc.cross_entropy(logits, nxt))
    return nc.add_n(losses), len(losses), probs


def _logits_from_embeddings(emb_seq: list[nc.Tensor], params: nc.ParamStore) -> nc.Tensor:
    # pad with the <pad> embedding so every window size has >=1 position
    needed = max(WINDOWS)
    emb_seq = list(emb_seq)
    while len(emb_seq) < needed:
        emb_seq.append(nc.embedding(params["cls.embed"], Vocab.pad))
    pooled = []
    for n in WINDOWS:
        feats = []
        for j in range(len(emb_seq) - n + 1):
            window = nc.concat(emb_seq[j : j + n])
            feats.append(
                nc.relu_t(nc.affine(params[f"cls.conv{n}.w"], window, params[f"cls.conv{n}.b"]))
            )
        pooled.append(maximum_list(feats))
    return nc.affine(params["cls.out.w"], nc.concat(pooled), params["cls.out.b"])


def classify_distributions(probs: list[nc.Tensor], params: nc.ParamStore) -> nc.Tensor:
    """Topic logits from per-step word distributions (continuous path)."""
    emb_seq = [nc.vecmat(p, params["cls.embed"]) for p in probs]
    return _logits_from_embeddings(emb_seq, params)


def classify_tokens(token_ids: list[int], params: nc.ParamStore) -> nc.Tensor:
    """Topic logits from a discrete token sequence."""
    emb_seq = [nc.embedding(params["cls.embed"], i) for i in token_ids]
    return _logits_from_embeddings(emb_seq, params)


# ---------------------------------------------------------------------------
# Filler, one step at a time
# ---------------------------------------------------------------------------


def encode_description(ids: list[int], params: nc.ParamStore) -> list[nc.Tensor]:
    """Per-position BiLSTM states (2H) over the description-side token ids."""
    h = params["fill.fwd.b"].data.shape[0] // 4
    embs = [nc.embedding(params["fill.embed"], i) for i in ids]
    fwd: list[nc.Tensor] = []
    state = (nc.constant(np.zeros(h)), nc.constant(np.zeros(h)))
    for e in embs:
        hN, cN = nc.lstm_step(e, state[0], state[1], params["fill.fwd.w"], params["fill.fwd.b"])
        state = (hN, cN)
        fwd.append(hN)
    bwd: list[nc.Tensor] = [None] * len(embs)
    state = (nc.constant(np.zeros(h)), nc.constant(np.zeros(h)))
    for pos in range(len(embs) - 1, -1, -1):
        hN, cN = nc.lstm_step(embs[pos], state[0], state[1],
                              params["fill.bwd.w"], params["fill.bwd.b"])
        state = (hN, cN)
        bwd[pos] = hN
    return [nc.concat([f, b]) for f, b in zip(fwd, bwd)]


def candidate_vector(surface: str, etype: EntityType, params: nc.ParamStore,
                     vocab: Vocab) -> nc.Tensor:
    """Mean word embedding of the candidate's tokens plus its type embedding,
    projected through tanh."""
    word_ids = [vocab.id_of(t) for t in tokenize(surface)] or [vocab.unk]
    embs = [nc.embedding(params["fill.embed"], i) for i in word_ids]
    mean = nc.scale(nc.add_n(embs), 1.0 / len(embs))
    tvec = nc.embedding(params["fill.type"], int(etype))
    return nc.tanh_t(nc.affine(params["fill.cand.w"], nc.concat([mean, tvec]),
                               params["fill.cand.b"]))


def slot_scores(fill_input, candidates, params: nc.ParamStore,
                vocab: Vocab) -> list[list[tuple[int, nc.Tensor]]]:
    """For each slot, bilinear scores against its type-compatible candidates
    as (candidate index, score) pairs, one node per candidate and score."""
    states = encode_description([vocab.id_of(t) for t in fill_input.tokens], params)
    cand_vecs: dict[int, nc.Tensor] = {}
    per_slot: list[list[tuple[int, nc.Tensor]]] = []
    for pos, etype in zip(fill_input.slot_positions, fill_input.slot_types):
        h_slot = states[pos]
        scored: list[tuple[int, nc.Tensor]] = []
        for idx, cand in enumerate(candidates.entries):
            if cand.entity_type != etype:
                continue
            if idx not in cand_vecs:
                cand_vecs[idx] = candidate_vector(cand.surface, cand.entity_type,
                                                  params, vocab)
            score = dot(h_slot, nc.affine(params["fill.bilinear"], cand_vecs[idx]))
            scored.append((idx, score))
        per_slot.append(scored)
    return per_slot


def fill_pair_loss(pair, params: nc.ParamStore, vocab: Vocab,
                   config) -> tuple[nc.Tensor | None, int, int]:
    """One pair's summed per-slot cross-entropies over its type-compatible
    candidates: (loss or None, scored slots, skipped slots)."""
    fill_input = encode_fill_input(pair.masked)
    per_slot = slot_scores(fill_input, pair.candidates, params, vocab)
    losses: list[nc.Tensor] = []
    skipped = 0
    for scored, target, etype in zip(per_slot, pair.targets, fill_input.slot_types):
        gold = pair.candidates.find(target, etype)
        local = next((i for i, (idx, _) in enumerate(scored) if idx == gold), None)
        if gold is None or local is None or not scored:
            skipped += 1
            continue
        losses.append(nc.cross_entropy(stack_scalars([s for _, s in scored]), local))
    if not losses:
        return None, 0, skipped
    return nc.add_n(losses), len(losses), skipped
