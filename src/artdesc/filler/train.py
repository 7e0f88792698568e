"""Filler training, filler checkpoint files and slot filling.

Training pairs follow the anti-copying recipe: the input is a single masked
sentence, but the candidate set is harvested from the painting's whole
description (all entity values plus typed attributes), so the model cannot
solve the task by position alone. The target for each slot is its original
entity value. Slots with no type-compatible candidate contribute no loss and
are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus import MaskedSentence, PaintingRecord, Slot, tokenize
from artdesc.corpus.vocab import Vocab
from artdesc.errors import ConfigError
from artdesc.filler.candidates import Candidate, CandidateSet, attribute_candidates
from artdesc.filler.encoding import FillInput, encode_fill_input
from artdesc.filler.model import FillerConfig, init_filler_params, slot_scores
from artdesc.training import Checkpoint, TrainConfig, fit, load_model, padding, save_model


@dataclass
class FillPair:
    masked: list[MaskedSentence]
    candidates: CandidateSet
    targets: list[str]

    @cached_property
    def fill_input(self) -> FillInput:
        return encode_fill_input(self.masked)


def record_candidates(record: PaintingRecord) -> CandidateSet:
    """Whole-paragraph candidates: typed attribute values plus every masked
    entity value of the record."""
    entries = attribute_candidates(record.attributes)
    for entry in record.sentences:
        for value, etype in zip(entry.values, entry.masked.slot_types()):
            entries.append(Candidate(value, etype, "article"))
    return CandidateSet(entries)


def build_fill_pairs(records: list[PaintingRecord]) -> list[FillPair]:
    pairs: list[FillPair] = []
    for record in records:
        candidates = record_candidates(record)
        for entry in record.sentences:
            if entry.masked.slot_count() == 0:
                continue
            pairs.append(FillPair([entry.masked], candidates, list(entry.values)))
    if not pairs:
        raise ConfigError("corpus has no slot-bearing sentences to train the filler on")
    return pairs


def fill_pair_loss(
    pairs: Sequence[FillPair],
    params: nc.ParamStore,
    vocab: Vocab,
) -> tuple[nc.Tensor | None, int, int]:
    """Sum of per-slot cross-entropies over type-compatible candidates, for
    a minibatch of pairs. Returns (loss or None, scored slot count, skipped
    slot count).

    Every slot's scores are one row of the minibatch's score matrix
    (:func:`slot_scores`), and one masked row-wise cross-entropy over the
    scored slots' rows keeps each softmax to the slot's compatible
    candidates."""
    fill_inputs = [pair.fill_input for pair in pairs]
    rows: list[int] = []
    golds: list[int] = []
    slot = column = 0
    for pair, fill_input in zip(pairs, fill_inputs):
        for target, etype in zip(pair.targets, fill_input.slot_types):
            gold = pair.candidates.find(target, etype)
            if gold is not None:
                rows.append(slot)
                golds.append(column + gold)
            slot += 1
        column += len(pair.candidates)
    skipped = slot - len(rows)
    if not rows:
        return None, 0, skipped
    scores, compatible = slot_scores(fill_inputs, [pair.candidates for pair in pairs],
                                     params, vocab)
    loss = nc.cross_entropy(nc.embedding(scores, rows), golds, mask=compatible[rows])
    return loss, len(rows), skipped


def train_filler(records: list[PaintingRecord], vocab: Vocab, config: FillerConfig,
                 **settings) -> Checkpoint:
    """The filler trained under ``TrainConfig(**settings)``."""
    tcfg = TrainConfig(**settings)
    pairs = build_fill_pairs(records)

    def batch_loss(batch: list[FillPair], store: nc.ParamStore):
        loss, n_slots, skipped = fill_pair_loss(batch, store, vocab)
        lengths = [len(pair.fill_input.tokens) for pair in batch]
        return loss, n_slots, {"loss": 0.0 if loss is None else loss.item(),
                               "skipped": skipped, **padding(lengths)}

    def summarize(totals: dict) -> dict:
        return {
            "loss_per_slot": totals["loss"] / totals["units"] if totals["units"] else None,
            "skipped_slots": totals["skipped"],
        }

    return fit(config, vocab, init_filler_params, pairs, tcfg, batch_loss, summarize)


def save_filler_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    save_model(path, "filler", ckpt)


def load_filler_checkpoint(path: str | Path) -> Checkpoint:
    return load_model(path, "filler", FillerConfig, init_filler_params)


# ----------------------------------------------------------------------
# Inference
# ----------------------------------------------------------------------


@dataclass
class FillDecision:
    position: int
    entity_type: str
    chosen: str | None
    score: float | None
    n_compatible: int


@dataclass
class FillResult:
    tokens: list[str]  # one unit per input token (multi-word fills stay one unit)
    decisions: list[FillDecision]
    # the token stream that metrics score: generated words as they are, each
    # chosen fill split by tokenize, and each placeholder one token
    rendered_tokens: list[str]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def placeholder(etype) -> str:
    return f"[unknown-{etype.name.lower()}]"


def fill_slots(
    masked: list[MaskedSentence],
    candidates: CandidateSet,
    ckpt: Checkpoint,
) -> FillResult:
    """Replace each slot with the argmax type-compatible candidate under
    :func:`slot_scores`, the forward that training runs; slots with no
    compatible candidate render as a visible placeholder. Non-slot tokens
    pass through verbatim, and are not re-tokenized. Score ties break by
    candidate surface so the choice is independent of candidate order."""
    fill_input = encode_fill_input(masked)
    scores, compatible = slot_scores([fill_input], [candidates], ckpt.store, ckpt.vocab)

    decisions: list[FillDecision] = []
    for pos, etype, row, ok in zip(fill_input.slot_positions, fill_input.slot_types,
                                   scores.data, compatible):
        scored = [(float(row[idx]), candidates.entries[idx].surface)
                  for idx in np.flatnonzero(ok)]
        if not scored:
            decisions.append(FillDecision(pos, etype.name.lower(), None, None, 0))
            continue
        best_score, best_surface = min(scored, key=lambda t: (-t[0], t[1].lower()))
        decisions.append(FillDecision(pos, etype.name.lower(), best_surface,
                                      best_score, len(scored)))

    out_tokens: list[str] = []
    rendered: list[str] = []
    fills = iter(decisions)  # one decision per slot, in slot order
    for sentence in masked:
        for token in sentence.tokens:
            if not isinstance(token, Slot):
                unit, split = token.text, [token.text]
            elif (chosen := next(fills).chosen) is not None:
                unit, split = chosen, tokenize(chosen)
            else:
                unit = placeholder(token.entity_type)
                split = [unit]
            out_tokens.append(unit)
            rendered.extend(split)
    return FillResult(out_tokens, decisions, rendered)
