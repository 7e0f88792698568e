"""Teacher-forced decoder training and decoder checkpoint files.

Ground-truth construction: the baseline decoder trains on the whole masked
description; the parallel and conditional decoders train on per-topic
sequences built by appending the same-topic sentences of each painting. A
painting without sentences for some topic simply contributes no loss for that
topic. Sentences whose topic annotation is absent never enter topic training.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus import FeatureGrid, PaintingRecord, TopicLabel
from artdesc.corpus.vocab import Vocab
from artdesc.decoder.classifier import classify_distributions
from artdesc.decoder.config import DecoderConfig
from artdesc.decoder.model import decoder_input, init_decoder_params, init_state
from artdesc.errors import ConfigError
from artdesc.training import Checkpoint, TrainConfig, fit, load_model, padding, save_model


@dataclass
class TrainingItem:
    grid: FeatureGrid
    topic: TopicLabel | None  # None for the baseline variant
    token_ids: list[int]  # <s> ... </s>


def build_training_items(records: list[PaintingRecord], vocab: Vocab,
                         variant: str) -> list[TrainingItem]:
    items: list[TrainingItem] = []
    topics = [None] if variant == "baseline" else list(TopicLabel)
    for record in records:
        if record.features is None:
            raise ConfigError(f"painting '{record.id}' has no feature grid")
        for topic in topics:
            tokens = [token for entry in record.sentences
                      if topic is None or entry.topic_labeled and entry.masked.topic == topic
                      for token in vocab.encode(entry.masked)]
            if tokens:
                items.append(TrainingItem(record.features, topic,
                                          [vocab.start, *tokens, vocab.end]))
    if not items:
        raise ConfigError("corpus yields no training sequences")
    return items


def sequence_loss(
    grids: Sequence[FeatureGrid],
    token_ids: Sequence[list[int]],
    params: nc.ParamStore,
    prefix: str,
    topic_idx: Sequence[int] | None = None,
) -> tuple[nc.Tensor, int, nc.Tensor]:
    """Teacher-forced NLL of B sequences (``<s> ... </s>`` each) on the
    sub-decoder ``prefix``, summed over all their transitions; the number of
    transitions N; and the (N, V) output logits, one row per transition,
    sequence after sequence (the topic classifier reads their distributions).
    Sequences come longest first, each with its grid (and, for the
    conditional variant, its topic index).

    The minibatch is a handful of nodes: one embedding gather of the padded
    (B, T) inputs, one ``attend_lstm_seq`` recurrence, one output GEMM over
    the real rows and one row-wise cross-entropy."""
    def p(name: str) -> nc.Tensor:
        return params[f"{prefix}.{name}"]

    lengths = [len(ids) - 1 for ids in token_ids]
    inputs = np.full((len(token_ids), max(lengths)), Vocab.pad)
    for row, ids in zip(inputs, token_ids):
        row[: len(ids) - 1] = ids[:-1]
    x = nc.embedding(p("embed"), inputs)
    if topic_idx is not None:
        topics = np.repeat(np.asarray(topic_idx)[:, None], inputs.shape[1], axis=1)
        x = nc.concat([x, nc.embedding(p("topic.embed"), topics)], axis=2)
    stack = np.stack([grid.values for grid in grids])
    h0, c0 = init_state(stack, params, prefix)
    att = tuple(p(f"att.{name}") for name in ("w_v", "w_h", "b1", "w2", "b2"))
    hz = nc.attend_lstm_seq(stack, x, h0, c0, att, (p("lstm.w"), p("lstm.b")), lengths)
    logits = nc.linear(hz, p("out.w"), p("out.b"))
    targets = [t for ids in token_ids for t in ids[1:]]
    return nc.cross_entropy(logits, targets), len(targets), logits


def batch_loss(items: Sequence[TrainingItem], params: nc.ParamStore,
               config: DecoderConfig) -> tuple[nc.Tensor, int, dict[str, float]]:
    """The summed loss of a minibatch, its token transitions and its stats
    (``nll``, the conditional variant's ``ce``, and the padding counts of
    ``training.padding``).

    The items run as one recurrence per sub-decoder and grid size (the
    parallel variant groups them by topic), longest first. The conditional
    variant adds the topic classifier's cross-entropy on each item's word
    steps (the final step predicts </s>; a one-transition item keeps its one
    step)."""
    parallel, conditional = config.variant == "parallel", config.variant == "conditional"
    ordered = sorted(items, key=lambda item: (int(item.topic) if parallel else 0,
                                              item.grid.n_locations, -len(item.token_ids)))
    losses: list[nc.Tensor] = []
    stats = {"nll": 0.0, "positions": 0, "padded": 0}
    units = 0
    for (prefix, _), grouped in groupby(ordered, key=lambda item: (
            decoder_input(config.variant, item.topic)[0], item.grid.n_locations)):
        group = list(grouped)
        topics = ([decoder_input(config.variant, item.topic)[1] for item in group]
                  if conditional else None)
        nll, n_tokens, logits = sequence_loss([item.grid for item in group],
                                              [item.token_ids for item in group],
                                              params, prefix, topics)
        lengths = [len(item.token_ids) - 1 for item in group]
        for key, value in padding(lengths).items():
            stats[key] += value
        stats["nll"] += nll.item()
        units += n_tokens
        if not conditional:
            losses.append(nll)
            continue
        words = [max(n - 1, 1) for n in lengths]
        starts = np.cumsum(lengths) - lengths
        rows = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, words)])
        cls_logits = classify_distributions(nc.softmax(nc.embedding(logits, rows)), params,
                                            words)
        ce = nc.cross_entropy(cls_logits, topics)
        stats["ce"] = stats.get("ce", 0.0) + ce.item()
        losses.append(nc.add_n([nll, ce]))
    return (losses[0] if len(losses) == 1 else nc.add_n(losses)), units, stats


def train_decoder(records: list[PaintingRecord], vocab: Vocab,
                  config: DecoderConfig, tcfg: TrainConfig) -> Checkpoint:
    """Teacher-forced training of any variant: NLL, plus the topic
    classifier's cross-entropy on the decoder's output distributions
    (continuous approximation) for the conditional variant."""
    for record in records:
        if record.features is not None and record.features.feature_dim != config.feature_dim:
            raise ConfigError(
                f"painting '{record.id}' features have dim "
                f"{record.features.feature_dim}, config expects {config.feature_dim}"
            )
    items = build_training_items(records, vocab, config.variant)

    def summarize(totals: dict) -> dict:
        entry = {"nll_per_token": totals["nll"] / totals["units"]}
        if config.variant == "conditional":
            entry["classifier_ce_per_item"] = totals["ce"] / len(items)
        return entry

    return fit(config, vocab, init_decoder_params, items, tcfg,
               lambda batch, store: batch_loss(batch, store, config), summarize)


def train_conditional(records: list[PaintingRecord], vocab: Vocab,
                      config: DecoderConfig, tcfg: TrainConfig) -> Checkpoint:
    """``train_decoder`` for a config that must be of the conditional variant."""
    if config.variant != "conditional":
        raise ConfigError("train_conditional requires the conditional variant")
    return train_decoder(records, vocab, config, tcfg)


def save_decoder_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    save_model(path, "decoder", ckpt)


def load_decoder_checkpoint(path: str | Path) -> Checkpoint:
    return load_model(path, "decoder", DecoderConfig, init_decoder_params)
