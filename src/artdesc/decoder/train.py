"""Teacher-forced decoder training and decoder checkpoint files.

Ground-truth construction: the baseline decoder trains on the whole masked
description; the parallel and conditional decoders train on per-topic
sequences built by appending the same-topic sentences of each painting. A
painting without sentences for some topic simply contributes no loss for that
topic. Sentences whose topic annotation is absent never enter topic training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from artdesc import numcore as nc
from artdesc.corpus import FeatureGrid, PaintingRecord, TopicLabel
from artdesc.corpus.vocab import Vocab
from artdesc.decoder.classifier import classify_distributions
from artdesc.decoder.config import DecoderConfig
from artdesc.decoder.model import (
    init_decoder_params,
    init_state,
    sub_prefix,
    topic_embedding_index,
)
from artdesc.errors import ConfigError
from artdesc.training import Checkpoint, TrainConfig, fit, load_model, save_model


@dataclass
class TrainingItem:
    grid: FeatureGrid
    topic: TopicLabel | None  # None for the baseline variant
    token_ids: list[int]  # <s> ... </s>


def build_training_items(records: list[PaintingRecord], vocab: Vocab,
                         variant: str) -> list[TrainingItem]:
    items: list[TrainingItem] = []
    for record in records:
        if record.features is None:
            raise ConfigError(f"painting '{record.id}' has no feature grid")
        if variant == "baseline":
            tokens: list[int] = []
            for entry in record.sentences:
                tokens.extend(vocab.encode(entry.masked))
            if tokens:
                items.append(TrainingItem(record.features, None,
                                          [vocab.start] + tokens + [vocab.end]))
        else:
            for topic in TopicLabel:
                tokens = []
                for entry in record.sentences:
                    if entry.topic_labeled and entry.masked.topic == topic:
                        tokens.extend(vocab.encode(entry.masked))
                if tokens:
                    items.append(TrainingItem(record.features, topic,
                                              [vocab.start] + tokens + [vocab.end]))
    if not items:
        raise ConfigError("corpus yields no training sequences")
    return items


def sequence_loss(
    grid: FeatureGrid,
    token_ids: list[int],
    params: nc.ParamStore,
    prefix: str,
    topic_idx: int | None = None,
) -> tuple[nc.Tensor, int, nc.Tensor]:
    """Teacher-forced NLL summed over the transitions of ``token_ids``, the
    number of transitions T, and the (T, V) output logits, one row per
    transition (the topic classifier reads their distributions).

    The whole sequence is a handful of nodes: one embedding gather, one
    ``attend_lstm_seq`` recurrence, one output GEMM and one row-wise
    cross-entropy."""
    def p(name: str) -> nc.Tensor:
        return params[f"{prefix}.{name}"]

    inputs = token_ids[:-1]
    x = nc.embedding(p("embed"), inputs)
    if topic_idx is not None:
        x = nc.concat([x, nc.embedding(p("topic.embed"), [topic_idx] * len(inputs))], axis=1)
    h0, c0 = init_state(grid, params, prefix)
    att = tuple(p(f"att.{name}") for name in ("w_v", "w_h", "b1", "w2", "b2"))
    hz = nc.attend_lstm_seq(grid.values, x, h0, c0, att, (p("lstm.w"), p("lstm.b")))
    logits = nc.linear(hz, p("out.w"), p("out.b"))
    return nc.cross_entropy(logits, token_ids[1:]), len(inputs), logits


def _validate(records: list[PaintingRecord], config: DecoderConfig) -> None:
    if not records:
        raise ConfigError("empty corpus")
    for record in records:
        if record.features is not None and record.features.feature_dim != config.feature_dim:
            raise ConfigError(
                f"painting '{record.id}' features have dim "
                f"{record.features.feature_dim}, config expects {config.feature_dim}"
            )


def _train(records: list[PaintingRecord], vocab: Vocab, config: DecoderConfig,
           tcfg: TrainConfig, classifier_weight: float) -> Checkpoint:
    _validate(records, config)
    items = build_training_items(records, vocab, config.variant)
    use_classifier = classifier_weight != 0.0 and config.variant == "conditional"

    def item_loss(item: TrainingItem, store: nc.ParamStore):
        prefix = sub_prefix(config.variant, item.topic)
        topic_idx = topic_embedding_index(config.variant, item.topic)
        nll, n_tokens, logits = sequence_loss(item.grid, item.token_ids, store, prefix,
                                              topic_idx)
        stats = {"nll": nll.item()}
        if not use_classifier:
            return nll, n_tokens, stats
        # classify the word steps (the final step predicts </s>)
        word_logits = nc.embedding(logits, range(max(n_tokens - 1, 1)))
        cls_logits = classify_distributions(nc.softmax(word_logits), store, config)
        ce = nc.cross_entropy(cls_logits, int(item.topic))
        stats["ce"] = ce.item()
        return nc.add(nll, nc.scale(ce, classifier_weight)), n_tokens, stats

    def summarize(totals: dict) -> dict:
        entry = {"nll_per_token": totals["nll"] / totals["units"]}
        if use_classifier:
            entry["classifier_ce_per_item"] = totals["ce"] / len(items)
        return entry

    return fit(config, vocab, init_decoder_params, items, tcfg, item_loss, summarize)


def train_decoder(records: list[PaintingRecord], vocab: Vocab,
                  config: DecoderConfig, tcfg: TrainConfig) -> Checkpoint:
    """Pure teacher-forced NLL training for any variant."""
    return _train(records, vocab, config, tcfg, classifier_weight=0.0)


def train_conditional(records: list[PaintingRecord], vocab: Vocab,
                      config: DecoderConfig, tcfg: TrainConfig) -> Checkpoint:
    """Joint objective: NLL plus topic-classifier cross-entropy on the
    decoder's output distributions (continuous approximation)."""
    if config.variant != "conditional":
        raise ConfigError("train_conditional requires the conditional variant")
    return _train(records, vocab, config, tcfg,
                  classifier_weight=tcfg.classifier_loss_weight)


def save_decoder_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    final_nll = ckpt.history[-1]["nll_per_token"] if ckpt.history else None
    save_model(path, "decoder", ckpt, variant=ckpt.config.variant,
               final_nll_per_token=final_nll)


def load_decoder_checkpoint(path: str | Path,
                            expected_vocab: Vocab | None = None) -> Checkpoint:
    ckpt = load_model(path, "decoder", DecoderConfig, init_decoder_params,
                      frozenset({"variant", "final_nll_per_token"}))
    if expected_vocab is not None and expected_vocab.digest() != ckpt.vocab.digest():
        raise ConfigError(f"{path}: checkpoint vocab differs from the supplied vocab")
    return ckpt
