"""Optimization and persistence shared by every ParamStore model.

The topic decoders and the knowledge filler train with the same minibatch
Adam loop. Each training setting and its default is written once, on
``TrainConfig`` and the model's config dataclass; the command line and
``train_filler`` take them from there. Both models persist as numcore
``.ckpt`` containers with one metadata schema and nothing else: ``kind``,
``config`` and its digest, ``vocab_tokens`` and theirs, and ``seed``. Loading
checks every key's type, verifies the digests and rejects a missing or
unknown key.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from artdesc import numcore as nc
from artdesc.corpus.corpusio import check_object, config_from_object
from artdesc.corpus.vocab import Vocab
from artdesc.errors import ArtdescError, ConfigError, DataError
from artdesc.numcore.checkpoint import digest_of, load_container, save_container

logger = logging.getLogger(__name__)

META_TYPES = {"kind": str, "config": dict, "config_digest": str, "vocab_tokens": list[str],
              "vocab_digest": str, "seed": int}


@dataclass
class TrainConfig:
    """Optimization settings for Adam at its fixed betas and eps: the rate
    starts at ``lr`` and decays by ``lr_decay`` every ``lr_decay_every``
    epochs, or never if that is None."""

    epochs: int
    lr: float = 5e-4
    lr_decay: float = 0.8
    lr_decay_every: int | None = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.lr_decay) and 0 < self.lr_decay <= 1):
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.lr_decay_every is not None and self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1 or None, got {self.lr_decay_every}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class Checkpoint:
    """A trained model: its config (a DecoderConfig or FillerConfig), vocab,
    parameters, training seed, per-epoch history (empty once loaded) and the
    trailer of the file it was loaded from (None if it was not)."""

    config: Any
    vocab: Vocab
    store: nc.ParamStore
    seed: int
    history: list[dict] = field(default_factory=list)
    sha256: str | None = None


def padding(lengths: Sequence[int]) -> dict[str, int]:
    """The (B, T) positions of one padded recurrence over sequences of these
    lengths, and how many of them are padding: the stats under which a batch
    loss reports its padding to :func:`fit`."""
    positions = len(lengths) * max(lengths)
    return {"positions": positions, "padded": positions - sum(lengths)}


def fit(
    config,
    vocab: Vocab,
    init_params: Callable[[Any, np.random.Generator], nc.ParamStore],
    items: Sequence,
    tcfg: TrainConfig,
    batch_loss: Callable[[list, nc.ParamStore], tuple[nc.Tensor | None, int, dict[str, float]]],
    summarize: Callable[[dict[str, float]], dict],
) -> Checkpoint:
    """Minibatch Adam over ``items`` for a model with this config and vocab,
    whose sizes must agree.

    ``init_params`` builds the store from the seeded generator, which then
    shuffles the items every epoch. ``batch_loss(batch, store)`` returns the
    minibatch's summed loss (None when it has none), the units that loss
    covers and named stats. Each minibatch steps on its loss divided by its
    units; a minibatch without a loss takes no step. The stats, and the units
    under ``"units"``, are summed over the epoch and ``summarize`` turns them
    into the fields of its history entry after ``epoch`` and ``lr``.

    As each epoch ends, an ``epoch`` event is logged with the history entry's
    fields plus ``seconds``, ``units_per_s``, ``batches`` and
    ``padded_share``: the share of padding among the positions that the
    batch losses report under ``"positions"`` and ``"padded"`` (see
    :func:`padding`). Counters and timings stay out of the history, which a
    fixed seed reproduces exactly.
    """
    if config.vocab_size != len(vocab):
        raise ConfigError(
            f"config vocab_size {config.vocab_size} does not match vocab of {len(vocab)} tokens"
        )
    rng = np.random.default_rng(tcfg.seed)
    store = init_params(config, rng)
    order = np.arange(len(items))
    history: list[dict] = []
    for epoch in range(tcfg.epochs):
        started = time.perf_counter()
        rng.shuffle(order)
        lr = nc.scheduled_lr(tcfg.lr, epoch, tcfg.lr_decay, tcfg.lr_decay_every)
        totals: dict[str, float] = {"units": 0, "positions": 0, "padded": 0}
        starts = range(0, len(order), tcfg.batch_size)
        for start in starts:
            store.clear_grads()
            batch = [items[idx] for idx in order[start : start + tcfg.batch_size]]
            loss, units, stats = batch_loss(batch, store)
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
            if loss is None:
                continue
            totals["units"] += units
            nc.backward(nc.scale(loss, 1.0 / units), store)
            nc.adam_step(store, lr)
            del loss  # the graph goes before the next minibatch builds its own
        entry = {"epoch": epoch, "lr": lr, **summarize(totals)}
        history.append(entry)
        seconds = time.perf_counter() - started
        logger.info("epoch", extra={
            **entry, "seconds": seconds, "units_per_s": totals["units"] / seconds,
            "batches": len(starts),
            "padded_share": totals["padded"] / totals["positions"] if totals["positions"] else 0.0,
        })
    return Checkpoint(config, vocab, store, tcfg.seed, history)


def save_model(path: str | Path, kind: str, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` with the shared metadata."""
    config = asdict(ckpt.config)
    meta = {
        "kind": kind,
        "config": config,
        "config_digest": digest_of(config),
        "vocab_tokens": ckpt.vocab.tokens,
        "vocab_digest": ckpt.vocab.digest(),
        "seed": ckpt.seed,
    }
    save_container(path, meta, ckpt.store.state_arrays())


class _ShapesOnly:
    """The generator ``load_model`` hands to ``init_params``: every draw is a
    zero-stride view of the asked shape, so a load draws no random numbers
    and writes no parameter before ``load_state`` adopts the checkpoint's."""

    @staticmethod
    def uniform(low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return np.broadcast_to(0.0, size)


def load_model(
    path: str | Path,
    kind: str,
    config_cls: type,
    init_params: Callable[[Any, np.random.Generator], nc.ParamStore],
) -> Checkpoint:
    """Read a checkpoint that ``save_model`` wrote with this ``kind``;
    ``init_params`` names the parameters and gives their shapes, and the
    checkpoint's arrays become their values."""
    meta, arrays, sha256 = load_container(path, "checkpoint")
    if meta.get("kind") != kind:
        raise ConfigError(f"{path} is not a {kind} checkpoint (kind={meta.get('kind')!r})")
    try:
        check_object(meta, f"{path} metadata", tuple(META_TYPES), META_TYPES, closed=True)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    config = config_from_object(config_cls, meta["config"], f"{path} config")
    vocab = Vocab(meta["vocab_tokens"])
    if digest_of(asdict(config)) != meta["config_digest"]:
        raise ConfigError(f"{path}: config digest mismatch; file corrupt or edited")
    if vocab.digest() != meta["vocab_digest"]:
        raise ConfigError(f"{path}: vocab digest mismatch; file corrupt or edited")
    store = init_params(config, _ShapesOnly())
    try:
        store.load_state(arrays)
    except ArtdescError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return Checkpoint(config, vocab, store, meta["seed"], sha256=sha256)
