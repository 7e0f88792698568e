"""train: the write path of numcore (backward, weight gradients, Adam).

One rotation trains the baseline, parallel and conditional decoders (the
last through ``train_conditional``, with its topic classifier) at the desk
grid L=4, D=6, the parallel decoder at the reference grid L=196, D=2048, and
the filler, each for a fixed number of epochs from a fixed seed. Rotations
repeat until the time is up. The desk grid is bound by per-node overhead,
the reference grid by GEMMs and outer products.

Epochs are timed by stamping each call of ``artdesc.numcore.scheduled_lr``,
which both trainers call once at the start of every epoch.
"""

from __future__ import annotations

import math
import time

import numpy as np

import artdesc.numcore as nc
from artdesc.corpus.vocab import build_vocab
from artdesc.decoder import (
    DecoderConfig,
    TrainConfig,
    build_training_items,
    train_conditional,
    train_decoder,
)
from artdesc.filler import FillerConfig, build_fill_pairs, build_filler_vocab, train_filler

import inputs
import probes
from measure import latency_metrics, median, peak_rss_mb

DESK_GRID = (4, 6)
REF_GRID = (196, 2048)
N_STYLES = 4
DESK_PAINTINGS = 8
REF_PAINTINGS = 2
FILLER_RECORDS = 24
DESK_EPOCHS = 5
REF_EPOCHS = 4
FILLER_EPOCHS = 2
SETUP_REPEATS = 5


class Job:
    """One training call with fixed inputs, epochs and seed."""

    def __init__(self, name: str, grid: str, fn, args: tuple, units_per_epoch: int):
        self.name = name
        self.grid = grid  # "desk", "ref" or "filler"
        self.fn = fn
        self.args = args
        self.units_per_epoch = units_per_epoch  # token steps, or slots for the filler


def _decoder_job(name, grid, fn, records, vocab, config, tcfg) -> Job:
    items = build_training_items(records, vocab, config.variant)
    steps = sum(len(item.token_ids) - 1 for item in items)
    return Job(name, grid, fn, (records, vocab, config, tcfg), steps)


def setup(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    pools = inputs.EntityPools(rng)
    desk = inputs.styled_corpus(rng, inputs.style_prototypes(rng, N_STYLES, *DESK_GRID),
                                pools, DESK_PAINTINGS, "d")
    ref = inputs.styled_corpus(rng, inputs.style_prototypes(rng, REF_PAINTINGS, *REF_GRID),
                               pools, REF_PAINTINGS, "r")
    texts = inputs.text_corpus(rng, pools, FILLER_RECORDS)

    jobs = []
    vocab = build_vocab([e.masked for r in desk for e in r.sentences])
    desk_tcfg = TrainConfig(epochs=DESK_EPOCHS, lr=5e-3, lr_decay_every=None, batch_size=4,
                            seed=seed)
    for variant, fn in (("baseline", train_decoder), ("parallel", train_decoder),
                        ("conditional", train_conditional)):
        config = DecoderConfig(variant=variant, vocab_size=len(vocab), feature_dim=DESK_GRID[1],
                               hidden_size=40, embed_size=24, max_len=12)
        jobs.append(_decoder_job(f"desk.{variant}", "desk", fn, desk, vocab, config, desk_tcfg))

    vocab = build_vocab([e.masked for r in ref for e in r.sentences])
    config = DecoderConfig(variant="parallel", vocab_size=len(vocab), feature_dim=REF_GRID[1],
                           hidden_size=32, embed_size=16, max_len=10)
    jobs.append(_decoder_job("ref.parallel", "ref", train_decoder, ref, vocab, config,
                             TrainConfig(epochs=REF_EPOCHS, lr=5e-3, lr_decay_every=None,
                                         batch_size=2, seed=seed)))

    fvocab = build_filler_vocab(texts)
    fconfig = FillerConfig(vocab_size=len(fvocab), hidden_size=16, embed_size=16,
                           type_embed_size=4)
    slots = sum(len(pair.targets) for pair in build_fill_pairs(texts))
    jobs.append(Job("filler", "filler", _train_filler, (texts, fvocab, fconfig, seed), slots))
    return jobs


def _train_filler(records, vocab, config, seed):
    return train_filler(records, vocab, config, epochs=FILLER_EPOCHS, lr=7e-3,
                        lr_decay_every=None, batch_size=8, seed=seed)


class EpochClock:
    """Stamps the start of every epoch; in the traced run it also names the
    epoch as the current request."""

    def __init__(self, tracer=None):
        self.stamps: list[float] = []
        self.tracer = tracer
        self.job = ""
        self._original = nc.scheduled_lr

        def stamped(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            if self.tracer is not None:
                self.tracer.request = f"{self.job}/epoch{len(self.stamps) - 1}"
            return self._original(*args, **kwargs)

        nc.scheduled_lr = stamped

    def close(self) -> None:
        nc.scheduled_lr = self._original


def _epoch_losses(job: Job, ckpt) -> list[float | None]:
    if job.grid == "filler":
        return [h["loss_per_slot"] for h in ckpt.history]
    return [h["nll_per_token"] + h.get("classifier_ce_per_item", 0.0) for h in ckpt.history]


class Rotation:
    """Runs the jobs in turn and keeps each epoch's time and loss."""

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        # ms per token step (per scored slot for the filler), one per epoch
        self.epoch_ms: dict[str, list[float]] = {"desk": [], "ref": [], "filler": []}
        self.first_epoch_ms: list[float] = []
        self.histories: dict[str, list] = {}
        self.final_nll: dict[str, float] = {}
        self.skipped_slots = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_once(self, clock: EpochClock) -> float:
        t_rot = time.perf_counter()
        for job in self.jobs:
            clock.stamps.clear()
            clock.job = job.name
            t0 = time.perf_counter()
            ckpt = job.fn(*job.args)
            t1 = time.perf_counter()
            bounds = clock.stamps + [t1]
            units = self._check(job, ckpt)
            self.epoch_ms[job.grid].extend((b - a) * 1000.0 / n
                                           for a, b, n in zip(bounds, bounds[1:], units))
            if job.grid == "ref":
                self.first_epoch_ms.append((bounds[1] - t0) * 1000.0)
        return (time.perf_counter() - t_rot) * 1000.0

    def _check(self, job: Job, ckpt) -> list[int]:
        """Counts non-finite epoch losses and histories that differ between
        rotations; returns the units each epoch processed."""
        losses = _epoch_losses(job, ckpt)
        self.attempted += len(losses)
        bad = [e for e, loss in enumerate(losses) if loss is None or not math.isfinite(loss)]
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{job.name}: loss not finite in epochs {bad}")
        first = self.histories.setdefault(job.name, ckpt.history)
        if first != ckpt.history:
            self.problems.append(f"{job.name}: history differs from the first rotation")
            self.failed += 1
        if job.grid == "filler":
            skipped = [h["skipped_slots"] for h in ckpt.history]
            self.skipped_slots += sum(skipped)
            return [job.units_per_epoch - n for n in skipped]
        self.final_nll.setdefault(job.name, ckpt.history[-1]["nll_per_token"])
        return [job.units_per_epoch] * len(losses)

    def run_for(self, seconds: float) -> float:
        clock = EpochClock()
        t0 = time.perf_counter()
        try:
            while True:
                self.run_once(clock)
                if time.perf_counter() - t0 >= seconds:
                    return time.perf_counter() - t0
        finally:
            clock.close()


def run(ctx) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS if not ctx.trace else 1):
        t0 = time.perf_counter()
        jobs = setup(ctx.seed)
        setups.append(time.perf_counter() - t0)

    rotation = Rotation(jobs)
    if ctx.trace:
        return _traced(rotation)
    seconds = rotation.run_for(ctx.seconds)

    final_nll = sum(rotation.final_nll.values()) / len(rotation.final_nll)

    def per_s(grid):  # the median epoch's rate
        return (1000.0 / median(rotation.epoch_ms[grid]), "1/s")

    named = {
        "setup_s": (median(setups), "s"),
        "train_tok_per_s.desk": per_s("desk"),
        "train_tok_per_s.ref": per_s("ref"),
        "filler_train_slots_per_s": per_s("filler"),
        "train_final_nll": (final_nll, "nats"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    desk = latency_metrics("desk_epoch_ms_per_token", rotation.epoch_ms["desk"])
    return {
        "named": named,
        "e2e": {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "op_ms.p50": desk["desk_epoch_ms_per_token.p50"],
            "op_ms.tail": desk["desk_epoch_ms_per_token.tail"],
            "cold_ms": (median(rotation.first_epoch_ms), "ms"),
            "work_per_s": named["train_tok_per_s.ref"],
            "quality": (100.0 * math.exp(-final_nll), "score"),
        },
        "attempted": rotation.attempted,
        "failed": rotation.failed,
        "problems": rotation.problems,
        "extra": {"measured_s": seconds, "setup_runs_s": setups, **desk,
                  "ref_first_epoch_ms": rotation.first_epoch_ms,
                  "final_nll_per_job": rotation.final_nll,
                  "filler_skipped_slots": rotation.skipped_slots},
    }


def _traced(rotation: Rotation) -> dict:
    clock = EpochClock()
    try:
        rotation.run_once(clock)  # warm-up: the first rotation pays first-touch costs
        untraced_ms = rotation.run_once(clock)
    finally:
        clock.close()
    tracer, counts = probes.install()
    clock = EpochClock(tracer)
    try:
        traced_ms = rotation.run_once(clock)
    finally:
        clock.close()
        tracer.restore()
    layers = probes.layer_metrics(tracer, counts, traced_ms / untraced_ms - 1.0)
    return {
        "layers": layers,
        "tracer": tracer,
        "counts": counts,
        "attempted": rotation.attempted,
        "failed": rotation.failed,
        "problems": rotation.problems,
        "extra": {"untraced_pass_ms": untraced_ms, "traced_pass_ms": traced_ms},
    }
