"""describe: ``Pipeline.describe`` on held-out paintings at the reference grid.

Set-up trains a desk-size parallel decoder and a filler on a small entity
corpus, builds a knowledge index over synthetic artist articles that name the
gazetteer entities, and writes every artifact plus ``pipeline.json``. The
model side (styles, entity names, training corpus) is the same for every
seed, so every seed describes with the same model; the seed draws the
held-out paintings, their metadata and the knowledge base.
"""

from __future__ import annotations

import json
import shutil
import time

import numpy as np

import artdesc.pipeline as pl
from artdesc.corpus import save_corpus, save_feature_grid
from artdesc.corpus.vocab import build_vocab
from artdesc.decoder import DecoderConfig, TrainConfig, save_decoder_checkpoint, train_decoder
from artdesc.filler import FillerConfig, build_filler_vocab, save_filler_checkpoint, train_filler
from artdesc.retriever import KnowledgeArticle, TfIdfIndex

import inputs
import probes
from measure import latency_metrics, median, ms_since, peak_rss_mb

GRID = (196, 2048)
N_STYLES = 4
N_TRAIN = 4
N_HELD_OUT = 16
NO_METADATA_EVERY = 6  # every sixth held-out painting has no usable metadata
KB_ARTICLES = 1000
KB_TOKENS = 40
SETUP_REPEATS = 3
COLD_REPEATS = 5
MODEL_SEED = 0
# the smallest decoder training that emits the full templates, slots included
DEC_HIDDEN = 16
DEC_EPOCHS = 18
DEC_LR = 1.5e-2
DEC_BATCH = 2
FILL_EPOCHS = 5


def setup(workdir, seed: int) -> tuple[str, list[str]]:
    """Writes all artifacts under ``workdir``; returns the config path and
    the held-out painting ids."""
    workdir.mkdir(parents=True)
    model_rng = np.random.default_rng(MODEL_SEED)
    pools = inputs.EntityPools(model_rng)
    prototypes = inputs.style_prototypes(model_rng, N_STYLES, *GRID)
    train_records = inputs.styled_corpus(model_rng, prototypes, pools, N_TRAIN, "t")
    filler_records = inputs.text_corpus(model_rng, pools, 24)
    lexicon = inputs.Lexicon(n_words=5000, seed=MODEL_SEED)

    rng = np.random.default_rng(seed)
    articles = inputs.knowledge_articles(rng, lexicon, KB_ARTICLES, KB_TOKENS,
                                         pools.people, pools.places, pools.homes)
    held_out = []
    for i in range(N_HELD_OUT):
        style = i % N_STYLES
        objects = lexicon.text(rng, 2, stop_share=0.0)
        held_out.append(inputs.painting(rng, f"h{i:03d}", style, prototypes[style], pools,
                                        with_metadata=i % NO_METADATA_EVERY != NO_METADATA_EVERY - 1,
                                        objects=objects))

    features = workdir / "features"
    features.mkdir()
    for record in train_records + held_out:
        save_feature_grid(features / f"{record.id}.fgrd", record.features.values)
    save_corpus(workdir / "corpus.jsonl", train_records + held_out)
    (workdir / "gazetteer.tsv").write_text(pools.gazetteer_tsv(), encoding="utf-8")
    with open(workdir / "knowledge.jsonl", "w", encoding="utf-8") as f:
        for a in articles:
            f.write(json.dumps({"id": a["id"], "title": a["title"], "body": a["body"]}) + "\n")
    TfIdfIndex.build([KnowledgeArticle(a["id"], a["title"], a["body"]) for a in articles]
                     ).save(workdir / "knowledge.idx")

    vocab = build_vocab([e.masked for r in train_records for e in r.sentences])
    dec_config = DecoderConfig(variant="parallel", vocab_size=len(vocab), feature_dim=GRID[1],
                               hidden_size=DEC_HIDDEN, embed_size=16, max_len=10)
    decoder = train_decoder(train_records, vocab, dec_config,
                            TrainConfig(epochs=DEC_EPOCHS, lr=DEC_LR, lr_decay_every=None,
                                        batch_size=DEC_BATCH, seed=7))
    save_decoder_checkpoint(workdir / "decoder.ckpt", decoder)

    fvocab = build_filler_vocab(filler_records)
    fill_config = FillerConfig(vocab_size=len(fvocab), hidden_size=16, embed_size=16,
                               type_embed_size=4)
    filler = train_filler(filler_records, fvocab, fill_config, epochs=FILL_EPOCHS, lr=7e-3,
                          lr_decay_every=None, batch_size=8, seed=8)
    save_filler_checkpoint(workdir / "filler.ckpt", filler)

    config = {
        "corpus": str(workdir / "corpus.jsonl"),
        "features_dir": str(features),
        "gazetteer": str(workdir / "gazetteer.tsv"),
        "knowledge_file": str(workdir / "knowledge.jsonl"),
        "decoder_checkpoint": str(workdir / "decoder.ckpt"),
        "filler_checkpoint": str(workdir / "filler.ckpt"),
        "index": str(workdir / "knowledge.idx"),
        "seed": seed,
        "retrieval_k": 5,
        "knowledge_mode": "external-corpus",
        "decode_mode": "beam",
        "beam_size": 5,
    }
    config_path = workdir / "pipeline.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return str(config_path), [r.id for r in held_out]


def check_report(report: dict) -> list[str]:
    """Every slot holds a candidate of its own type or a placeholder."""
    problems = []
    typed = {(c["surface"], c["type"]) for c in report["candidates"]}
    n_slots = sum(tok.startswith("[") and tok.endswith("]")
                  for sentence in report["sentences"].values() for tok in sentence)
    if n_slots != len(report["slots"]):
        problems.append(f"{report['painting_id']}: {n_slots} slots generated, "
                        f"{len(report['slots'])} decided")
    placeholders = 0
    for slot in report["slots"]:
        if slot["chosen"] is None:
            placeholders += 1
            if slot["n_compatible"] != 0:
                problems.append(f"{report['painting_id']}: placeholder despite "
                                f"{slot['n_compatible']} compatible candidates")
        elif (slot["chosen"], slot["entity_type"]) not in typed:
            problems.append(f"{report['painting_id']}: slot of type {slot['entity_type']} "
                            f"holds '{slot['chosen']}', not a candidate of that type")
    shown = sum(tok.startswith("[unknown-") for tok in report["description"].split())
    if shown != placeholders:
        problems.append(f"{report['painting_id']}: {placeholders} unfilled slots but "
                        f"{shown} placeholders rendered")
    return problems


def _tokens_generated(report: dict) -> int:
    return sum(len(s) for s in report["sentences"].values())


class _Loop:
    """Closed loop, one client: whole passes over the held-out paintings
    until the time is up. Checks that each painting's report repeats byte
    for byte and that its slots are well filled."""

    def __init__(self, pipeline, ids: list[str]):
        self.pipeline = pipeline
        self.records = [pipeline.record_by_id(pid) for pid in ids]
        self.first: dict[str, tuple[str, dict]] = {}
        self.latencies: list[float] = []
        self.token_rates: list[float] = []  # generated tokens per second, per describe
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, tracer=None) -> float:
        t_pass = time.perf_counter()
        for record in self.records:
            self.attempted += 1
            t0 = time.perf_counter()
            if tracer is None:
                report = self.pipeline.describe(record)
            else:
                with tracer.span("bench.request", record.id):
                    report = self.pipeline.describe(record)
            self.latencies.append(ms_since(t0))
            self.token_rates.append(1000.0 * _tokens_generated(report) / self.latencies[-1])
            self._check(report)
        return ms_since(t_pass)

    def _check(self, report: dict) -> None:
        text = pl.report_to_json(report)
        pid = report["painting_id"]
        if pid not in self.first:
            self.first[pid] = (text, report)
            problems = check_report(report)
        elif text != self.first[pid][0]:
            problems = [f"{pid}: report differs from its first run"]
        else:
            problems = []
        self.failed += bool(problems)
        self.problems.extend(problems)

    def cold(self, config_path: str) -> float:
        """A fresh pipeline from ``pipeline.json`` and its first describe,
        which is what one CLI ``describe --painting-id`` call pays."""
        t0 = time.perf_counter()
        pipeline = pl.Pipeline(pl.PipelineConfig.from_file(config_path))
        report = pipeline.describe_by_id(self.records[0].id)
        elapsed = ms_since(t0)
        self.attempted += 1
        self._check(report)
        return elapsed

    def run_for(self, seconds: float, config_path: str) -> tuple[float, list[float]]:
        """Warm passes until the time is up, each followed by a cold describe
        so that both sample the whole run; tops the cold samples up to
        COLD_REPEATS. Returns the seconds the warm passes took and the cold
        times."""
        warm_s = 0.0
        colds = []
        while warm_s < seconds:
            warm_s += self.one_pass() / 1000.0
            colds.append(self.cold(config_path))
        while len(colds) < COLD_REPEATS:
            colds.append(self.cold(config_path))
        return warm_s, colds


def run(ctx) -> dict:
    setups = []
    for i in range(SETUP_REPEATS if not ctx.trace else 1):
        workdir = ctx.workdir / f"setup{i}"
        t0 = time.perf_counter()
        config_path, ids = setup(workdir, ctx.seed)
        setups.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(ctx.workdir / f"setup{i - 1}")

    pipeline = pl.Pipeline(pl.PipelineConfig.from_file(config_path))
    loop = _Loop(pipeline, ids)
    pipeline.describe(loop.records[0])  # load artifacts and postings before timing

    if ctx.trace:
        return _traced(loop, config_path, ids)

    seconds, colds = loop.run_for(ctx.seconds, config_path)

    evaluation = pipeline.evaluate([loop.first[pid][1] for pid in ids], loop.records)
    named = {
        "setup_s": (median(setups), "s"),
        **latency_metrics("describe_ms", loop.latencies),
        "describe_cold_ms": (median(colds), "ms"),
        "describe_bleu4": (evaluation["bleu4"], "score"),
        "describe_placeholder_rate": (evaluation["placeholder_rate"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "named": named,
        "e2e": {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "op_ms.p50": named["describe_ms.p50"],
            "op_ms.tail": named["describe_ms.tail"],
            "cold_ms": named["describe_cold_ms"],
            "work_per_s": (median(loop.token_rates), "1/s"),
            "quality": named["describe_bleu4"],
        },
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "extra": {"measured_s": seconds, "setup_runs_s": setups, "cold_runs_ms": colds,
                  "held_out": len(ids), "latencies_ms": loop.latencies},
    }


def _traced(loop: _Loop, config_path: str, ids: list[str]) -> dict:
    untraced_ms = loop.one_pass()
    tracer, counts = probes.install()
    try:
        with tracer.span("bench.cold", ids[0]):
            loop.cold(config_path)
        traced_ms = loop.one_pass(tracer)
    finally:
        tracer.restore()
    layers = probes.layer_metrics(tracer, counts, traced_ms / untraced_ms - 1.0)
    return {
        "layers": layers,
        "tracer": tracer,
        "counts": counts,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "extra": {"untraced_pass_ms": untraced_ms, "traced_pass_ms": traced_ms},
    }
