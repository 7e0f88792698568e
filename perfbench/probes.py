"""Where the traced run attaches to each layer, and the per-layer metrics it
derives from the spans.

Wrappers go on the module attributes that callers look up at call time:
``nc.mlp_attention`` inside the decoder resolves ``artdesc.numcore``'s
attribute, ``generate`` inside ``Pipeline.describe`` resolves
``artdesc.pipeline``'s, and so on. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import re
import statistics
from importlib import import_module

from measure import median
from tracer import Tracer

NUMCORE_OPS = ("mlp_attention", "lstm_step", "affine", "backward", "adam_step")
_WORD_RE = re.compile(r"[a-z0-9]+")  # the token rule of retriever.normalize


class Counts:
    """Counters filled from the wrapped calls' arguments and results."""

    def __init__(self):
        self.tokens_generated = 0
        self.stemmed: set[str] = set()
        self.no_terms = 0
        self.no_index_match = 0
        self.slots = 0
        self.placeholders = 0
        self.skipped_slots = 0


def install(tracer: Tracer | None = None, counts: Counts | None = None) -> tuple[Tracer, Counts]:
    """Attach the wrappers; pass a tracer and counts from an earlier
    ``install`` (since restored) to keep adding to them."""
    # import_module: ``artdesc.decoder.generate`` as an attribute is the
    # re-exported function, not the module
    generate_mod = import_module("artdesc.decoder.generate")
    decoder_train = import_module("artdesc.decoder.train")
    candidates_mod = import_module("artdesc.filler.candidates")
    filler_train = import_module("artdesc.filler.train")
    nc = import_module("artdesc.numcore")
    pl = import_module("artdesc.pipeline")
    index_mod = import_module("artdesc.retriever.index")
    normalize_mod = import_module("artdesc.retriever.normalize")
    from artdesc.retriever import TfIdfIndex, default_stopwords

    tracer = tracer or Tracer()
    counts = counts or Counts()

    def on_generate(args, kwargs, sentence):
        counts.tokens_generated += len(sentence.tokens)

    def on_stem(args, kwargs, result):
        counts.stemmed.add(args[0])

    def on_rank(args, kwargs, ranked):
        if ranked:
            return
        query = args[1] if len(args) > 1 else kwargs["query"]
        stopwords = (args[3] if len(args) > 3 else kwargs.get("stopwords")) or default_stopwords()
        if any(tok not in stopwords for tok in _WORD_RE.findall(query.lower())):
            counts.no_index_match += 1
        else:
            counts.no_terms += 1

    def on_fill(args, kwargs, result):
        counts.slots += len(result.decisions)
        counts.placeholders += sum(d.chosen is None for d in result.decisions)

    def on_pair_loss(args, kwargs, result):
        counts.skipped_slots += result[2]

    for op in NUMCORE_OPS:
        tracer.patch(nc, op, f"numcore.{op}")
    tracer.patch(pl, "generate", "decoder.generate", after=on_generate)
    tracer.patch(generate_mod, "beam_decode", "decoder.beam_decode")
    tracer.patch(generate_mod, "greedy_decode", "decoder.greedy_decode")
    tracer.patch(decoder_train, "sequence_loss", "decoder.sequence_loss")
    tracer.patch(decoder_train, "classify_distributions", "decoder.classify_distributions")
    tracer.patch(TfIdfIndex, "build", "retriever.build")
    tracer.patch(TfIdfIndex, "load", "retriever.load")
    tracer.patch(TfIdfIndex, "rank", "retriever.rank", after=on_rank)
    tracer.patch(index_mod, "normalize_text", "retriever.normalize_text")
    tracer.patch(normalize_mod, "stem", "retriever.stem", leaf=True, after=on_stem)
    tracer.patch(pl, "extract_candidates", "filler.extract_candidates")
    tracer.patch(pl, "fill_slots", "filler.fill_slots", after=on_fill)
    tracer.patch(filler_train, "slot_scores", "filler.slot_scores")
    tracer.patch(filler_train, "fill_pair_loss", "filler.fill_pair_loss", after=on_pair_loss)
    tracer.patch(candidates_mod, "tag_entities", "corpus.tag_entities")
    tracer.patch(pl, "load_corpus", "corpus.load_corpus")
    tracer.patch(pl, "load_decoder_checkpoint", "pipeline.load_decoder_checkpoint")
    tracer.patch(pl, "load_filler_checkpoint", "pipeline.load_filler_checkpoint")
    tracer.patch(pl.Pipeline, "describe", "pipeline.describe")
    return tracer, counts


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, counts: Counts, overhead_share: float) -> dict:
    """Every per-layer metric as (value, unit). ``.calls`` and ``.self_ms``
    are totals over the traced part of the run, which does a fixed amount
    of work; ``.ms`` is the mean wall time per call (the median for warm
    ``rank``). A layer the workload never calls reads 0."""
    rows = tracer.by_name()

    def calls(name):
        return (rows[name]["calls"] if name in rows else 0, "count")

    def self_ms(name):
        return (rows[name]["self_ms"] if name in rows else 0.0, "ms")

    def per_call_ms(name):
        return (_mean(rows[name]["durations_ms"]) if name in rows else 0.0, "ms")

    out = {}
    for op in ("mlp_attention", "lstm_step", "affine"):
        out[f"numcore.{op}.calls"] = calls(f"numcore.{op}")
        out[f"numcore.{op}.self_ms"] = self_ms(f"numcore.{op}")
    out["numcore.backward.self_ms"] = self_ms("numcore.backward")
    out["numcore.adam_step.self_ms"] = self_ms("numcore.adam_step")

    beam_ms = sum(tracer.durations("decoder.beam_decode"))
    greedy_in_beam_ms = sum(tracer.durations("decoder.greedy_decode", under="decoder.beam_decode"))
    out["decoder.generate.ms"] = per_call_ms("decoder.generate")
    out["decoder.greedy_fallback.share"] = (greedy_in_beam_ms / beam_ms if beam_ms else 0.0,
                                            "ratio")
    out["decoder.tokens_generated"] = (counts.tokens_generated, "count")
    out["decoder.sequence_loss.self_ms"] = self_ms("decoder.sequence_loss")
    out["decoder.classify_distributions.self_ms"] = self_ms("decoder.classify_distributions")

    stem_calls = calls("retriever.stem")[0]
    cold_rank = tracer.durations("retriever.rank", under="bench.cold")
    warm_rank = tracer.durations("retriever.rank", under="bench.request")
    out["retriever.build.ms"] = per_call_ms("retriever.build")
    out["retriever.stem.calls"] = (stem_calls, "count")
    out["retriever.stem.self_ms"] = self_ms("retriever.stem")
    out["retriever.stem.distinct_share"] = (len(counts.stemmed) / stem_calls if stem_calls else 0.0,
                                            "ratio")
    out["retriever.postings_ms"] = (
        median(cold_rank) - median(warm_rank) if cold_rank and warm_rank else 0.0, "ms")
    out["retriever.load_ms"] = per_call_ms("retriever.load")
    out["retriever.rank.ms"] = (median(warm_rank), "ms")
    out["retriever.empty_queries.no_terms"] = (counts.no_terms, "count")
    out["retriever.empty_queries.no_index_match"] = (counts.no_index_match, "count")

    out["filler.extract_candidates.ms"] = per_call_ms("filler.extract_candidates")
    out["corpus.tag_entities.calls"] = calls("corpus.tag_entities")
    out["filler.fill_slots.ms"] = per_call_ms("filler.fill_slots")
    out["filler.slot_scores.self_ms"] = self_ms("filler.slot_scores")
    out["filler.placeholder_share"] = (counts.placeholders / counts.slots if counts.slots else 0.0,
                                       "ratio")
    out["filler.fill_pair_loss.self_ms"] = self_ms("filler.fill_pair_loss")
    out["filler.train.skipped_slots"] = (counts.skipped_slots, "count")

    loads = calls("pipeline.load_decoder_checkpoint")[0]
    artifact_ms = sum(rows[name]["total_ms"] for name in
                      ("pipeline.load_decoder_checkpoint", "pipeline.load_filler_checkpoint")
                      if name in rows)
    out["corpus.load_corpus.ms"] = per_call_ms("corpus.load_corpus")
    out["pipeline.load_artifacts_ms"] = (artifact_ms / loads if loads else 0.0, "ms")
    out["pipeline.describe.self_ms"] = self_ms("pipeline.describe")
    out["trace.overhead_share"] = (overhead_share, "ratio")
    return out
