"""End-to-end orchestration: generate masked sentences per topic, retrieve
knowledge, extract candidates, fill slots, and evaluate.

Every report names its inputs by content (SHA-256), never by path; given
identical inputs the describe output is byte-identical. Degraded modes (no
index, empty retrieval) warn and fall back to attribute-only candidates;
unfillable slots surface as visible placeholders.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from artdesc.corpus import (
    FeatureGrid,
    Gazetteer,
    PaintingRecord,
    TopicLabel,
    load_corpus,
    load_feature_grid,
    tokenize,
)
from artdesc.corpus.corpusio import config_from_object, feature_path, read_json
from artdesc.decoder import decoder_input, generate, load_decoder_checkpoint
from artdesc.errors import ConfigError, DataError, MissingArtifactError
from artdesc.filler import (
    extract_candidates,
    fill_slots,
    load_filler_checkpoint,
)
from artdesc.metrics import bleu4, rouge_l, slot_ratio
from artdesc.numcore.checkpoint import digest_of
from artdesc.retriever import EMPTY_QUERY, TfIdfIndex, build_query, load_blocklist

logger = logging.getLogger(__name__)

KNOWLEDGE_MODES = ("external-corpus", "reference-as-oracle")
DECODE_MODES = ("greedy", "beam")
# the PipelineConfig fields, other than the artifacts' paths, that change a report
OUTPUT_SETTINGS = ("seed", "retrieval_k", "knowledge_mode", "decode_mode", "beam_size")

# Reference-scale results reported for the full-scale system (complete SemArt
# corpus + Wikipedia knowledge base with pretrained encoders). Context only:
# not reproducible at desk scale; rendered into every evaluation report.
FULL_SCALE_CONTEXT = {
    "note": (
        "Reference values reported for the full-scale system trained on the "
        "complete SemArt corpus with a Wikipedia knowledge base; reproducible "
        "only if the operator supplies data at that scale."
    ),
    "slot_ratio_content_form_context": [0.98, 0.91, 2.12],
    "parallel_decoder_bleu4": 8.8,
    "retrieval_recall_all_articles": {"r@1": 13.8, "r@5": 36.6, "r@10": 45.5},
}


@dataclass
class PipelineConfig:
    corpus: str | None = None
    features_dir: str | None = None
    gazetteer: str | None = None
    # what `artdesc index` read; not read or hashed here, as the index holds the articles
    knowledge_file: str | None = None
    blocklist: str | None = None
    decoder_checkpoint: str | None = None
    filler_checkpoint: str | None = None
    index: str | None = None
    seed: int = 0
    retrieval_k: int = 5
    knowledge_mode: str = "external-corpus"
    decode_mode: str = "beam"
    beam_size: int = 5

    def __post_init__(self):
        if self.knowledge_mode not in KNOWLEDGE_MODES:
            raise ConfigError(f"unknown knowledge_mode '{self.knowledge_mode}'; "
                              f"expected one of {list(KNOWLEDGE_MODES)}")
        if self.decode_mode not in DECODE_MODES:
            raise ConfigError(f"unknown decode_mode '{self.decode_mode}'; "
                              f"expected one of {list(DECODE_MODES)}")
        for name in ("retrieval_k", "beam_size"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            payload = read_json(path)
        except FileNotFoundError:
            raise MissingArtifactError(f"pipeline config not found: {path}") from None
        return config_from_object(cls, payload, str(path))

    def require(self, *fields: str) -> None:
        """Validate that the named path fields are set and name an existing
        file, or directory for ``features_dir``."""
        for name in fields:
            value = getattr(self, name)
            if value is None:
                raise MissingArtifactError(
                    f"pipeline stage needs '{name}' but the config does not set it"
                )
            if not Path(value).exists():
                raise MissingArtifactError(f"'{name}' points to a missing path: {value}")
            if not value or Path(value).is_dir() != (name == "features_dir"):
                kind = "directory" if name == "features_dir" else "file"
                raise ConfigError(f"'{name}' must name a {kind}, got {value!r}")


def _logged_load(artifact: str, path, load):
    """``load(path)``, logged as a DEBUG ``loaded artifact`` event."""
    started = time.perf_counter()
    value = load(path)
    logger.debug("loaded artifact", extra={"artifact": artifact, "path": str(path),
                                           "seconds": time.perf_counter() - started})
    return value


class Pipeline:
    """Lazily loads artifacts; any missing stage raises MissingArtifactError
    naming what to produce first. Paths that the config does set are
    validated up front. The corpus loads without its feature grids, and its
    records are never changed: ``describe`` reads the grid of a record that
    carries none for that one describe, and ``record_by_id`` returns a copy
    of the record that carries its grid."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        for name in ("corpus", "features_dir", "gazetteer", "blocklist",
                     "decoder_checkpoint", "filler_checkpoint", "index"):
            if getattr(config, name) is not None:
                config.require(name)
        self._artifacts: dict[str, object] = {}
        self._blocklist = load_blocklist(config.blocklist)
        self._blocklist_sha256 = digest_of(sorted(self._blocklist))

    # ------------------------------------------------------------------
    # Artifact loading
    # ------------------------------------------------------------------

    def _artifact(self, name: str, field: str, load):
        """``load(path)`` of the config's ``field``, on first use only."""
        if name not in self._artifacts:
            self.config.require(field)
            path = getattr(self.config, field)
            self._artifacts[name] = _logged_load(name, path, load)
        return self._artifacts[name]

    @property
    def records(self) -> list[PaintingRecord]:
        return self._artifact("corpus", "corpus", load_corpus)

    def _grid(self, record: PaintingRecord) -> FeatureGrid | None:
        """The record's own grid, else the one read from ``features_dir``."""
        if record.features is None and self.config.features_dir is not None:
            path = feature_path(self.config.features_dir, record.id)
            return _logged_load("feature grid", path, load_feature_grid)
        return record.features

    def record_by_id(self, painting_id: str) -> PaintingRecord:
        for record in self.records:
            if record.id == painting_id:
                return replace(record, features=self._grid(record))
        raise DataError(f"painting '{painting_id}' not found in the corpus")

    @property
    def gazetteer(self) -> Gazetteer:
        return self._artifact("gazetteer", "gazetteer", Gazetteer.from_file)

    @property
    def decoder(self):
        return self._artifact("decoder", "decoder_checkpoint", load_decoder_checkpoint)

    @property
    def filler(self):
        return self._artifact("filler", "filler_checkpoint", load_filler_checkpoint)

    @property
    def index(self) -> TfIdfIndex:
        return self._artifact("index", "index", TfIdfIndex.load)

    # ------------------------------------------------------------------
    # describe
    # ------------------------------------------------------------------

    def _retrieve(self, record: PaintingRecord, query: str):
        """Returns (ranked (id, score) list, article bodies)."""
        if self.config.knowledge_mode == "reference-as-oracle":
            if not record.reference:
                logger.warning("no reference text for oracle mode", extra={"painting": record.id})
                return [], []
            return [(f"{record.id}::reference", 1.0)], [record.reference]
        try:
            index = self.index
        except MissingArtifactError:
            logger.warning("no knowledge index available; continuing without retrieval")
            return [], []
        ranked = index.rank(query, self.config.retrieval_k)
        return ranked, [index.body(article_id) for article_id, _ in ranked]

    def describe(self, record: PaintingRecord,
                 topics: tuple = tuple(TopicLabel)) -> dict:
        """Full pipeline for one painting; returns the provenance report.
        The description composes the requested topics in the enum's order:
        content, form, context. Each distinct decoder input among them is
        decoded once: a baseline decoder reads the same input for every
        topic, so its one sentence stands under each requested topic."""
        features = self._grid(record)
        if features is None:
            raise MissingArtifactError(
                f"painting '{record.id}' has no feature grid; supply features first"
            )
        beam_size = 1 if self.config.decode_mode == "greedy" else self.config.beam_size
        decoded, sentences = {}, {}  # decoder input -> its sentence; topic -> its sentence
        for topic in (topic for topic in TopicLabel if topic in topics):
            key = decoder_input(self.decoder.config.variant, topic)
            if key not in decoded:
                decoded[key] = generate(self.decoder, features, topic, beam_size)
            sentences[topic] = replace(decoded[key], topic=topic)
        masked = list(sentences.values())
        query = build_query(record.attributes, record.objects, self._blocklist)
        if not query:
            logger.warning(EMPTY_QUERY, extra={"painting": record.id})
        ranked, bodies = self._retrieve(record, query)
        candidates = extract_candidates(bodies, record.attributes, self.gazetteer)
        result = fill_slots(masked, candidates, self.filler)
        used = ("decoder", "filler", "gazetteer", "index")
        inputs = {name: self._artifacts[name].sha256 for name in used if name in self._artifacts}
        inputs["blocklist"] = self._blocklist_sha256
        settings = {name: getattr(self.config, name) for name in OUTPUT_SETTINGS}
        return {
            "painting_id": record.id,
            "seed": self.config.seed,
            "inputs": inputs,
            "inputs_digest": digest_of({"inputs": inputs, **settings}),
            "knowledge_mode": self.config.knowledge_mode,
            "query": query,
            "retrieved": [{"article_id": aid, "score": score} for aid, score in ranked],
            "candidates": [
                {"surface": c.surface, "type": c.entity_type.name.lower(), "source": c.source}
                for c in candidates
            ],
            "sentences": {
                topic.name.lower(): sentence.surfaces() for topic, sentence in sentences.items()
            },
            "slots": [asdict(d) for d in result.decisions],
            "description": result.text,
            "description_tokens": result.rendered_tokens,
        }

    def describe_by_id(self, painting_id: str) -> dict:
        return self.describe(self.record_by_id(painting_id))

    # ------------------------------------------------------------------
    # evaluate
    # ------------------------------------------------------------------

    def evaluate(self, reports: list[dict],
                 records: list[PaintingRecord] | None = None) -> dict:
        """Corpus metrics over describe() reports against reference texts."""
        if records is None:
            records = self.records
        by_id = {r.id: r for r in records}
        missing = [rep["painting_id"] for rep in reports if rep["painting_id"] not in by_id]
        if missing:
            raise DataError(f"reports cover paintings missing from the split: {sorted(missing)}")
        if not reports:
            raise DataError("no reports to evaluate")

        bleu_scores = []
        rouge_scores = []
        placeholder_slots = 0
        total_slots = 0
        sentence_counts = {t.name.lower(): 0 for t in TopicLabel}
        per_painting = []
        for report in reports:
            record = by_id[report["painting_id"]]
            reference = tokenize(record.reference)
            prediction = report["description_tokens"]
            if not reference:
                raise DataError(f"painting '{record.id}': no reference text to score against "
                                "(it has no sentences and no reference)")
            if not prediction:
                raise DataError(f"painting '{record.id}': its report has no description_tokens")
            b = bleu4(prediction, [reference])
            r = rouge_l(prediction, reference)
            bleu_scores.append(b)
            rouge_scores.append(r)
            for slot in report["slots"]:
                total_slots += 1
                placeholder_slots += slot["chosen"] is None
            for topic, tokens in report["sentences"].items():
                sentence_counts[topic] += bool(tokens)
            per_painting.append({"painting_id": report["painting_id"],
                                 "bleu4": b, "rouge_l": r})

        ratios = slot_ratio(
            entry.masked for rid in sorted(by_id) for entry in by_id[rid].sentences
        )
        return {
            "seed": self.config.seed,
            "inputs_digests": sorted({report["inputs_digest"] for report in reports}),
            "num_paintings": len(reports),
            "bleu4": sum(bleu_scores) / len(bleu_scores),
            "rouge_l": sum(rouge_scores) / len(rouge_scores),
            "placeholder_rate": (placeholder_slots / total_slots) if total_slots else 0.0,
            "per_topic_sentence_counts": sentence_counts,
            "corpus_slot_ratio": {t.name.lower(): v for t, v in ratios.items()},
            "per_painting": per_painting,
            "full_scale_context": FULL_SCALE_CONTEXT,
        }


def render_evaluation(report: dict) -> str:
    """Human-readable rendering of an evaluation report."""
    lines = [
        f"paintings evaluated : {report['num_paintings']}",
        f"BLEU-4 (mean)       : {report['bleu4']:.2f}",
        f"ROUGE-L (mean)      : {report['rouge_l']:.2f}",
        f"placeholder rate    : {100.0 * report['placeholder_rate']:.1f}%",
        "sentences per topic : "
        + ", ".join(f"{k}={v}" for k, v in report["per_topic_sentence_counts"].items()),
        "slot ratio (corpus) : "
        + ", ".join(f"{k}={v:.2f}" for k, v in report["corpus_slot_ratio"].items()),
        "",
        "full-scale context (not desk-reproducible):",
        f"  slot ratios content/form/context : "
        + "/".join(str(v) for v in report["full_scale_context"]["slot_ratio_content_form_context"]),
        f"  parallel-decoder BLEU-4          : "
        + str(report["full_scale_context"]["parallel_decoder_bleu4"]),
        f"  retrieval recall (all articles)  : "
        + ", ".join(
            f"{k}={v}"
            for k, v in report["full_scale_context"]["retrieval_recall_all_articles"].items()
        ),
    ]
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    """Canonical serialization: byte-identical across runs with fixed seed."""
    return json.dumps(report, sort_keys=True, ensure_ascii=False)
