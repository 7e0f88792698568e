"""End-to-end pipeline: describe provenance, determinism, oracle
reconstruction, degraded modes, and evaluation reports.

The session-scoped `world` fixture (trained corpus + checkpoints + index on
disk) lives in conftest.py and is shared with the acceptance suite."""

import copy
import json
import logging
import shutil
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from synth import entity_corpus

from artdesc import pipeline as pipeline_module
from artdesc.corpus import (
    PaintingRecord,
    TopicLabel,
    corpusio,
    load_feature_grid,
    save_corpus,
    save_feature_grid,
    tokenize,
)
from artdesc.decoder import DecoderConfig, TrainConfig, save_decoder_checkpoint, train_decoder
from artdesc.errors import DataError, MissingArtifactError
from artdesc.pipeline import Pipeline, PipelineConfig, render_evaluation, report_to_json

EMPTY_QUERY_EVENT = "built an empty retrieval query (no attributes or usable objects)"


class TestDescribeOracle:
    def test_reconstructs_reference_descriptions(self, world):
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        for record in records:
            report = pipeline.describe(record)
            assert report["description_tokens"] == tokenize(record.reference)

    def test_provenance_fields(self, world):
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        report = pipeline.describe(records[0])
        assert report["painting_id"] == records[0].id
        assert report["seed"] == 7
        assert set(report["inputs"]) == {"decoder", "filler", "gazetteer", "blocklist"}
        assert all(len(digest) == 64 for digest in report["inputs"].values())
        assert len(report["inputs_digest"]) == 64
        assert report["retrieved"][0]["article_id"].endswith("::reference")
        assert report["query"]  # attributes produce a non-empty query
        assert {c["source"] for c in report["candidates"]} <= {"attribute", "article"}
        for slot in report["slots"]:
            assert slot["chosen"] is not None
        assert set(report["sentences"]) == {"content", "form", "context"}

    def test_byte_identical_across_runs(self, world):
        _, records, config, _ = world
        a = Pipeline(PipelineConfig(**config)).describe(records[0])
        b = Pipeline(PipelineConfig(**config)).describe(records[0])
        assert report_to_json(a) == report_to_json(b)

    def test_greedy_decodes_as_a_beam_of_one(self, world):
        _, records, config, _ = world
        greedy = Pipeline(PipelineConfig(**dict(config, decode_mode="greedy")))
        beam_one = Pipeline(PipelineConfig(**dict(config, decode_mode="beam", beam_size=1)))
        for record in records:
            assert greedy.describe(record)["sentences"] == beam_one.describe(record)["sentences"]

    def test_oracle_mode_without_reference_warns_and_retrieves_nothing(self, world, caplog):
        _, records, config, _ = world
        record = copy.copy(records[0])
        record.reference = ""
        with caplog.at_level(logging.WARNING):
            report = Pipeline(PipelineConfig(**config)).describe(record)
        (event,) = [r for r in caplog.records if r.msg == "no reference text for oracle mode"]
        assert event.painting == record.id
        assert report["retrieved"] == []
        assert {c["source"] for c in report["candidates"]} == {"attribute"}

    def test_empty_query_warning_names_the_painting(self, world, caplog):
        """A painting without metadata logs one warning, describe's, which
        names the painting; ``rank`` adds none for the blank query."""
        _, records, config, _ = world
        bare = replace(records[0], attributes={}, objects=[])
        pipeline = Pipeline(PipelineConfig(**dict(config, knowledge_mode="external-corpus")))
        with caplog.at_level(logging.WARNING):
            report = pipeline.describe(bare)
        (event,) = caplog.records
        assert event.msg == EMPTY_QUERY_EVENT
        assert event.painting == bare.id
        assert report["query"] == "" and report["retrieved"] == []

    def test_external_corpus_mode_runs(self, world):
        _, records, config, _ = world
        external = dict(config, knowledge_mode="external-corpus")
        pipeline = Pipeline(PipelineConfig(**external))
        report = pipeline.describe(records[0])
        assert len(report["retrieved"]) >= 1
        # the per-record bio article mentions the artist, so retrieval
        # surfaces person candidates from the article body too
        assert any(c["source"] == "article" for c in report["candidates"])

    def test_empty_knowledge_degrades_with_placeholders(self, world, caplog):
        _, records, config, _ = world
        degraded = dict(config, knowledge_mode="external-corpus", index=None)
        pipeline = Pipeline(PipelineConfig(**degraded))
        # drop attributes so no candidates exist at all
        record = records[0]
        bare = type(record)(
            id=record.id, sentences=record.sentences, attributes={},
            objects=[], reference=record.reference, features=record.features,
        )
        with caplog.at_level(logging.WARNING):
            report = pipeline.describe(bare)
        assert "without retrieval" in caplog.text
        slot_types = [s["entity_type"] for s in report["slots"]]
        assert all(s["chosen"] is None for s in report["slots"])
        for stype in slot_types:
            assert any(f"[unknown-{stype}]" in t for t in report["description_tokens"])

    def test_missing_checkpoint_names_stage(self, world):
        _, records, config, _ = world
        broken = dict(config, decoder_checkpoint=None)
        pipeline = Pipeline(PipelineConfig(**broken))
        with pytest.raises(MissingArtifactError, match="decoder_checkpoint"):
            pipeline.describe(records[0])


@pytest.fixture
def grid_reads(monkeypatch):
    """The names of the .fgrd files read, in order."""
    reads = []

    def counting(path):
        reads.append(Path(path).name)
        return load_feature_grid(path)

    for module in (corpusio, pipeline_module):
        monkeypatch.setattr(module, "load_feature_grid", counting)
    return reads


@pytest.fixture
def own_grids(world, tmp_path):
    """(records, config, features dir): the world's config with a private
    copy of its feature grids, free to damage."""
    _, records, config, _ = world
    features = tmp_path / "features"
    shutil.copytree(config["features_dir"], features)
    return records, dict(config, features_dir=str(features)), features


# how damage_grid damages a grid -> what the error that it causes says
GRID_DAMAGE = {"missing": "missing feature file", "corrupt": "checksum mismatch",
               "old-layout": "bad feature grid magic"}


def damage_grid(path: Path, how: str) -> None:
    """Removes the grid file, flips one bit of its last value ("corrupt"),
    or rewrites it in the layout from before grids were containers."""
    if how == "missing":
        path.unlink()
    elif how == "corrupt":
        raw = bytearray(path.read_bytes())
        raw[-33] ^= 0x01
        path.write_bytes(bytes(raw))
    else:
        values = np.asarray(load_feature_grid(path).values, "<f4")
        path.write_bytes(b"FGRD" + np.array(values.shape, "<u4").tobytes() + values.tobytes())


class TestLazyGrids:
    def test_describe_by_id_reads_only_its_grid(self, own_grids, grid_reads):
        records, config, _ = own_grids
        Pipeline(PipelineConfig(**config)).describe_by_id(records[2].id)
        assert grid_reads == [f"{records[2].id}.fgrd"]

    @pytest.mark.parametrize("how", GRID_DAMAGE)
    def test_broken_grid_of_another_painting_does_not_block(self, own_grids, how):
        records, config, features = own_grids
        expected = Pipeline(PipelineConfig(**config)).describe_by_id(records[0].id)
        damage_grid(features / f"{records[1].id}.fgrd", how)
        report = Pipeline(PipelineConfig(**config)).describe_by_id(records[0].id)
        assert report_to_json(report) == report_to_json(expected)

    def test_describing_every_record_reads_each_grid_once(self, own_grids, grid_reads):
        records, config, _ = own_grids
        pipeline = Pipeline(PipelineConfig(**config))
        for record in pipeline.records:
            pipeline.describe(record)
        assert sorted(grid_reads) == sorted(f"{r.id}.fgrd" for r in records)

    def test_a_record_from_record_by_id_carries_its_grid(self, own_grids, grid_reads):
        """Describing the copy again reads no grid, as a caller that holds
        its records expects."""
        records, config, _ = own_grids
        pipeline = Pipeline(PipelineConfig(**config))
        record = pipeline.record_by_id(records[2].id)
        first = pipeline.describe(record)
        assert report_to_json(pipeline.describe(record)) == report_to_json(first)
        assert grid_reads == [f"{records[2].id}.fgrd"]

    def test_corpus_records_stay_as_loaded(self, world):
        """Neither describe nor record_by_id puts a grid on a corpus record."""
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        pipeline.describe(pipeline.records[0])
        found = pipeline.record_by_id(records[1].id)
        assert [record.id for record in pipeline.records if record.features is not None] == []
        assert found.features is not None

    def test_evaluate_reads_no_grid(self, own_grids, grid_reads):
        records, config, _ = own_grids
        reports = [Pipeline(PipelineConfig(**config)).describe_by_id(records[0].id)]
        grid_reads.clear()
        result = Pipeline(PipelineConfig(**config)).evaluate(reports)
        assert result["num_paintings"] == 1 and grid_reads == []


# a grid of the wide split: 512 KiB as float64, far above what one report allocates
WIDE_GRID = (64, 1024)


@pytest.fixture
def wide_splits(world, tmp_path):
    """({n: config}, bytes of one grid): configs whose corpora are the
    first 4 and all 32 paintings of one split at WIDE_GRID, with a decoder
    for that grid and the world's filler and gazetteer."""
    _, _, world_config, _ = world
    records, vocab = entity_corpus(np.random.default_rng(32), n_records=32,
                                   n_loc=WIDE_GRID[0], feat=WIDE_GRID[1])
    (tmp_path / "features").mkdir()
    for record in records:
        save_feature_grid(tmp_path / "features" / f"{record.id}.fgrd", record.features.values)
    decoder = train_decoder(records, vocab,
                            DecoderConfig(variant="parallel", vocab_size=len(vocab),
                                          feature_dim=WIDE_GRID[1], hidden_size=8,
                                          embed_size=8, max_len=8),
                            TrainConfig(epochs=1, batch_size=32, seed=3))
    save_decoder_checkpoint(tmp_path / "decoder.ckpt", decoder)
    configs = {}
    for n in (4, 32):
        save_corpus(tmp_path / f"corpus{n}.jsonl", records[:n])
        configs[n] = dict(world_config, corpus=str(tmp_path / f"corpus{n}.jsonl"),
                          features_dir=str(tmp_path / "features"),
                          decoder_checkpoint=str(tmp_path / "decoder.ckpt"))
    return configs, records[0].features.values.nbytes


def describe_peak(config: dict) -> int:
    """The tracemalloc peak of describing every painting of the config's
    corpus, once the corpus and the artifacts are loaded."""
    pipeline = Pipeline(PipelineConfig(**config))
    pipeline.describe(pipeline.records[0])
    tracemalloc.start()
    try:
        for record in pipeline.records:
            pipeline.describe(record)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_describing_a_split_holds_one_grid_at_a_time(wide_splits):
    """Memory does not grow with the split: describing 32 paintings peaks
    less than one grid above describing 4."""
    configs, grid_bytes = wide_splits
    describe_peak(configs[4])  # first-use allocations, outside both measurements
    assert describe_peak(configs[32]) - describe_peak(configs[4]) < grid_bytes


@pytest.fixture(scope="module")
def variant_worlds(world, tmp_path_factory):
    """{variant: config}: the world's config over four new paintings and a
    one-epoch decoder of that variant, with the world's filler and
    gazetteer."""
    _, _, world_config, _ = world
    root = tmp_path_factory.mktemp("variants")
    records, vocab = entity_corpus(np.random.default_rng(36), n_records=4)
    (root / "features").mkdir()
    for record in records:
        save_feature_grid(root / "features" / f"{record.id}.fgrd", record.features.values)
    save_corpus(root / "corpus.jsonl", records)
    configs = {}
    for variant in ("baseline", "parallel", "conditional"):
        decoder = train_decoder(records, vocab,
                                DecoderConfig(variant=variant, vocab_size=len(vocab),
                                              feature_dim=6, hidden_size=8, embed_size=8,
                                              topic_embed_size=4, max_len=8),
                                TrainConfig(epochs=1, batch_size=4, seed=3))
        save_decoder_checkpoint(root / f"{variant}.ckpt", decoder)
        configs[variant] = dict(world_config, corpus=str(root / "corpus.jsonl"),
                                features_dir=str(root / "features"),
                                decoder_checkpoint=str(root / f"{variant}.ckpt"))
    return configs


@pytest.mark.parametrize("topics", [tuple(TopicLabel), (TopicLabel.FORM, TopicLabel.CONTEXT)],
                         ids=["all", "form-context"])
@pytest.mark.parametrize("variant", ["baseline", "parallel", "conditional"])
def test_describe_decodes_each_decoder_input_once(variant_worlds, monkeypatch, variant, topics):
    """A baseline decoder reads one input for every topic, so its describe
    decodes once; the other variants decode each topic. Each report's
    sentences are those of one ``generate`` call per topic."""
    generate = pipeline_module.generate
    calls = []

    def counting(*args):
        calls.append(args[2])
        return generate(*args)

    monkeypatch.setattr(pipeline_module, "generate", counting)
    pipeline = Pipeline(PipelineConfig(**variant_worlds[variant]))
    for painting in pipeline.records:
        record = pipeline.record_by_id(painting.id)
        calls.clear()
        report = pipeline.describe(record, topics)
        assert len(calls) == (1 if variant == "baseline" else len(topics))
        assert report["sentences"] == {
            topic.name.lower(): generate(pipeline.decoder, record.features, topic,
                                         pipeline.config.beam_size).surfaces()
            for topic in TopicLabel if topic in topics
        }


class TestEvaluate:
    def test_perfect_predictions_score_100(self, world):
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        reports = [pipeline.describe(r) for r in records]
        result = pipeline.evaluate(reports)
        assert result["bleu4"] == pytest.approx(100.0, abs=1e-9)
        assert result["rouge_l"] == pytest.approx(100.0, abs=1e-9)
        assert result["placeholder_rate"] == 0.0
        assert result["num_paintings"] == len(records)
        assert result["per_topic_sentence_counts"]["content"] == len(records)

    def test_full_scale_context_rendered(self, world):
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        result = pipeline.evaluate([pipeline.describe(records[0])])
        ctx = result["full_scale_context"]
        assert ctx["slot_ratio_content_form_context"] == [0.98, 0.91, 2.12]
        assert ctx["parallel_decoder_bleu4"] == 8.8
        assert ctx["retrieval_recall_all_articles"] == {"r@1": 13.8, "r@5": 36.6,
                                                        "r@10": 45.5}
        text = render_evaluation(result)
        assert "0.98/0.91/2.12" in text
        assert "8.8" in text

    def test_unknown_painting_rejected(self, world):
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        report = pipeline.describe(records[0])
        report["painting_id"] = "nope"
        with pytest.raises(DataError, match="nope"):
            pipeline.evaluate([report])

    def test_corpus_slot_ratio_matches_hand_count(self, world):
        _, records, config, _ = world
        pipeline = Pipeline(PipelineConfig(**config))
        result = pipeline.evaluate([pipeline.describe(records[0])])
        # every record: content 1 slot, form 0 slots, context 2 slots
        assert result["corpus_slot_ratio"] == {"content": 1.0, "form": 0.0, "context": 2.0}


class TestEvaluateNamesWhatItCannotScore:
    def _evaluate(self, reference: str, prediction: list[str]):
        record = PaintingRecord(id="p7", sentences=[], reference=reference)
        report = {"painting_id": "p7", "description_tokens": prediction, "slots": [],
                  "sentences": {"content": prediction}, "inputs_digest": "0" * 64}
        return Pipeline(PipelineConfig()).evaluate([report], records=[record])

    def test_a_painting_without_sentences_or_reference(self):
        with pytest.raises(DataError, match=r"painting 'p7': no reference text"):
            self._evaluate("", ["a", "river"])

    def test_a_report_with_no_description_tokens(self):
        with pytest.raises(DataError, match=r"painting 'p7': its report has no description_tokens"):
            self._evaluate("a quiet river", [])


class TestEvaluateFixtureOracle:
    def test_five_item_split_matches_hand_scores(self):
        # Hand-scored toy split: three exact matches, the cat/mat fixture
        # pair, and a short two-token prediction.
        import math

        from synth import slotted_entry

        from artdesc.corpus import PaintingRecord, TopicLabel, Word
        from artdesc.metrics import BLEU_EPSILON

        references = {
            "t0": "a quiet river scene",
            "t1": "boats along the shore",
            "t2": "a stormy sky above",
            "t3": "the cat is on the mat",
            "t4": "a b c d",
        }
        predictions = {
            "t0": references["t0"].split(),
            "t1": references["t1"].split(),
            "t2": references["t2"].split(),
            "t3": "the cat sat on the mat".split(),
            "t4": "a b".split(),
        }
        records = [
            PaintingRecord(
                id=pid,
                sentences=[slotted_entry(references[pid].split(), [], TopicLabel.CONTENT)],
                reference=references[pid],
            )
            for pid in references
        ]
        reports = []
        for pid in references:
            slots = []
            if pid == "t4":
                slots = [
                    {"position": 1, "entity_type": "person", "chosen": None,
                     "score": None, "n_compatible": 0},
                    {"position": 2, "entity_type": "date", "chosen": "1650",
                     "score": 0.5, "n_compatible": 1},
                ]
            reports.append({
                "painting_id": pid,
                "description_tokens": predictions[pid],
                "slots": slots,
                "sentences": {"content": predictions[pid]},
                "inputs_digest": "0" * 64,
            })

        pipeline = Pipeline(PipelineConfig())
        result = pipeline.evaluate(reports, records=records)

        # hand scores: t3 per the n-gram fixture (5/6, 3/5, 1/4, eps/3; BP 1);
        # t4 has p1 = p2 = 1, p3 = p4 = eps, BP = exp(1 - 4/2)
        bleu_t3 = 100.0 * math.exp(
            (math.log(5 / 6) + math.log(3 / 5) + math.log(1 / 4)
             + math.log(BLEU_EPSILON / 3)) / 4.0
        )
        bleu_t4 = 100.0 * math.exp(1.0 - 4 / 2) * math.exp(
            (math.log(1.0) + math.log(1.0) + 2 * math.log(BLEU_EPSILON)) / 4.0
        )
        expected_bleu = (100.0 + 100.0 + 100.0 + bleu_t3 + bleu_t4) / 5.0
        # ROUGE-L: t3 LCS = 5 of 6/6 -> F = 5/6; t4 LCS = 2 -> P=1, R=1/2,
        # F = 2.2 * 0.5 / (0.5 + 1.2)
        rouge_t3 = 100.0 * 5 / 6
        rouge_t4 = 100.0 * (2.2 * 1.0 * 0.5) / (0.5 + 1.2 * 1.0)
        expected_rouge = (100.0 * 3 + rouge_t3 + rouge_t4) / 5.0

        assert result["bleu4"] == pytest.approx(expected_bleu, abs=1e-6)
        assert result["rouge_l"] == pytest.approx(expected_rouge, abs=1e-6)
        assert result["placeholder_rate"] == pytest.approx(0.5)
        assert result["num_paintings"] == 5


class TestConfig:
    def test_from_file_round_trip(self, world, tmp_path):
        _, _, config, config_path = world
        loaded = PipelineConfig.from_file(config_path)
        assert asdict(loaded) == asdict(PipelineConfig(**config))

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"retrieval_depth": 5}))
        with pytest.raises(Exception, match="retrieval_depth"):
            PipelineConfig.from_file(path)

    def test_bad_mode_rejected(self):
        with pytest.raises(Exception, match="mode"):
            PipelineConfig(knowledge_mode="psychic")

    def test_require_reports_missing_path(self, tmp_path):
        config = PipelineConfig(corpus=str(tmp_path / "nope.jsonl"))
        with pytest.raises(MissingArtifactError, match="corpus"):
            config.require("corpus")
