"""CLI plumbing: every subcommand, exit codes, artifact flow."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synth import ENTITY_PEOPLE, ENTITY_PLACES, entity_corpus
from test_checkpoint import old_container_header
from test_pipeline import EMPTY_QUERY_EVENT, GRID_DAMAGE, damage_grid
from test_query_recall import write_annotations

import artdesc
from artdesc.cli import EXIT_DATA, EXIT_MISSING, EXIT_OK, EXIT_USAGE, main
from artdesc.corpus import (
    Gazetteer,
    PaintingRecord,
    load_corpus,
    mask_sentence,
    save_corpus,
    save_feature_grid,
    tag_entities,
)
from artdesc.corpus.vocab import RESERVED
from artdesc.decoder.model import DecodeStep
from artdesc.numcore.checkpoint import load_container, save_container
from artdesc.retriever import KnowledgeArticle, TfIdfIndex


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(91)
    records, _ = entity_corpus(rng, n_records=4)

    features_dir = root / "features"
    features_dir.mkdir()
    for record in records:
        save_feature_grid(features_dir / f"{record.id}.fgrd", record.features.values)
    corpus_path = root / "corpus.jsonl"
    save_corpus(corpus_path, records)

    gazetteer_path = root / "gazetteer.tsv"
    lines = [f"{n}\tperson" for n in ENTITY_PEOPLE]
    lines += [f"{n}\tlocation" for n in ENTITY_PLACES]
    gazetteer_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    knowledge_dir = root / "knowledge"
    knowledge_dir.mkdir()
    for record in records:
        (knowledge_dir / f"{record.id}-bio.txt").write_text(
            f"{record.attributes['artist']} of {record.attributes['school']} "
            f"({record.attributes['timeframe']}).", encoding="utf-8")

    return root, records, corpus_path, features_dir, gazetteer_path, knowledge_dir


def _events(capsys) -> list[dict]:
    """The JSON log lines written to stderr since the last read."""
    return [json.loads(line) for line in capsys.readouterr().err.splitlines()]


def _event(events: list[dict], name: str) -> dict:
    (event,) = [e for e in events if e["event"] == name]
    return event


def test_full_command_flow(cli_world, capsys):
    root, records, corpus_path, features_dir, gazetteer_path, knowledge_dir = cli_world

    decoder_path = root / "decoder.ckpt"
    assert main([
        "train-decoder", "--corpus", str(corpus_path), "--features-dir", str(features_dir),
        "--out", str(decoder_path), "--variant", "parallel", "--epochs", "3",
        "--hidden-size", "12", "--embed-size", "8", "--seed", "1",
    ]) == EXIT_OK
    assert decoder_path.exists()
    trained = _event(_events(capsys), "trained decoder")
    assert trained["variant"] == "parallel" and trained["out"] == str(decoder_path)
    assert trained["seconds"] > 0

    filler_path = root / "filler.ckpt"
    assert main([
        "train-filler", "--corpus", str(corpus_path), "--out", str(filler_path),
        "--epochs", "2", "--hidden-size", "8", "--embed-size", "8", "--seed", "1",
    ]) == EXIT_OK
    assert filler_path.exists()
    trained = _event(_events(capsys), "trained filler")
    assert trained["out"] == str(filler_path) and trained["seconds"] > 0

    index_path = root / "knowledge.idx"
    assert main(["index", "--knowledge-dir", str(knowledge_dir),
                 "--out", str(index_path)]) == EXIT_OK
    assert index_path.exists()
    indexed = _event(_events(capsys), "indexed")
    assert indexed["out"] == str(index_path)
    assert indexed["articles"] == len(records) and indexed["terms"] > 0

    assert main(["retrieve", "--index", str(index_path),
                 "--query", records[0].attributes["artist"], "--k", "2"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(out) <= 2
    top = json.loads(out[0])
    assert set(top) == {"article_id", "score"}

    config_path = root / "pipeline.json"
    config_path.write_text(json.dumps({
        "corpus": str(corpus_path),
        "features_dir": str(features_dir),
        "gazetteer": str(gazetteer_path),
        "decoder_checkpoint": str(decoder_path),
        "filler_checkpoint": str(filler_path),
        "index": str(index_path),
        "seed": 1,
        "knowledge_mode": "reference-as-oracle",
    }), encoding="utf-8")

    reports_path = root / "reports.jsonl"
    assert main(["describe", "--config", str(config_path),
                 "--out", str(reports_path)]) == EXIT_OK
    lines = reports_path.read_text().strip().splitlines()
    assert len(lines) == len(records)
    wrote = _event(_events(capsys), "wrote reports")
    assert wrote["reports"] == len(records) and wrote["out"] == str(reports_path)
    report = json.loads(lines[0])
    assert report["painting_id"] == records[0].id
    assert "description" in report

    eval_path = root / "eval.json"
    assert main(["evaluate", "--config", str(config_path), "--reports", str(reports_path),
                 "--out", str(eval_path)]) == EXIT_OK
    rendered = capsys.readouterr().out
    assert "BLEU-4" in rendered and "full-scale context" in rendered
    payload = json.loads(eval_path.read_text())
    assert payload["num_paintings"] == len(records)

    annotations_path = root / "annotations.jsonl"
    write_annotations(annotations_path, [(r.id, f"{r.id}-bio", "author") for r in records])
    assert main(["eval-recall", "--index", str(index_path), "--corpus", str(corpus_path),
                 "--annotations", str(annotations_path), "--ks", "1,2"]) == EXIT_OK
    recall_report = json.loads(capsys.readouterr().out)
    assert recall_report["classes"]["author"]["num_paintings"] == len(records)


def test_fill_and_single_topic_describe(cli_world, tmp_path, capsys):
    _, records, corpus_path, features_dir, gazetteer_path, knowledge_dir = cli_world

    filler_path = tmp_path / "filler.ckpt"
    assert main([
        "train-filler", "--corpus", str(corpus_path), "--out", str(filler_path),
        "--epochs", "3", "--hidden-size", "8", "--embed-size", "8", "--seed", "2",
    ]) == EXIT_OK
    capsys.readouterr()

    masked_path = tmp_path / "masked.json"
    masked_path.write_text(json.dumps([
        {"tokens": ["painted", "by", "[person]", "."], "topic": "content"},
    ]), encoding="utf-8")
    attrs_path = tmp_path / "attrs.json"
    attrs_path.write_text(json.dumps({"artist": "goya"}), encoding="utf-8")
    assert main([
        "fill", "--masked", str(masked_path), "--ckpt", str(filler_path),
        "--gazetteer", str(gazetteer_path), "--attrs", str(attrs_path),
    ]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["description"] == "painted by goya ."  # forced choice
    assert payload["slots"][0]["chosen"] == "goya"

    # single-topic describe, decoding greedily as pipeline.json sets
    decoder_path = tmp_path / "decoder.ckpt"
    assert main([
        "train-decoder", "--corpus", str(corpus_path), "--features-dir", str(features_dir),
        "--out", str(decoder_path), "--variant", "parallel", "--epochs", "1",
        "--hidden-size", "12", "--embed-size", "8", "--seed", "2",
    ]) == EXIT_OK
    index_path = tmp_path / "knowledge.idx"
    assert main(["index", "--knowledge-dir", str(knowledge_dir),
                 "--out", str(index_path)]) == EXIT_OK
    capsys.readouterr()
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({
        "corpus": str(corpus_path),
        "features_dir": str(features_dir),
        "gazetteer": str(gazetteer_path),
        "decoder_checkpoint": str(decoder_path),
        "filler_checkpoint": str(filler_path),
        "index": str(index_path),
        "knowledge_mode": "reference-as-oracle",
        "decode_mode": "greedy",
    }), encoding="utf-8")
    assert main([
        "describe", "--config", str(config_path), "--painting-id", records[0].id,
        "--topic", "content",
    ]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["painting_id"] == records[0].id
    assert set(report["sentences"]) == {"content"}


def test_preprocess_round_trip(cli_world, tmp_path, capsys):
    root, records, corpus_path, features_dir, gazetteer_path, _ = cli_world
    raw_path = tmp_path / "raw.jsonl"
    raw_path.write_text(json.dumps({
        "id": "x1",
        "comment": "Painted by vasari in delft. A very small work.",
        "attributes": {"artist": "vasari"},
        "objects": ["window"],
    }) + "\n", encoding="utf-8")
    out_path = tmp_path / "preprocessed.jsonl"
    assert main(["preprocess", "--input", str(raw_path), "--gazetteer", str(gazetteer_path),
                 "--out", str(out_path)]) == EXIT_OK
    done = _event(_events(capsys), "preprocessed")
    assert done["records"] == 1 and done["out"] == str(out_path)
    record = json.loads(out_path.read_text().splitlines()[0])
    assert record["id"] == "x1"
    assert len(record["sentences"]) == 2
    first = record["sentences"][0]
    assert first["topic"] is None
    assert {e["value"] for e in first["entities"]} == {"vasari", "delft"}
    from artdesc.corpus import load_corpus

    loaded = load_corpus(out_path)  # masks re-derived from the entity lists
    assert sum(s.masked.slot_count() for s in loaded[0].sentences) == 2

    assert main(["preprocess", "--input", str(raw_path), "--gazetteer", str(gazetteer_path),
                 "--out", str(out_path), "--min-sentence-tokens", "6"]) == EXIT_OK
    dropped = _event(_events(capsys), "dropped short sentence")
    assert dropped["record"] == "x1" and dropped["text"] == "A very small work."
    assert len(json.loads(out_path.read_text())["sentences"]) == 1


def test_preprocess_masks_reread_as_tagged(tmp_path):
    """A value that also occurs inside a longer token is found, on reading
    the corpus back, where the tagger masked it: as whole tokens."""
    gazetteer_path = tmp_path / "gazetteer.tsv"
    gazetteer_path.write_text("Rome\tlocation\n", encoding="utf-8")
    raw_path = tmp_path / "raw.jsonl"
    text = "A Rome-born painter worked in Rome."
    raw_path.write_text(json.dumps({"id": "r1", "sentences": [{"text": text}]}) + "\n",
                        encoding="utf-8")
    out_path = tmp_path / "preprocessed.jsonl"
    assert main(["preprocess", "--input", str(raw_path), "--gazetteer", str(gazetteer_path),
                 "--out", str(out_path)]) == EXIT_OK
    gazetteer = Gazetteer.from_file(gazetteer_path)
    tagged, values = mask_sentence(text, tag_entities(text, gazetteer))
    (record,) = load_corpus(out_path)
    (entry,) = record.sentences
    assert entry.masked.surfaces() == tagged.surfaces() == [
        "a", "rome-born", "painter", "worked", "in", "[location]", "."]
    assert entry.values == values == ["Rome"]


@pytest.mark.parametrize("raw, key", [
    ({"id": "x1", "sentences": [{"topic": "form"}]}, "missing keys ['text']"),
    ({"id": "x1", "sentences": "abc"}, "'sentences' must be list[dict], got str"),
    ({"id": "x1", "comment": 5}, "'comment' must be str, got int"),
    ({"id": "x1", "sentences": [{"text": ["vasari"]}]}, "'text' must be str, got list"),
    ({"id": "x1", "sentences": [{"text": "A saint.", "topic": "bogus"}]},
     "unknown topic label 'bogus'"),
    ({"id": "x1", "comment": "A saint.", "reference": 5}, "'reference' must be str, got int"),
], ids=["sentence-no-text", "sentences-not-list", "comment-not-string", "text-not-string",
        "topic-unknown", "reference-not-string"])
def test_preprocess_malformed_raw_record_exit_code(cli_world, tmp_path, capsys, raw, key):
    gazetteer_path = cli_world[4]
    raw_path = tmp_path / "raw.jsonl"
    raw_path.write_text(json.dumps({"id": "x0", "comment": "A saint."}) + "\n"
                        + json.dumps(raw) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["preprocess", "--input", str(raw_path), "--gazetteer", str(gazetteer_path),
                 "--out", str(tmp_path / "out.jsonl")]) == EXIT_DATA
    (event,) = _events(capsys)
    assert f"{raw_path}:2" in event["event"] and key in event["event"]
    assert not (tmp_path / "out.jsonl").exists()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train-decoder"]) == EXIT_USAGE  # missing required flags


def test_missing_artifact_exit_code(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"corpus": str(tmp_path / "absent.jsonl")}))
    assert main(["describe", "--config", str(config)]) == EXIT_MISSING
    assert main(["describe", "--config", str(tmp_path / "nope.json")]) == EXIT_MISSING


# learning-rate schedules that used to crash, fail after an epoch or train
# with a growing rate
LR_SCHEDULE_CASES = {
    "lr-decay-every-0": ["--lr-decay-every", "0"],
    "lr-decay-every-negative": ["--lr-decay-every", "-1"],
    "lr-decay-0": ["--lr-decay", "0"],
    "lr-decay-negative": ["--lr-decay", "-1"],
    "lr-nan": ["--lr", "nan"],
}


@pytest.mark.parametrize("command, corpus, settings", [
    ("train-filler", "bad", ["--epochs", "1"]),
    ("train-filler", "good", ["--batch-size", "0"]),
    ("train-filler", "good", ["--lr", "0"]),
    ("train-filler", "good", ["--epochs", "0"]),
    *[(command, "good", settings) for command in ("train-filler", "train-decoder")
      for settings in LR_SCHEDULE_CASES.values()],
    ("train-filler", "good", ["--min-freq", "0"]),
    ("train-decoder", "good", ["--min-freq", "0"]),
], ids=["bad-corpus", "batch-size-0", "lr-0", "epochs-0",
        *[f"{model}-{case}" for model in ("filler", "decoder") for case in LR_SCHEDULE_CASES],
        "filler-min-freq-0", "decoder-min-freq-0"])
def test_data_error_exit_code(cli_world, tmp_path, capsys, command, corpus, settings):
    corpus_path = cli_world[2]
    if corpus == "bad":
        corpus_path = tmp_path / "bad.jsonl"
        corpus_path.write_text("not json\n", encoding="utf-8")
    out = tmp_path / "out.ckpt"
    extra = ["--features-dir", str(cli_world[3])] if command == "train-decoder" else []
    assert main([command, "--corpus", str(corpus_path), "--out", str(out), *extra,
                 "--epochs", "1", *settings]) == EXIT_DATA
    assert not out.exists()
    if corpus == "good":  # the error names the setting, e.g. "--lr-decay" -> "lr_decay"
        field = settings[0][2:].replace("-", "_")
        assert _events(capsys)[-1]["event"].startswith(f"data error: {field} must")



@pytest.mark.parametrize("case", [
    "corpus-no-id", "corpus-attribute-not-string", "sentence-no-text", "entity-no-type",
    "articles-no-id",
    "articles-not-object", "articles-body-not-string", "annotation-no-label",
    "annotation-label-not-string", "annotation-unknown-label",
])
def test_malformed_jsonl_exit_code(cli_world, tmp_path, capsys, case):
    root, records, corpus_path, _, _, knowledge_dir = cli_world
    bad = tmp_path / "bad.jsonl"
    if case.startswith(("corpus", "sentence", "entity")):
        first = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
        if case == "corpus-no-id":
            del first["id"]
            where = f"{bad}:1:"
        elif case == "corpus-attribute-not-string":
            first["attributes"]["artist"] = 5
            where = f"{bad}:1: painting '{first['id']}': 'attributes.artist' must be str or null, got int"
        elif case == "sentence-no-text":
            del first["sentences"][0]["text"]
            where = f"painting '{first['id']}' sentence 0: missing keys ['text']"
        else:
            entry = next(i for i, sent in enumerate(first["sentences"]) if sent["entities"])
            del first["sentences"][entry]["entities"][0]["type"]
            where = f"painting '{first['id']}' sentence {entry} entity 0: missing keys ['type']"
        bad.write_text(json.dumps(first) + "\n", encoding="utf-8")
        argv = ["train-filler", "--corpus", str(bad), "--out", str(tmp_path / "f.ckpt")]
    elif case.startswith("articles"):
        line = {"articles-no-id": '{"body": "fresco"}', "articles-not-object": "[1, 2]",
                "articles-body-not-string": '{"id": "a1", "body": 5}'}[case]
        bad.write_text('{"id": "x", "body": "saint"}\n' + line + "\n", encoding="utf-8")
        argv = ["index", "--knowledge-file", str(bad), "--out", str(tmp_path / "k.idx")]
        where = f"{bad}:2:"
        if case == "articles-body-not-string":
            where += " 'body' must be str, got int"
    else:
        index_path = tmp_path / "k.idx"
        assert main(["index", "--knowledge-dir", str(knowledge_dir),
                     "--out", str(index_path)]) == EXIT_OK
        row = {"painting_id": records[0].id, "article_id": "x"}
        if case == "annotation-label-not-string":
            row["label"] = 3
            where = f"{bad}:1: 'label' must be str, got int"
        elif case == "annotation-unknown-label":
            row["label"] = "bogus"
            where = f"{bad}:1: unknown retrieval label 'bogus'"
        else:
            where = f"{bad}:1:"
        bad.write_text(json.dumps(row) + "\n", encoding="utf-8")
        argv = ["eval-recall", "--index", str(index_path), "--corpus", str(corpus_path),
                "--annotations", str(bad)]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["a", "", "0,1", "-1,5"])
def test_eval_recall_rejects_a_k_that_is_not_a_positive_integer(cli_world, tmp_path, capsys,
                                                                ks):
    _, records, corpus_path, _, _, knowledge_dir = cli_world
    index_path = tmp_path / "k.idx"
    assert main(["index", "--knowledge-dir", str(knowledge_dir),
                 "--out", str(index_path)]) == EXIT_OK
    annotations_path = tmp_path / "annotations.jsonl"
    write_annotations(annotations_path, [(r.id, f"{r.id}-bio", "author") for r in records])
    capsys.readouterr()
    assert main(["eval-recall", "--index", str(index_path), "--corpus", str(corpus_path),
                 "--annotations", str(annotations_path), f"--ks={ks}"]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    (event,) = [json.loads(line) for line in captured.err.splitlines()]
    assert event["event"] == ("data error: --ks must be comma-separated positive integers, "
                              f"got {ks!r}")


def test_retrieve_and_eval_recall_use_the_index_stoplist(tmp_path, capsys):
    """Queries are normalized with the stop words the index was built with,
    not the default list, which holds "the"."""
    knowledge = tmp_path / "knowledge"
    knowledge.mkdir()
    (knowledge / "k1.txt").write_text("the saint on the horse", encoding="utf-8")
    (knowledge / "k2.txt").write_text("a river in flanders", encoding="utf-8")
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("a\nof\nin\n", encoding="utf-8")
    index_path = tmp_path / "k.idx"
    assert main(["index", "--knowledge-dir", str(knowledge), "--out", str(index_path),
                 "--stoplist", str(stoplist)]) == EXIT_OK
    capsys.readouterr()
    assert main(["retrieve", "--index", str(index_path), "--query", "the", "--k", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    assert json.loads(line)["article_id"] == "k1" and captured.err == ""

    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus_path, [PaintingRecord(id="p1", sentences=[], attributes={"artist": "the"})])
    annotations_path = tmp_path / "annotations.jsonl"
    write_annotations(annotations_path, [("p1", "k1", "correct")])
    assert main(["eval-recall", "--index", str(index_path), "--corpus", str(corpus_path),
                 "--annotations", str(annotations_path), "--ks", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["classes"]["all"]["recall"]["1"] == 100.0
    assert captured.err == ""


def test_retrieve_warns_once_of_a_blank_query_naming_the_meta_file(tmp_path, capsys):
    knowledge = tmp_path / "knowledge"
    knowledge.mkdir()
    (knowledge / "k1.txt").write_text("the saint on the horse", encoding="utf-8")
    index_path, meta = tmp_path / "k.idx", tmp_path / "meta.json"
    assert main(["index", "--knowledge-dir", str(knowledge), "--out", str(index_path)]) == EXIT_OK
    meta.write_text('{"attributes": {}, "objects": ["cell phone"]}', encoding="utf-8")
    capsys.readouterr()
    assert main(["retrieve", "--index", str(index_path), "--meta", str(meta)]) == EXIT_OK
    out, err = capsys.readouterr()
    (event,) = [json.loads(line) for line in err.splitlines()]
    assert out == "" and event["event"] == EMPTY_QUERY_EVENT and event["meta"] == str(meta)


def test_eval_recall_warns_of_an_empty_query_naming_the_painting(tmp_path, capsys):
    knowledge = tmp_path / "knowledge"
    knowledge.mkdir()
    (knowledge / "k1.txt").write_text("the saint on the horse", encoding="utf-8")
    index_path, corpus_path = tmp_path / "k.idx", tmp_path / "corpus.jsonl"
    assert main(["index", "--knowledge-dir", str(knowledge), "--out", str(index_path)]) == EXIT_OK
    save_corpus(corpus_path, [PaintingRecord(id="p1", sentences=[], attributes={"artist": "saint"}),
                              PaintingRecord(id="p2", sentences=[], objects=["cell phone"])])
    annotations_path = tmp_path / "annotations.jsonl"
    write_annotations(annotations_path, [("p1", "k1", "correct"), ("p2", "k1", "correct")])
    capsys.readouterr()
    assert main(["eval-recall", "--index", str(index_path), "--corpus", str(corpus_path),
                 "--annotations", str(annotations_path), "--ks", "1"]) == EXIT_OK
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    empty = [e for e in events if e["event"] == EMPTY_QUERY_EVENT]
    assert [e["painting"] for e in empty] == ["p2"]


@pytest.mark.parametrize("special", ["<sep>", "<cls>"])
def test_fill_rejects_a_layout_token_in_the_masked_input(world, tmp_path, capsys, special):
    """``fill --masked`` tokens come from outside the program; one that is
    the filler's own CLS or SEP marker would break the input layout."""
    _, _, config, _ = world
    masked_path = tmp_path / "masked.json"
    masked_path.write_text(json.dumps([{"tokens": ["painted", special, "[person]", "."]}]),
                           encoding="utf-8")
    capsys.readouterr()
    assert main(["fill", "--masked", str(masked_path), "--ckpt", config["filler_checkpoint"],
                 "--gazetteer", config["gazetteer"]]) == EXIT_DATA
    assert _events(capsys)[-1]["event"] == \
        "data error: fill input must contain exactly one CLS and one SEP"


@pytest.mark.parametrize("flag", ["stoplist", "blocklist", "gazetteer", "knowledge-dir"])
def test_non_utf8_word_list_exit_code(cli_world, tmp_path, capsys, flag):
    _, _, corpus_path, _, _, knowledge_dir = cli_world
    words = tmp_path / "words.txt"
    words.write_bytes(b"\xff\xfeth\x00e\x00\n\x00")
    index_path = tmp_path / "k.idx"
    if flag == "gazetteer":
        argv = ["preprocess", "--input", str(corpus_path), "--gazetteer", str(words),
                "--out", str(tmp_path / "out.jsonl")]
    elif flag == "knowledge-dir":
        (tmp_path / "good.txt").write_text("a fresco of a saint", encoding="utf-8")
        argv = ["index", "--knowledge-dir", str(tmp_path), "--out", str(index_path)]
    elif flag == "stoplist":
        argv = ["index", "--knowledge-dir", str(knowledge_dir), "--out", str(index_path),
                "--stoplist", str(words)]
    else:
        assert main(["index", "--knowledge-dir", str(knowledge_dir),
                     "--out", str(index_path)]) == EXIT_OK
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps({"attributes": {"artist": "x"}, "objects": ["saint"]}),
                        encoding="utf-8")
        argv = ["retrieve", "--index", str(index_path), "--meta", str(meta),
                "--blocklist", str(words)]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert f"{words}: not valid UTF-8" in capsys.readouterr().err


def _seal(body: bytes) -> bytes:
    """A container's body with its SHA-256 trailer."""
    return body + hashlib.sha256(body).digest()


def _string(blob: bytes) -> bytes:
    return struct.pack("<I", len(blob)) + blob


def _container_body(meta: bytes, arrays: list[tuple[str, np.ndarray]], skew: int = 0) -> bytes:
    """A version 3 container without its trailer, written field by field, so
    a test can store what the writer refuses to; ``meta`` is encoded JSON.
    Each array's data starts ``skew`` bytes past a multiple of 8, after a
    pad field."""
    body = b"".join([b"ARTDCKP1", struct.pack("<II", 3, len(meta)), meta,
                     struct.pack("<I", len(arrays))])
    for name, a in arrays:
        body += (_string(name.encode("utf-8")) + _string(a.dtype.str[1:].encode("utf-8"))
                 + struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape))
        pad = (skew - len(body) - 1) % 8
        body += bytes([pad]) + bytes(pad) + a.tobytes()
    return body


def _idx_body(terms, doc_ids, indptr, indices, data, stopwords, bodies, body_ends,
              df=None) -> bytes:
    """An index container body; ``terms`` are already encoded. With ``df``,
    it is the layout that stored each term's df next to the postings."""
    meta = (b'{"doc_ids":' + json.dumps(doc_ids, separators=(",", ":")).encode("utf-8")
            + b',"kind":"tfidf-index","stopwords":'
            + json.dumps(sorted(stopwords), separators=(",", ":")).encode("utf-8")
            + b',"terms":[' + b",".join(b'"' + t + b'"' for t in terms) + b"]}")
    stored_df = [] if df is None else [("df", np.asarray(df, "<i8"))]
    return _container_body(meta, stored_df + [
        ("indptr", np.asarray(indptr, "<u8")), ("indices", np.asarray(indices, "<u4")),
        ("data", np.asarray(data, "<f8")), ("bodies", np.asarray(bodies, "u1")),
        ("body_ends", np.asarray(body_ends, "<u8"))])


def _v1_idx_bytes(terms, df, doc_ids, indptr, indices, data) -> bytes:
    """The version 1 index layout, which has its own magic and stores terms
    and doc ids as u32-length strings."""
    def strings(texts):
        return b"".join(_string(text.encode("utf-8")) for text in texts)

    return b"".join([
        b"TFIX", struct.pack("<IIIQ", 1, len(terms), len(doc_ids), len(indices)),
        strings(terms), np.asarray(df, "<i8").tobytes(),
        strings(doc_ids), np.asarray(indptr, "<u8").tobytes(),
        np.asarray(indices, "<u4").tobytes(), np.asarray(data, "<f8").tobytes(),
    ])


def _small_index() -> TfIdfIndex:
    return TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco altar"),
                             KnowledgeArticle("b", "b", "river castle saint"),
                             KnowledgeArticle("c", "c", "monk horse saint")])


@pytest.mark.parametrize("corruption", [
    "bad-utf8-term", "truncated", "trailing-bytes", "decreasing-indptr",
    "term-id-out-of-range", "stored-df", "unsorted-doc-ids", "duplicate-doc-ids",
    "duplicate-term",
])
def test_malformed_index_exit_code(tmp_path, capsys, corruption):
    """Each corruption is sealed with a valid trailer, so it reaches the
    structural check behind the checksum."""
    idx = _small_index()
    terms = [t.encode("utf-8") for t in idx.terms]
    doc_ids, indptr, indices = list(idx.doc_ids), idx.indptr.copy(), idx.indices.copy()
    df = None
    idx.save(tmp_path / "good.idx")
    stored = (idx.stopwords, idx.bodies, idx.body_ends)
    assert _seal(_idx_body(terms, doc_ids, indptr, indices, idx.data, *stored)) == \
        (tmp_path / "good.idx").read_bytes()
    message = "data error"
    if corruption == "bad-utf8-term":
        terms[0] = b"\xff" + terms[0][1:]
        message = "metadata is not valid UTF-8"
    elif corruption == "decreasing-indptr":
        indptr[1], indptr[2] = indptr[2], indptr[1]
        message = f"indptr must rise from 0 to {len(indices)}"
    elif corruption == "term-id-out-of-range":
        indices[-1] = len(terms)
        message = f"term id {len(terms)} is out of range"
    elif corruption == "stored-df":
        df = idx.df
        message = "rebuild it with `artdesc index`"
    elif corruption == "unsorted-doc-ids":
        doc_ids[0], doc_ids[1] = doc_ids[1], doc_ids[0]
        message = "doc ids must strictly increase"
    elif corruption == "duplicate-doc-ids":
        doc_ids[1] = doc_ids[0]
        message = "doc ids must strictly increase"
    elif corruption == "duplicate-term":
        terms[1] = terms[0]
        message = f"index term '{idx.terms[0]}' is stored twice"
    body = _idx_body(terms, doc_ids, indptr, indices, idx.data, *stored, df=df)
    if corruption == "truncated":
        body, message = body[:-3], "truncated index while reading data of 'body_ends'"
    elif corruption == "trailing-bytes":
        body, message = body + b"\0", "trailing bytes after last array"
    bad = tmp_path / "bad.idx"
    bad.write_bytes(_seal(body))
    capsys.readouterr()
    assert main(["retrieve", "--index", str(bad), "--query", "saint fresco"]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and message in err and f"{bad}: " in err


def test_version_1_index_asks_for_a_rebuild(tmp_path, capsys):
    idx = _small_index()
    old = tmp_path / "old.idx"
    old.write_bytes(_v1_idx_bytes(idx.terms, idx.df, idx.doc_ids, idx.indptr, idx.indices,
                                  idx.data))
    capsys.readouterr()
    assert main(["retrieve", "--index", str(old), "--query", "saint"]) == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    assert "rebuild it with `artdesc index`" in json.loads(line)["event"]


def test_index_without_stopwords_and_bodies_asks_for_a_rebuild(tmp_path, capsys):
    """The container layout of an index written before it held the stop
    words and article bodies that querying reads."""
    idx = _small_index()
    old = tmp_path / "old.idx"
    save_container(old, {"kind": "tfidf-index", "terms": idx.terms, "doc_ids": idx.doc_ids},
                   {name: getattr(idx, name) for name in ("df", "indptr", "indices", "data")})
    capsys.readouterr()
    assert main(["retrieve", "--index", str(old), "--query", "saint"]) == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    assert "rebuild it with `artdesc index`" in json.loads(line)["event"]


def _rewrite_ckpt_header(raw: bytes, corruption: str) -> bytes:
    """Corrupt the JSON metadata of a .ckpt file and seal it again."""
    (size,) = struct.unpack("<I", raw[12:16])
    meta, arrays = json.loads(raw[16 : 16 + size]), raw[16 + size : -32]
    if corruption == "invalid-json":
        meta_bytes = b"{not json"
    elif corruption == "non-utf8-digest":
        digest = meta["config_digest"].encode("utf-8")
        meta_bytes = json.dumps(meta).encode("utf-8").replace(digest, b"\xff" + digest[1:])
    else:
        if corruption == "no-config":
            del meta["config"]
        else:
            meta["config"]["bogus"] = 1
        meta_bytes = json.dumps(meta).encode("utf-8")
    # trailing spaces keep the length mod 8, so the array data stays aligned
    meta_bytes += b" " * ((size - len(meta_bytes)) % 8)
    return _seal(raw[:12] + _string(meta_bytes) + arrays)


NAN_PARAM = {"decoder": "content.out.b", "filler": "fill.cand.b"}


@pytest.mark.parametrize("kind", ["decoder", "filler"])
@pytest.mark.parametrize("corruption, message", [
    ("invalid-json", "metadata is not valid JSON"),
    ("non-utf8-digest", "metadata is not valid UTF-8"),
    ("no-config", "missing keys ['config']"),
    ("unknown-config-key", "unknown keys ['bogus']"),
    ("nan-param", "parameter '{name}': checkpoint holds non-finite values"),
    ("missing-param", "checkpoint is missing parameter '{name}'"),
    ("unknown-param", "checkpoint has unknown parameters: ['zzz.bogus']"),
    ("wrong-shape-param", "parameter '{name}': checkpoint shape (2,)"),
], ids=["invalid-json", "non-utf8-digest", "no-config", "unknown-config-key", "nan-param",
        "missing-param", "unknown-param", "wrong-shape-param"])
def test_malformed_checkpoint_exit_code(world, tmp_path, capsys, kind, corruption, message):
    """Exit 2 with an error that names the broken file: in its metadata,
    its config or a stored parameter."""
    _, records, config, _ = world
    key = f"{kind}_checkpoint"
    bad = tmp_path / f"{kind}.ckpt"
    if corruption.endswith("-param"):
        meta, arrays, _ = load_container(config[key], "checkpoint")
        name = NAN_PARAM[kind]
        if corruption == "nan-param":
            arrays[name] = arrays[name].copy()  # loads are read-only
            arrays[name][0] = np.nan
        elif corruption == "missing-param":
            del arrays[name]
        elif corruption == "unknown-param":
            arrays["zzz.bogus"] = np.zeros(3)
        else:
            arrays[name] = np.zeros(2)
        save_container(bad, meta, arrays)
        message = message.format(name=name)
    else:
        bad.write_bytes(_rewrite_ckpt_header(Path(config[key]).read_bytes(), corruption))
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({**config, key: str(bad), "decode_mode": "greedy"}),
                           encoding="utf-8")
    capsys.readouterr()
    assert main(["describe", "--config", str(config_path), "--painting-id", records[0].id,
                 "--topic", "content"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and f"{bad}" in err


@pytest.mark.parametrize("artifact", ["ckpt", "filler", "idx", "fgrd"])
@pytest.mark.parametrize("where", ["header", "arrays", "trailer"])
def test_flipped_byte_exit_code(world, tmp_path, capsys, artifact, where):
    """A flipped bit anywhere in a container fails its checksum: exit 2 with
    one JSON log line that says so and names the file."""
    _, records, config, _ = world
    key = {"ckpt": "decoder_checkpoint", "filler": "filler_checkpoint", "idx": "index",
           "fgrd": "features_dir"}[artifact]
    bad = tmp_path / f"bad.{artifact}"
    if artifact == "fgrd":
        shutil.copytree(config[key], tmp_path / "features")
        source = bad = tmp_path / "features" / f"{records[0].id}.fgrd"
        config = {**config, key: str(bad.parent)}
    else:
        source = Path(config[key])
        config = {**config, key: str(bad)}
    raw = bytearray(source.read_bytes())
    raw[{"header": 20, "arrays": -33, "trailer": -1}[where]] ^= 0x01
    bad.write_bytes(bytes(raw))
    if artifact == "idx":
        argv = ["retrieve", "--index", str(bad), "--query", "saint"]
    else:
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["describe", "--config", str(config_path), "--painting-id", records[0].id]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    event = json.loads(line)["event"]
    assert out == "" and "checksum mismatch" in event and f"{bad}: " in event


@pytest.mark.parametrize("version", [1, 2])
def test_old_container_version_asks_to_retrain(world, tmp_path, capsys, version):
    _, records, config, _ = world
    old = tmp_path / "decoder.ckpt"
    old.write_bytes(old_container_header(version))
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({**config, "decoder_checkpoint": str(old)}),
                           encoding="utf-8")
    capsys.readouterr()
    assert main(["describe", "--config", str(config_path),
                 "--painting-id", records[0].id]) == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    event = json.loads(line)["event"]
    assert f"container version {version}" in event and "retrain" in event


def test_decoder_checkpoint_with_removed_settings_is_refused(world, tmp_path, capsys):
    """A decoder checkpoint written while its config still held the
    attention width and the classifier sizes, and its metadata repeated the
    variant and held the last epoch's NLL, is refused by name: first for
    the metadata's keys, then, once they are gone, for the config's."""
    _, records, config, _ = world
    meta, arrays, _ = load_container(config["decoder_checkpoint"], "checkpoint")
    hidden, embed = meta["config"]["hidden_size"], meta["config"]["embed_size"]
    meta["config"].update(attn_hidden_size=hidden, classifier_filters=16,
                          classifier_embed_size=embed, classifier_windows=[2, 3])
    meta.update(variant=meta["config"]["variant"], final_nll_per_token=0.25)
    old = tmp_path / "decoder.ckpt"
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({**config, "decoder_checkpoint": str(old)}),
                           encoding="utf-8")

    def refusal() -> str:
        save_container(old, meta, arrays)
        capsys.readouterr()
        assert main(["describe", "--config", str(config_path),
                     "--painting-id", records[0].id]) == EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        return json.loads(line)["event"]

    assert refusal() == (f"data error: {old} metadata: unknown keys "
                         "['final_nll_per_token', 'variant']")
    del meta["variant"], meta["final_nll_per_token"]
    assert refusal() == (
        f"data error: {old} config: unknown keys ['attn_hidden_size', "
        "'classifier_embed_size', 'classifier_filters', 'classifier_windows']")


def test_index_body_that_is_not_utf8_is_refused_at_load(world, tmp_path, capsys):
    """An index whose last body byte is 0xff, behind a valid trailer, fails
    as retrieve and describe load it, naming the file."""
    _, records, config, _ = world
    meta, arrays, _ = load_container(config["index"], "index")
    arrays["bodies"] = arrays["bodies"].copy()
    arrays["bodies"][-1] = 0xFF
    bad = tmp_path / "bad.idx"
    save_container(bad, meta, arrays)
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({**config, "index": str(bad),
                                       "knowledge_mode": "external-corpus"}), encoding="utf-8")
    message = f"data error: {bad}: the body of article '{meta['doc_ids'][-1]}' is not valid UTF-8"
    for argv in (["retrieve", "--index", str(bad), "--query", "saint"],
                 ["describe", "--config", str(config_path), "--painting-id", records[0].id]):
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["event"] == message


def test_misaligned_array_data_is_refused(tmp_path, capsys):
    """A pad field that leaves an array's data off an 8-byte boundary fails
    even behind a valid trailer."""
    bad = tmp_path / "bad.idx"
    bad.write_bytes(_seal(_container_body(b'{"kind":"tfidf-index"}',
                                          [("df", np.arange(3, dtype="<i8"))], skew=1)))
    capsys.readouterr()
    assert main(["retrieve", "--index", str(bad), "--query", "saint"]) == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    assert "bad padding before the data of 'df'" in json.loads(line)["event"]


@pytest.mark.parametrize("flag, text, message", [
    ("meta", "{bad", "invalid JSON"),
    ("meta", '{"attributes": 5}', "'attributes' must be dict[str, str], got int"),
    ("meta", "[1, 2]", "expected a JSON object, got list"),
    ("masked", "{bad", "invalid JSON"),
    ("masked", '{"tokens": 1}', "expected a JSON list, got dict"),
    ("masked", '[{"topic": "content"}]', "item 0: missing keys ['tokens']"),
    ("attrs", "{bad", "invalid JSON"),
    ("attrs", "[1, 2]", "expected a JSON object, got list"),
    ("config", "[1, 2]", "expected a JSON object, got list"),
    ("meta", '{"attributes": {"artist": 5}}', "'attributes.artist' must be str, got int"),
    ("meta", '{"objects": ["saint", null]}', "'objects[1]' must be str, got NoneType"),
    ("attrs", '{"artist": ["goya"]}', "'artist' must be str, got list"),
    ("meta", '{"attributes": {"artsit": "Goya"}}', "attributes: unknown keys ['artsit']"),
    ("attrs", '{"artsit": "Goya"}', "unknown keys ['artsit']"),
    ("masked", '[{"tokens": []}]', "item 0: masked sentence must contain at least one token"),
    ("masked", '[{"tokens": ["a"]}, {"tokens": ["A"]}]',
     "item 1: word token 'A' must be lowercase"),
    ("masked", '[{"tokens": ["a"], "topic": "nope"}]', "item 0: unknown topic label 'nope'"),
    ("meta", '{"attributs": {"artist": "goya"}}', "unknown keys ['attributs']"),
    ("masked", '[{"tokens": ["a"], "topc": "content"}]', "item 0: unknown keys ['topc']"),
], ids=["meta-invalid", "meta-attributes-not-object", "meta-list", "masked-invalid",
        "masked-object", "masked-no-tokens", "attrs-invalid", "attrs-list", "config-list",
        "meta-attribute-not-string", "meta-object-not-string", "attrs-value-not-string",
        "meta-misspelled-attribute", "attrs-misspelled-attribute",
        "masked-empty-tokens", "masked-uppercase-word", "masked-unknown-topic",
        "meta-misspelled-key", "masked-misspelled-key"])
def test_malformed_json_exit_code(world, tmp_path, capsys, flag, text, message):
    _, _, config, _ = world
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    masked = tmp_path / "masked.json"
    masked.write_text('[{"tokens": ["by", "[person]"]}]', encoding="utf-8")
    fill = ["fill", "--ckpt", config["filler_checkpoint"], "--gazetteer", config["gazetteer"]]
    argv = {
        "meta": ["retrieve", "--index", config["index"], "--meta", str(bad)],
        "masked": [*fill, "--masked", str(bad)],
        "attrs": [*fill, "--masked", str(masked), "--attrs", str(bad)],
        "config": ["describe", "--config", str(bad)],
    }[flag]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and f"{bad}" in line and message in line


@pytest.mark.parametrize("key, value, message", [
    ("retrieval_k", "5", "'retrieval_k' must be int, got str"),
    ("beam_size", "x", "'beam_size' must be int, got str"),
    ("corpus", 5, "'corpus' must be str or null, got int"),
    ("seed", [1], "'seed' must be int, got list"),
    ("seed", True, "'seed' must be int, got bool"),
    ("knowledge_mode", None, "'knowledge_mode' must be str, got NoneType"),
    ("decode_mode", "sample", "unknown decode_mode 'sample'"),
    ("beam_size", 0, "beam_size must be >= 1, got 0"),
    ("retrieval_k", -1, "retrieval_k must be >= 1, got -1"),
], ids=["retrieval_k-str", "beam_size-str", "corpus-int", "seed-list", "seed-bool",
        "knowledge_mode-null", "decode_mode-unknown", "beam_size-zero", "retrieval_k-negative"])
def test_mistyped_config_value_exit_code(world, tmp_path, capsys, key, value, message):
    _, records, config, _ = world
    bad = tmp_path / "pipeline.json"
    bad.write_text(json.dumps({**config, key: value}), encoding="utf-8")
    capsys.readouterr()
    assert main(["describe", "--config", str(bad), "--painting-id", records[0].id]) == EXIT_DATA
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and f"{bad}: " in line and message in line


def test_beam_over_the_decode_cap_exit_code(world, tmp_path, capsys, monkeypatch):
    """A beam too wide to decode exits 2 naming ``beam_size``, with one log
    line and no traceback, before any decode step is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a DecodeStep was built")

    _, records, config, _ = world
    bad = tmp_path / "pipeline.json"
    bad.write_text(json.dumps({**config, "beam_size": 1_000_000}), encoding="utf-8")
    monkeypatch.setattr(DecodeStep, "__init__", refuse)
    capsys.readouterr()
    assert main(["describe", "--config", str(bad), "--painting-id", records[0].id]) == EXIT_DATA
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and "beam_size 1000000 " in json.loads(line)["event"]


@pytest.mark.parametrize("key", ["corpus", "blocklist", "features_dir"])
def test_config_path_of_the_wrong_kind_exit_code(world, tmp_path, capsys, key):
    """An empty path (the working directory) where a file belongs, or a file
    where a directory belongs, is refused with the key's name."""
    _, records, config, _ = world
    bad = tmp_path / "pipeline.json"
    bad.write_text(json.dumps({**config, key: config["corpus"] if key == "features_dir" else ""}),
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["describe", "--config", str(bad), "--painting-id", records[0].id]) == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    kind = "directory" if key == "features_dir" else "file"
    assert f"'{key}' must name a {kind}" in json.loads(line)["event"]


@pytest.mark.parametrize("command, flag", [
    ("retrieve", "--blocklist"), ("eval-recall", "--blocklist"), ("index", "--knowledge-dir"),
    ("index", "--out"), ("index", "--stoplist"), ("fill", "--articles"), ("fill", "--attrs"),
    ("describe", "--out"), ("describe", "--config"), ("train-decoder", "--features-dir"),
])
def test_empty_path_flag_is_a_usage_error(capsys, command, flag):
    """An empty path would name the working directory: it exits 1 naming
    the flag, before any file is read or written."""
    capsys.readouterr()
    assert main([command, flag, ""]) == EXIT_USAGE
    assert f"argument {flag}: the path must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--mode", "greedy"], ["--beam-size", "5"],
                                  ["--max-len", "8"], ["--seed", "1"]],
                         ids=["mode", "beam-size", "max-len", "seed"])
def test_describe_setting_flag_is_a_usage_error(world, capsys, flag):
    """``describe`` takes its settings from ``pipeline.json`` alone, and
    its decode length from the decoder checkpoint: a flag that would
    override one exits 1."""
    _, records, _, config_path = world
    capsys.readouterr()
    assert main(["describe", "--config", str(config_path), "--painting-id", records[0].id,
                 *flag]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("how", GRID_DAMAGE)
def test_broken_grid_of_the_described_painting_exit_code(world, tmp_path, capsys, how):
    """A missing, corrupt or old-layout grid exits 2 naming the grid and the
    cause. The corrupt grid has one flipped bit, which the reader before
    grids were containers read without error."""
    _, records, config, _ = world
    features = tmp_path / "features"
    shutil.copytree(config["features_dir"], features)
    grid = features / f"{records[0].id}.fgrd"
    damage_grid(grid, how)
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({**config, "features_dir": str(features)}),
                           encoding="utf-8")
    capsys.readouterr()
    assert main(["describe", "--config", str(config_path),
                 "--painting-id", records[0].id]) == EXIT_DATA
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    event = json.loads(line)["event"]
    assert out == "" and str(grid) in event and GRID_DAMAGE[how] in event


@pytest.mark.parametrize("how", GRID_DAMAGE)
def test_broken_grid_of_a_later_painting_keeps_the_last_reports(world, tmp_path, capsys, how):
    """``describe`` streams the split's reports. A broken grid of a later
    painting exits 2 naming the grid; ``--out`` keeps its previous file byte
    for byte, and stdout holds the reports of the paintings before it."""
    _, records, config, _ = world
    features = tmp_path / "features"
    shutil.copytree(config["features_dir"], features)
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({**config, "features_dir": str(features)}),
                           encoding="utf-8")
    out = tmp_path / "reports.jsonl"
    argv = ["describe", "--config", str(config_path), "--out", str(out)]
    assert main(argv) == EXIT_OK
    previous = out.read_bytes()
    grid = features / f"{records[-2].id}.fgrd"
    damage_grid(grid, how)
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    assert str(grid) in json.loads(line)["event"]
    assert out.read_bytes() == previous
    assert sorted(tmp_path.iterdir()) == sorted([features, config_path, out])
    assert main(argv[:-2]) == EXIT_DATA
    assert capsys.readouterr().out.encode() == b"".join(previous.splitlines(True)[:-2])


def test_verbose_describe_logs_each_artifact_load(world, tmp_path, capsys):
    """--verbose adds one DEBUG event per artifact load on stderr; the
    report stays byte-identical. Retrieval from the external corpus loads
    the index and no article corpus: the index holds the bodies."""
    _, records, oracle_config, oracle_path = world
    external_path = tmp_path / "pipeline.json"
    external_config = dict(oracle_config, knowledge_mode="external-corpus")
    external_path.write_text(json.dumps(external_config), encoding="utf-8")
    for config, config_path in [(oracle_config, oracle_path), (external_config, external_path)]:
        argv = ["describe", "--config", str(config_path), "--painting-id", records[0].id]
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        quiet = capsys.readouterr()
        assert main(["--verbose", *argv]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out == quiet.out and quiet.err == ""
        loads = [e for e in map(json.loads, err.splitlines()) if e["event"] == "loaded artifact"]
        grid = str(Path(config["features_dir"]) / f"{records[0].id}.fgrd")
        want = {
            ("corpus", config["corpus"]), ("feature grid", grid),
            ("decoder", config["decoder_checkpoint"]), ("gazetteer", config["gazetteer"]),
            ("filler", config["filler_checkpoint"]),
        }
        if config is external_config:
            want.add(("index", config["index"]))
        assert {(e["artifact"], e["path"]) for e in loads} == want
        assert len(loads) == len(want)
        assert all(e["level"] == "debug" and e["seconds"] >= 0 for e in loads)
        assert "loaded artifact" not in out


def test_describe_one_topic_logs_no_warning(world, capsys):
    """Topics that were not asked for are not missing."""
    _, records, _, config_path = world
    capsys.readouterr()
    assert main(["describe", "--config", str(config_path), "--painting-id", records[0].id,
                 "--topic", "content"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert set(json.loads(out)["sentences"]) == {"content"}
    assert [json.loads(line) for line in err.splitlines()
            if json.loads(line)["level"] == "warning"] == []


def _describe(config_path, capsys, *flags) -> str:
    capsys.readouterr()
    assert main(["describe", "--config", str(config_path), *flags]) == EXIT_OK
    return capsys.readouterr().out


def test_reports_name_their_inputs_by_content_not_path(world, tmp_path, capsys):
    """Every artifact copied to another directory, with its own
    pipeline.json, gives byte-identical reports."""
    root, _, config, _ = world
    external = dict(config, knowledge_mode="external-corpus")
    copy = tmp_path / "copy"
    shutil.copytree(root, copy)
    paths = [tmp_path / "pipeline.json", copy / "pipeline.json"]
    paths[0].write_text(json.dumps(external), encoding="utf-8")
    paths[1].write_text(json.dumps({key: value.replace(str(root), str(copy), 1)
                                    if isinstance(value, str) else value
                                    for key, value in external.items()}), encoding="utf-8")
    reports = [_describe(path, capsys) for path in paths]
    assert reports[0] == reports[1] and str(root) not in reports[0]
    for line in reports[0].splitlines():
        assert set(json.loads(line)["inputs"]) == {"decoder", "filler", "gazetteer",
                                                   "blocklist", "index"}


def test_one_filler_byte_moves_only_its_digests(world, tmp_path, capsys):
    """One byte changed in a filler parameter that this painting's fill
    never reads (the embedding of a token absent from its report), sealed
    again: the report's filler digest and inputs digest move, nothing else."""
    _, records, config, config_path = world
    before = _describe(config_path, capsys, "--painting-id", records[0].id)
    meta, arrays, _ = load_container(config["filler_checkpoint"], "checkpoint")
    row = next(i for i, token in enumerate(meta["vocab_tokens"])
               if i >= len(RESERVED) and token not in before.lower())
    embed = arrays["fill.embed"].copy()
    embed.view(np.uint8).reshape(len(embed), -1)[row, 0] ^= 1
    bad = tmp_path / "filler.ckpt"
    save_container(bad, meta, {**arrays, "fill.embed": embed})
    bad_config = tmp_path / "pipeline.json"
    bad_config.write_text(json.dumps({**config, "filler_checkpoint": str(bad)}),
                          encoding="utf-8")
    after = json.loads(_describe(bad_config, capsys, "--painting-id", records[0].id))
    before = json.loads(before)
    assert after["inputs"].pop("filler") != before["inputs"].pop("filler")
    assert after.pop("inputs_digest") != before.pop("inputs_digest")
    assert after == before


def test_overflowing_checkpoint_exit_code(world, tmp_path):
    """Finite weights that overflow load, then fail a finiteness check: the
    decoder's in the decode step, the filler's in a node of the slot
    scorer. Each exits 2, and stderr holds JSON log lines only (numpy's
    overflow warnings included), no traceback. Run as a process, because a
    process warns the way a user sees it."""
    _, records, config, _ = world
    src = str(Path(artdesc.__file__).resolve().parents[1])
    for key, names, message in [
        ("decoder_checkpoint", ["content.out.w"],
         "numeric error: non-finite values produced by the decode step"),
        ("filler_checkpoint", ["fill.bilinear", "fill.cand.w"],
         "numeric error: non-finite values produced by linear"),
    ]:
        meta, arrays, _ = load_container(config[key], "checkpoint")
        for name in names:
            arrays[name] = np.full_like(arrays[name], 1e308)
        bad = tmp_path / Path(config[key]).name
        save_container(bad, meta, arrays)
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps({**config, key: str(bad), "decode_mode": "greedy"}),
                               encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "artdesc.cli", "describe", "--config", str(config_path),
             "--painting-id", records[0].id, "--topic", "content"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == EXIT_DATA, (key, proc.stdout)
        events = [json.loads(line)["event"] for line in proc.stderr.splitlines()]
        assert message in events, (key, events)


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "artdesc" in capsys.readouterr().out


def test_logs_are_json_lines(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert main(["train-filler", "--corpus", str(bad),
                 "--out", str(tmp_path / "x.ckpt"), "--epochs", "1"]) == EXIT_DATA
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert err_lines
    for line in err_lines:
        payload = json.loads(line)
        assert {"ts", "level", "event"} <= set(payload)


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
def test_log_line_breaks_are_escaped(world, tmp_path, capsys, char):
    """A line break that str.splitlines knows, logged inside a value (here
    an attribute key that the error echoes), stays inside its JSON line."""
    _, _, config, _ = world
    attrs, masked = tmp_path / "attrs.json", tmp_path / "masked.json"
    attrs.write_text(json.dumps({char: None}), encoding="utf-8")
    masked.write_text('[{"tokens": ["by", "[person]"]}]', encoding="utf-8")
    capsys.readouterr()
    assert main(["fill", "--ckpt", config["filler_checkpoint"], "--gazetteer",
                 config["gazetteer"], "--masked", str(masked), "--attrs", str(attrs)]) == EXIT_DATA
    (line,) = capsys.readouterr().err.splitlines()
    assert f"'{char}' must be str" in json.loads(line)["event"]


def test_training_logs_each_epoch_with_fields(cli_world, tmp_path, capsys):
    corpus_path = cli_world[2]
    capsys.readouterr()
    assert main(["train-filler", "--corpus", str(corpus_path), "--out", str(tmp_path / "f.ckpt"),
                 "--epochs", "2", "--hidden-size", "4", "--embed-size", "4"]) == EXIT_OK
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    epochs = [e for e in events if e["event"] == "epoch"]
    assert [e["epoch"] for e in epochs] == [0, 1]
    for e in epochs:
        assert {"lr", "loss_per_slot", "skipped_slots", "seconds", "units_per_s"} <= set(e)
        assert e["seconds"] > 0 and e["units_per_s"] >= 0
