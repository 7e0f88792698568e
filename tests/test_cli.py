"""CLI plumbing: every subcommand, exit codes, artifact flow."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from synth import ENTITY_PEOPLE, ENTITY_PLACES, entity_corpus

import artdesc.numcore as nc
from artdesc.cli import EXIT_DATA, EXIT_MISSING, EXIT_OK, EXIT_USAGE, main
from artdesc.corpus import save_corpus, save_feature_grid
from artdesc.retriever import (
    KnowledgeArticle,
    RetrievalAnnotation,
    RetrievalLabel,
    TfIdfIndex,
    save_annotations,
)


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


def test_full_command_flow(cli_world, capsys):
    root, records, corpus_path, features_dir, gazetteer_path, knowledge_dir = cli_world

    decoder_path = root / "decoder.ckpt"
    assert main([
        "train-decoder", "--corpus", str(corpus_path), "--features-dir", str(features_dir),
        "--out", str(decoder_path), "--variant", "parallel", "--epochs", "3",
        "--hidden-size", "12", "--embed-size", "8", "--seed", "1",
    ]) == EXIT_OK
    assert decoder_path.exists()

    filler_path = root / "filler.ckpt"
    assert main([
        "train-filler", "--corpus", str(corpus_path), "--out", str(filler_path),
        "--epochs", "2", "--hidden-size", "8", "--embed-size", "8", "--seed", "1",
    ]) == EXIT_OK
    assert filler_path.exists()

    index_path = root / "knowledge.idx"
    assert main(["index", "--knowledge-dir", str(knowledge_dir),
                 "--out", str(index_path)]) == EXIT_OK
    assert index_path.exists()
    capsys.readouterr()

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
        "knowledge_dir": str(knowledge_dir),
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
    save_annotations(annotations_path, [
        RetrievalAnnotation(r.id, [(f"{r.id}-bio", RetrievalLabel.AUTHOR)]) for r in records
    ])
    assert main(["eval-recall", "--index", str(index_path), "--corpus", str(corpus_path),
                 "--annotations", str(annotations_path), "--ks", "1,2"]) == EXIT_OK
    recall_report = json.loads(capsys.readouterr().out)
    assert recall_report["classes"]["author"]["num_paintings"] == len(records)


def test_fill_and_single_topic_describe(cli_world, tmp_path, capsys):
    root, records, corpus_path, features_dir, gazetteer_path, _ = cli_world

    filler_path = root / "filler2.ckpt"
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

    # single-topic describe via flag override
    decoder_path = root / "decoder.ckpt"
    index_path = root / "knowledge.idx"
    if decoder_path.exists() and index_path.exists():
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps({
            "corpus": str(corpus_path),
            "features_dir": str(features_dir),
            "gazetteer": str(gazetteer_path),
            "decoder_checkpoint": str(decoder_path),
            "filler_checkpoint": str(filler_path),
            "index": str(index_path),
            "knowledge_dir": str(root / "knowledge"),
            "knowledge_mode": "reference-as-oracle",
        }), encoding="utf-8")
        assert main([
            "describe", "--config", str(config_path), "--painting-id", records[0].id,
            "--topic", "content", "--mode", "greedy", "--max-len", "8",
        ]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report["sentences"]) == {"content"}


def test_preprocess_round_trip(cli_world, tmp_path):
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
    record = json.loads(out_path.read_text().splitlines()[0])
    assert record["id"] == "x1"
    assert len(record["sentences"]) == 2
    first = record["sentences"][0]
    assert first["topic"] is None
    assert {e["value"] for e in first["entities"]} == {"vasari", "delft"}
    from artdesc.corpus import load_corpus

    loaded = load_corpus(out_path)  # masks re-derived from the entity lists
    assert loaded[0].total_slots() == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train-decoder"]) == EXIT_USAGE  # missing required flags


def test_missing_artifact_exit_code(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"corpus": str(tmp_path / "absent.jsonl")}))
    assert main(["describe", "--config", str(config)]) == EXIT_MISSING
    assert main(["describe", "--config", str(tmp_path / "nope.json")]) == EXIT_MISSING


@pytest.mark.parametrize("corpus, settings", [
    ("bad", ["--epochs", "1"]),
    ("good", ["--batch-size", "0"]),
    ("good", ["--lr", "0"]),
    ("good", ["--epochs", "0"]),
], ids=["bad-corpus", "batch-size-0", "lr-0", "epochs-0"])
def test_data_error_exit_code(cli_world, tmp_path, corpus, settings):
    corpus_path = cli_world[2]
    if corpus == "bad":
        corpus_path = tmp_path / "bad.jsonl"
        corpus_path.write_text("not json\n", encoding="utf-8")
    out = tmp_path / "out.ckpt"
    assert main(["train-filler", "--corpus", str(corpus_path), "--out", str(out),
                 *settings]) == EXIT_DATA
    assert not out.exists()



@pytest.mark.parametrize("case", [
    "corpus-no-id", "sentence-no-text", "entity-no-type", "articles-no-id",
    "articles-not-object", "annotation-no-label",
])
def test_malformed_jsonl_exit_code(cli_world, tmp_path, capsys, case):
    root, records, corpus_path, _, _, knowledge_dir = cli_world
    bad = tmp_path / "bad.jsonl"
    if case.startswith(("corpus", "sentence", "entity")):
        first = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
        if case == "corpus-no-id":
            del first["id"]
            where = f"{bad}:1:"
        elif case == "sentence-no-text":
            del first["sentences"][0]["text"]
            where = f"painting '{first['id']}' sentence 0: missing key 'text'"
        else:
            entry = next(i for i, sent in enumerate(first["sentences"]) if sent["entities"])
            del first["sentences"][entry]["entities"][0]["type"]
            where = f"painting '{first['id']}' sentence {entry} entity 0: missing key 'type'"
        bad.write_text(json.dumps(first) + "\n", encoding="utf-8")
        argv = ["train-filler", "--corpus", str(bad), "--out", str(tmp_path / "f.ckpt")]
    elif case.startswith("articles"):
        line = '{"body": "fresco"}' if case == "articles-no-id" else "[1, 2]"
        bad.write_text('{"id": "x", "body": "saint"}\n' + line + "\n", encoding="utf-8")
        argv = ["index", "--knowledge-file", str(bad), "--out", str(tmp_path / "k.idx")]
        where = f"{bad}:2:"
    else:
        index_path = tmp_path / "k.idx"
        assert main(["index", "--knowledge-dir", str(knowledge_dir),
                     "--out", str(index_path)]) == EXIT_OK
        bad.write_text(json.dumps({"painting_id": records[0].id, "article_id": "x"}) + "\n",
                       encoding="utf-8")
        argv = ["eval-recall", "--index", str(index_path), "--corpus", str(corpus_path),
                "--annotations", str(bad)]
        where = f"{bad}:1:"
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["stoplist", "blocklist"])
def test_non_utf8_word_list_exit_code(cli_world, tmp_path, capsys, flag):
    knowledge_dir = cli_world[5]
    words = tmp_path / "words.txt"
    words.write_bytes(b"\xff\xfeth\x00e\x00\n\x00")
    index_path = tmp_path / "k.idx"
    if flag == "stoplist":
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


def _idx_bytes(terms, df, doc_ids, indptr, indices, data) -> bytes:
    """The .idx layout written field by field, so a test can store tables
    that TfIdfIndex refuses to hold. ``terms`` are already encoded."""
    def strings(blobs):
        return b"".join(struct.pack("<I", len(blob)) + blob for blob in blobs)

    return b"".join([
        b"TFIX", struct.pack("<IIIQ", 1, len(terms), len(doc_ids), len(indices)),
        strings(terms), np.asarray(df, "<i8").tobytes(),
        strings(d.encode("utf-8") for d in doc_ids), np.asarray(indptr, "<u8").tobytes(),
        np.asarray(indices, "<u4").tobytes(), np.asarray(data, "<f8").tobytes(),
    ])


@pytest.mark.parametrize("corruption", [
    "bad-utf8-term", "truncated", "trailing-bytes", "decreasing-indptr",
    "term-id-out-of-range", "unsorted-doc-ids", "duplicate-doc-ids",
])
def test_malformed_index_exit_code(tmp_path, capsys, corruption):
    idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco altar"),
                            KnowledgeArticle("b", "b", "river castle saint"),
                            KnowledgeArticle("c", "c", "monk horse saint")])
    terms = [t.encode("utf-8") for t in idx.terms]
    doc_ids, indptr, indices = list(idx.doc_ids), idx.indptr.copy(), idx.indices.copy()
    idx.save(tmp_path / "good.idx")
    assert _idx_bytes(terms, idx.df, doc_ids, indptr, indices, idx.data) == \
        (tmp_path / "good.idx").read_bytes()
    if corruption == "bad-utf8-term":
        terms[0] = b"\xff" + terms[0][1:]
    elif corruption == "decreasing-indptr":
        indptr[1], indptr[2] = indptr[2], indptr[1]
    elif corruption == "term-id-out-of-range":
        indices[-1] = len(terms)
    elif corruption == "unsorted-doc-ids":
        doc_ids[0], doc_ids[1] = doc_ids[1], doc_ids[0]
    elif corruption == "duplicate-doc-ids":
        doc_ids[1] = doc_ids[0]
    raw = _idx_bytes(terms, idx.df, doc_ids, indptr, indices, idx.data)
    if corruption == "truncated":
        raw = raw[:-3]
    elif corruption == "trailing-bytes":
        raw += b"\0"
    bad = tmp_path / "bad.idx"
    bad.write_bytes(raw)
    capsys.readouterr()
    assert main(["retrieve", "--index", str(bad), "--query", "saint fresco"]) == EXIT_DATA
    assert capsys.readouterr().out == ""

def _rewrite_ckpt_header(raw: bytes, corruption: str) -> bytes:
    """Corrupt the config digest or the JSON metadata of a .ckpt file."""
    pos = 12  # magic + version
    (digest_len,) = struct.unpack("<I", raw[pos : pos + 4])
    digest = raw[pos + 4 : pos + 4 + digest_len]
    pos += 4 + digest_len
    (meta_len,) = struct.unpack("<I", raw[pos : pos + 4])
    meta = raw[pos + 4 : pos + 4 + meta_len]
    params = raw[pos + 4 + meta_len :]
    if corruption == "invalid-json":
        meta = b"{not json"
    elif corruption == "non-utf8-digest":
        digest = b"\xff" + digest[1:]
    else:
        obj = json.loads(meta)
        if corruption == "no-config":
            del obj["config"]
        else:
            obj["config"]["bogus"] = 1
        meta = json.dumps(obj).encode("utf-8")
    return (raw[:12] + struct.pack("<I", len(digest)) + digest
            + struct.pack("<I", len(meta)) + meta + params)


NAN_PARAM = {"decoder": "content.out.b", "filler": "fill.cand.b"}


@pytest.mark.parametrize("kind", ["decoder", "filler"])
@pytest.mark.parametrize("corruption, message", [
    ("invalid-json", "metadata is not valid JSON"),
    ("non-utf8-digest", "config digest is not valid UTF-8"),
    ("no-config", "missing keys ['config']"),
    ("unknown-config-key", "unknown keys ['bogus']"),
    ("nan-param", "checkpoint holds non-finite values"),
], ids=["invalid-json", "non-utf8-digest", "no-config", "unknown-config-key", "nan-param"])
def test_malformed_checkpoint_exit_code(world, tmp_path, capsys, kind, corruption, message):
    _, records, config, _ = world
    key = f"{kind}_checkpoint"
    bad = tmp_path / f"{kind}.ckpt"
    if corruption == "nan-param":
        arrays, digest, meta, _ = nc.load_checkpoint(config[key])
        arrays[NAN_PARAM[kind]][0] = np.nan
        nc.save_checkpoint(bad, arrays, digest, meta)
        message = f"parameter '{NAN_PARAM[kind]}': {message}"
    else:
        bad.write_bytes(_rewrite_ckpt_header(Path(config[key]).read_bytes(), corruption))
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({**config, key: str(bad)}), encoding="utf-8")
    capsys.readouterr()
    assert main(["describe", "--config", str(config_path), "--painting-id", records[0].id,
                 "--topic", "content", "--mode", "greedy"]) == EXIT_DATA
    assert message in capsys.readouterr().err


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
