"""Query construction and R@k evaluation."""

import json

import numpy as np
import pytest

from artdesc.errors import DataError
from artdesc.retriever import (
    KnowledgeArticle,
    RetrievalAnnotation,
    RetrievalLabel,
    TfIdfIndex,
    build_query,
    default_blocklist,
    eval_recall,
    load_annotations,
)


class TestBuildQuery:
    def test_spec_example(self):
        query = build_query(
            {"artist": "constable", "type": "landscape"},
            ["river", "cell phone"],
            blocklist=frozenset({"cell phone"}),
        )
        assert query == "constable landscape river"

    def test_attribute_order_fixed(self):
        query = build_query(
            {"school": "dutch", "artist": "vermeer", "timeframe": "1665", "type": "genre"},
            [],
        )
        assert query == "vermeer genre 1665 dutch"

    def test_empty_objects(self):
        assert build_query({"artist": "goya"}, []) == "goya"

    def test_fully_empty_flagged(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            assert build_query({}, []) == ""
        # the caller warns, as only it can name the painting
        assert caplog.records == []

    def test_determinism(self):
        args = ({"artist": "goya", "type": "portrait"}, ["dog", "hat"])
        assert build_query(*args) == build_query(*args)

    def test_default_blocklist_has_cell_phone(self):
        assert "cell phone" in default_blocklist()
        q = build_query({}, ["river", "cell phone"])
        assert q == "river"


class TestEvalRecall:
    def _annotations(self):
        return [
            RetrievalAnnotation("p1", [("a1", RetrievalLabel.CORRECT),
                                       ("a9", RetrievalLabel.INCORRECT)]),
            RetrievalAnnotation("p2", [("a2", RetrievalLabel.AUTHOR)]),
            RetrievalAnnotation("p3", [("a3", RetrievalLabel.THEME)]),
        ]

    def test_every_positive_first_gives_100(self):
        rankings = {"p1": ["a1", "x"], "p2": ["a2", "x"], "p3": ["a3", "x"]}
        report = eval_recall(rankings, self._annotations(), ks=(1, 5))
        assert report["classes"]["all"]["recall"]["1"] == 100.0
        assert report["classes"]["correct"]["recall"]["1"] == 100.0
        assert report["classes"]["author"]["num_paintings"] == 1

    def test_negative_labels_not_counted(self):
        rankings = {"p1": ["a9", "a1"], "p2": ["a2"], "p3": ["a3"]}
        report = eval_recall(rankings, self._annotations(), ks=(1,))
        # a9 is Incorrect: ranking it first is not a hit for p1
        assert report["classes"]["correct"]["recall"]["1"] == 0.0
        assert report["classes"]["all"]["recall"]["1"] == pytest.approx(200.0 / 3)

    def test_unannotated_rankings_excluded_and_counted(self):
        rankings = {"p1": ["a1"], "p2": ["a2"], "p3": ["a3"], "p4": ["zz"]}
        report = eval_recall(rankings, self._annotations(), ks=(1,))
        assert report["excluded_unannotated"] == 1
        assert report["evaluated"] == 3

    def test_missing_ranking_is_error(self):
        with pytest.raises(DataError, match="p3"):
            eval_recall({"p1": ["a1"], "p2": ["a2"]}, self._annotations(), ks=(1,))

    def test_class_without_paintings_reported_absent(self):
        anns = [RetrievalAnnotation("p1", [("a1", RetrievalLabel.AUTHOR)])]
        report = eval_recall({"p1": ["a1"]}, anns, ks=(1,))
        assert report["classes"]["theme"]["num_paintings"] == 0
        assert report["classes"]["theme"]["recall"]["1"] is None

    def test_planted_rare_bigram_gives_perfect_recall(self):
        # Positives share a unique rare bigram with their painting's query.
        rng = np.random.default_rng(71)
        filler = ["oil", "panel", "fresco", "saint", "altar"]
        articles = []
        annotations = []
        queries = {}
        for i in range(10):
            marker = f"zkey{i} zval{i}"
            body = " ".join(
                [filler[int(w)] for w in rng.integers(0, len(filler), size=8)] + [marker]
            )
            articles.append(KnowledgeArticle(f"pos{i}", f"pos{i}", body))
            annotations.append(
                RetrievalAnnotation(f"p{i}", [(f"pos{i}", RetrievalLabel.CORRECT)])
            )
            queries[f"p{i}"] = f"{filler[i % len(filler)]} {marker}"
        for i in range(30):
            body = " ".join(filler[int(w)] for w in rng.integers(0, len(filler), size=12))
            articles.append(KnowledgeArticle(f"neg{i:02d}", f"neg{i:02d}", body))
        index = TfIdfIndex.build(articles)
        rankings = {
            pid: [doc for doc, _ in index.rank(q, k=10)] for pid, q in queries.items()
        }
        report = eval_recall(rankings, annotations, ks=(1,))
        assert report["classes"]["all"]["recall"]["1"] == 100.0


def write_annotations(path, rows):
    """One annotation line per (painting id, article id, label name)."""
    path.write_text("".join(json.dumps({"painting_id": pid, "article_id": aid, "label": label})
                            + "\n" for pid, aid, label in rows), encoding="utf-8")


def test_annotation_file_round_trip(tmp_path):
    anns = [
        RetrievalAnnotation("p1", [("a1", RetrievalLabel.CORRECT),
                                   ("a2", RetrievalLabel.AMBIGUATION)]),
        RetrievalAnnotation("p2", [("a3", RetrievalLabel.AUTHOR)]),
    ]
    path = tmp_path / "anns.jsonl"
    write_annotations(path, [(ann.painting_id, aid, label.value)
                              for ann in anns for aid, label in ann.articles])
    loaded = load_annotations(path)
    assert loaded == anns
