"""Recall-at-k evaluation against five-label article annotations.

An annotated article is Correct (about the exact painting), Theme, Author,
Ambiguation, or Incorrect; the first three count as positives. Per-class
recall is measured over the paintings that have at least one article of that
class; the overall row counts a hit when any positive article appears in the
top k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from artdesc.corpus.corpusio import read_jsonl
from artdesc.errors import DataError


class RetrievalLabel(enum.Enum):
    CORRECT = "correct"
    THEME = "theme"
    AUTHOR = "author"
    AMBIGUATION = "ambiguation"
    INCORRECT = "incorrect"


POSITIVE_LABELS = (RetrievalLabel.CORRECT, RetrievalLabel.THEME, RetrievalLabel.AUTHOR)


@dataclass
class RetrievalAnnotation:
    painting_id: str
    articles: list[tuple[str, RetrievalLabel]]


def load_annotations(path: str | Path) -> list[RetrievalAnnotation]:
    """Line-delimited records {painting_id, article_id, label}, grouped by
    painting; a label is matched case-insensitively, and a bad record raises
    DataError naming ``path:lineno``."""
    grouped: dict[str, list[tuple[str, RetrievalLabel]]] = {}
    types = {"painting_id": str, "article_id": str, "label": str}
    for lineno, obj in read_jsonl(path, tuple(types), types):
        try:
            label = RetrievalLabel(obj["label"].lower())
        except ValueError:
            raise DataError(f"{path}:{lineno}: unknown retrieval label '{obj['label']}'") from None
        grouped.setdefault(obj["painting_id"], []).append((obj["article_id"], label))
    return [RetrievalAnnotation(pid, articles) for pid, articles in grouped.items()]


_CLASS_ROWS = {
    "correct": (RetrievalLabel.CORRECT,),
    "theme": (RetrievalLabel.THEME,),
    "author": (RetrievalLabel.AUTHOR,),
    "all": POSITIVE_LABELS,
}


def eval_recall(
    rankings: dict[str, list[str]],
    annotations: list[RetrievalAnnotation],
    ks: tuple[int, ...],
) -> dict:
    """R@k per label class and overall.

    rankings maps painting id to its ranked article ids. Paintings in the
    rankings without an annotation are excluded and counted in the report;
    annotated paintings missing from the rankings raise an error.
    """
    by_painting = {ann.painting_id: ann for ann in annotations}
    missing = [pid for pid in by_painting if pid not in rankings]
    if missing:
        raise DataError(f"no rankings for annotated paintings: {sorted(missing)}")
    excluded = sorted(pid for pid in rankings if pid not in by_painting)

    report: dict = {
        "ks": list(ks),
        "classes": {},
        "evaluated": len(by_painting),
        "excluded_unannotated": len(excluded),
    }
    for row_name, labels in _CLASS_ROWS.items():
        eligible = 0
        hits = {k: 0 for k in ks}
        for pid, ann in by_painting.items():
            positives = {aid for aid, label in ann.articles if label in labels}
            if not positives:
                continue
            eligible += 1
            ranked = rankings[pid]
            for k in ks:
                if positives & set(ranked[:k]):
                    hits[k] += 1
        report["classes"][row_name] = {
            "num_paintings": eligible,
            "recall": {
                str(k): (100.0 * hits[k] / eligible if eligible else None) for k in ks
            },
        }
    return report
