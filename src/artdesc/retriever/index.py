"""Unigram+bigram TF-IDF inverted index with cosine ranking.

Weights are tf * idf with idf = ln((1+N)/(1+df)) + 1 (smoothed, never
negative); document vectors are L2-normalized, so the ranking score is the
cosine similarity between the normalized query vector and each document.

An index is saved as a numcore container of kind "tfidf-index": the terms
(in term-id order), doc ids (sorted, unique) and stop words (sorted) as JSON
lists in its metadata; the indptr, indices and data tables, and the kept
articles' UTF-8 bodies with one end offset per doc id, as arrays. The
constructor, which both build and load end in, rejects tables that do not
hold together and derives the term-major postings and each term's df (its
number of postings); they are not stored.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from artdesc.corpus.corpusio import check_object, read_jsonl, read_text
from artdesc.errors import DataError
from artdesc.numcore.checkpoint import load_container, save_container
from artdesc.retriever.normalize import default_stopwords, normalize_text

logger = logging.getLogger(__name__)

KIND = "tfidf-index"
ARRAYS = {"indptr": "u8", "indices": "u4", "data": "f8", "bodies": "u1", "body_ends": "u8"}
HEADER_TYPES = {"terms": list[str], "doc_ids": list[str], "stopwords": list[str]}
STEM_MEMO_CAP = 1 << 16  # query words an index's stem memo holds before rank starts a new one


@dataclass
class KnowledgeArticle:
    id: str
    title: str
    body: str


def terms_of(tokens: list[str]) -> list[str]:
    """Unigrams plus adjacent bigrams (joined with one space)."""
    bigrams = [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    return tokens + bigrams


class TfIdfIndex:
    """Document-major CSR rows (what is saved) plus their term-major
    transpose (derived here, never stored): term t's postings are rows
    ``_rows[_colptr[t]:_colptr[t+1]]`` in ascending order, with weights
    ``_weights`` at the same positions, and ``df`` counts them. ``term_ids``
    maps each term to its id, in id order. ``sha256`` is the trailer of the
    file ``load`` read. ``_stems`` memoizes the stems of query words."""

    def __init__(
        self,
        term_ids: dict[str, int],
        doc_ids: list[str],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        stopwords: frozenset[str],
        bodies: np.ndarray,
        body_ends: np.ndarray,
        sha256: str | None = None,
    ):
        self.terms = list(term_ids)
        self.term_ids = term_ids
        self.doc_ids = doc_ids
        self.indptr = np.asarray(indptr, dtype=np.uint64)
        self.indices = np.asarray(indices, dtype=np.uint32)
        self.data = np.asarray(data, dtype=np.float64)
        self.stopwords = frozenset(stopwords)
        self.bodies = np.asarray(bodies, dtype=np.uint8)
        self.body_ends = np.asarray(body_ends, dtype=np.uint64)
        self.sha256 = sha256
        self._stems: dict[str, str] = {}
        self.df = self._check_structure()
        self._idf = np.log((1.0 + self.n_docs) / (1.0 + self.df)) + 1.0
        rows = np.repeat(np.arange(self.n_docs), np.diff(self.indptr.astype(np.int64)))
        order = np.argsort(self.indices, kind="stable")
        self._rows = rows[order]
        self._weights = self.data[order]
        self._colptr = np.zeros(len(self.terms) + 1, dtype=np.int64)
        np.cumsum(self.df, out=self._colptr[1:])

    def _check_structure(self) -> np.ndarray:
        """Rejects tables that would silently change rankings or bodies:
        tables that do not hold together, or doc ids out of order. Returns
        each term's number of postings."""
        nnz = len(self.indices)
        if len(self.data) != nnz or not np.all(np.isfinite(self.data)):
            raise DataError(f"weights must be {nnz} finite values, one per term id")
        if (len(self.indptr) != self.n_docs + 1 or self.indptr[0] != 0
                or self.indptr[-1] != nnz or np.any(self.indptr[1:] < self.indptr[:-1])):
            raise DataError(f"indptr must rise from 0 to {nnz} in {self.n_docs + 1} entries")
        if nnz and int(self.indices.max()) >= len(self.terms):
            raise DataError(f"term id {int(self.indices.max())} is out of range "
                            f"for {len(self.terms)} terms")
        ends = np.append(np.uint64(0), self.body_ends)
        if (len(ends) != self.n_docs + 1 or ends[-1] != len(self.bodies)
                or np.any(ends[1:] < ends[:-1])):
            raise DataError(f"body offsets must rise to {len(self.bodies)} in {self.n_docs} entries")
        for prev, doc_id in zip(self.doc_ids, self.doc_ids[1:]):
            if prev >= doc_id:
                raise DataError(f"doc ids must strictly increase: '{prev}' before '{doc_id}'")
        return np.bincount(self.indices, minlength=len(self.terms))

    def _check_bodies(self) -> None:
        """Rejects a body that is not UTF-8 text of its own: the blob must
        decode, and no body may start inside a character."""
        try:
            self.bodies.tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = [np.searchsorted(self.body_ends, exc.start, side="right")]
        else:  # the first body starts the blob; a later one must not start on 0b10xxxxxx
            starts = self.body_ends[:-1].astype(np.int64)
            bad = 1 + np.flatnonzero(self.bodies[starts[starts < len(self.bodies)]] >> 6 == 2)
        if len(bad):
            raise DataError(f"the body of article '{self.doc_ids[bad[0]]}' is not valid UTF-8")

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, articles: list[KnowledgeArticle],
              stopwords: frozenset[str] | None = None) -> "TfIdfIndex":
        """Articles are processed in sorted-id order so term ids are
        deterministic; articles empty after normalization are dropped, and
        the others' bodies kept. ``stopwords`` defaults to the package list."""
        if not articles:
            raise DataError("cannot build an index from zero articles")
        seen: set[str] = set()
        for a in articles:
            if a.id in seen:
                raise DataError(f"duplicate article id '{a.id}'")
            seen.add(a.id)

        stopwords = default_stopwords() if stopwords is None else stopwords
        term_ids: dict[str, int] = {}
        stems: dict[str, str] = {}
        bodies = bytearray()
        body_ends: list[int] = []
        doc_ids: list[str] = []
        rows: list[list[int]] = []  # term ids of each kept article, in text order
        for article in sorted(articles, key=lambda a: a.id):
            tokens = normalize_text(article.body, stopwords, stems)
            if not tokens:
                logger.warning("dropping article: empty after normalization",
                               extra={"article": article.id})
                continue
            doc_ids.append(article.id)
            rows.append([term_ids.setdefault(t, len(term_ids)) for t in terms_of(tokens)])
            bodies += article.body.encode("utf-8")
            body_ends.append(len(bodies))
        if not doc_ids:
            raise DataError("no usable articles: all were empty after normalization")

        n_docs, n_terms = len(doc_ids), len(term_ids)
        doc = np.repeat(np.arange(n_docs, dtype=np.int64), [len(row) for row in rows])
        tid = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=len(doc))
        # sorted (row, term id) pairs and their term frequencies
        keys, counts = np.unique(doc * n_terms + tid, return_counts=True)
        indices = keys % n_terms
        df = np.bincount(indices, minlength=n_terms)
        indptr = np.zeros(n_docs + 1, dtype=np.uint64)
        np.cumsum(np.bincount(keys // n_terms, minlength=n_docs), out=indptr[1:])
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        data = counts * idf[indices]
        # one sum per row slice: a segmented reduction would change the
        # summation order and with it the last bits of the weights
        for lo, hi in pairwise(indptr.tolist()):
            weights = data[lo:hi]
            weights /= np.sqrt((weights**2).sum())
        return cls(term_ids, doc_ids, indptr, indices, data, stopwords,
                   np.frombuffer(bodies, np.uint8), body_ends)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def rank(self, query: str, k: int) -> list[tuple[str, float]]:
        """Top-k (article id, cosine score), descending score, ties broken by
        article id. A query with no token after normalization (with the
        index's stop words), or with no term in the index, returns no results."""
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        tokens = normalize_text(query, self.stopwords, self._stems)
        if len(self._stems) >= STEM_MEMO_CAP:
            self._stems = {}  # rebound, not cleared: a rank in another thread keeps its dict
        if not tokens:
            logger.warning("query is empty after normalization; returning no results",
                           extra={"query": query})
            return []
        # the query's tf-idf vector over the index's terms, L2-normalized below
        counts = Counter(tid for tid in map(self.term_ids.get, terms_of(tokens))
                         if tid is not None)
        if not counts:
            logger.warning("no query term is in the index; returning no results",
                           extra={"query": query})
            return []
        vec = {tid: c * float(self._idf[tid]) for tid, c in counts.items()}
        norm = float(np.sqrt(sum(w * w for w in vec.values())))
        scores = np.zeros(self.n_docs)
        for tid, w in vec.items():
            lo, hi = self._colptr[tid], self._colptr[tid + 1]
            scores[self._rows[lo:hi]] += (w / norm) * self._weights[lo:hi]
        # only the rows scoring at least the k-th largest score can place (all
        # rows once k >= n_docs); they are in article-id order, so a stable sort
        # breaks ties by id
        m = max(self.n_docs - k, 0)
        rows = np.flatnonzero(scores >= np.partition(scores, m)[m])
        top = rows[np.argsort(-scores[rows], kind="stable")[:k]]
        return [(self.doc_ids[r], min(float(scores[r]), 1.0)) for r in top]

    def body(self, doc_id: str) -> str:
        """The text of article ``doc_id`` as it was indexed."""
        row = bisect_left(self.doc_ids, doc_id)
        if row == self.n_docs or self.doc_ids[row] != doc_id:
            raise DataError(f"no article '{doc_id}' in the index")
        lo = int(self.body_ends[row - 1]) if row else 0
        return self.bodies[lo:int(self.body_ends[row])].tobytes().decode("utf-8")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_container(path, {"kind": KIND, "terms": self.terms, "doc_ids": self.doc_ids,
                              "stopwords": sorted(self.stopwords)},
                       {name: getattr(self, name) for name in ARRAYS})

    @classmethod
    def load(cls, path: str | Path) -> "TfIdfIndex":
        meta, arrays, sha256 = load_container(path, "index")
        if meta.get("kind") != KIND:
            raise DataError(f"{path} is not a {KIND} file (kind={meta.get('kind')!r})")
        if "stopwords" not in meta:
            raise DataError(f"{path}: this index holds no stop words or article bodies; "
                            "rebuild it with `artdesc index`")
        check_object(meta, str(path), tuple(HEADER_TYPES), HEADER_TYPES)
        dtypes = {name: array.dtype.str[1:] for name, array in arrays.items()}
        if dtypes != ARRAYS:
            raise DataError(f"{path}: index arrays must be {ARRAYS}, got {dtypes}; "
                            "rebuild it with `artdesc index`")
        terms = meta["terms"]
        term_ids = dict(zip(terms, range(len(terms))))
        if len(term_ids) != len(terms):
            duplicate = next(t for t, n in Counter(terms).items() if n > 1)
            raise DataError(f"{path}: index term '{duplicate}' is stored twice")
        try:
            index = cls(term_ids, doc_ids=meta["doc_ids"], stopwords=meta["stopwords"],
                        sha256=sha256, **arrays)
            index._check_bodies()
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        return index


# ----------------------------------------------------------------------
# Article readers
# ----------------------------------------------------------------------


def read_articles_dir(directory: str | Path) -> list[KnowledgeArticle]:
    """Directory of plain-text files; the file stem is the article's id and
    title, and the text its body."""
    return [KnowledgeArticle(id=path.stem, title=path.stem, body=read_text(path))
            for path in sorted(Path(directory).glob("*.txt"))]


def read_articles_jsonl(path: str | Path) -> list[KnowledgeArticle]:
    """Line-delimited export: {"id": ..., "title": ..., "body"/"text": ...}.
    An id that is not a string or an int, or a title, body or text that is
    not a string, raises DataError naming ``path:lineno``."""
    types = {"id": str | int, "title": str, "body": str, "text": str}
    return [KnowledgeArticle(id=str(obj["id"]), title=obj.get("title", str(obj["id"])),
                             body=obj.get("body", obj.get("text", "")))
            for _, obj in read_jsonl(path, ("id",), types)]
