"""TF-IDF index versus a dense brute-force oracle, plus serialization."""

import logging
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artdesc.errors import DataError
from artdesc.numcore.checkpoint import save_container
from artdesc.retriever import (
    KnowledgeArticle,
    TfIdfIndex,
    default_stopwords,
    normalize_text,
    stem,
    terms_of,
)
from artdesc.retriever import index as index_module

WORDS = ["oil", "panel", "canvas", "fresco", "portrait", "saint", "river",
         "castle", "horse", "crown", "altar", "monk"]


def random_articles(rng, n, min_len=5, max_len=30):
    articles = []
    for i in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        body = " ".join(WORDS[int(w)] for w in rng.integers(0, len(WORDS), size=length))
        articles.append(KnowledgeArticle(id=f"a{i:03d}", title=f"a{i:03d}", body=body))
    return articles


def dense_oracle(articles):
    """From-scratch dense TF-IDF: returns (doc ids, dense normalized matrix,
    term list). Shares only the text normalizer with the index."""
    docs = []
    vocab = {}
    for article in sorted(articles, key=lambda a: a.id):
        tokens = normalize_text(article.body)
        terms = terms_of(tokens)
        counts = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
            if t not in vocab:
                vocab[t] = len(vocab)
        docs.append((article.id, counts))
    n = len(docs)
    df = np.zeros(len(vocab))
    for _, counts in docs:
        for t in counts:
            df[vocab[t]] += 1
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    mat = np.zeros((n, len(vocab)))
    for row, (_, counts) in enumerate(docs):
        for t, c in counts.items():
            mat[row, vocab[t]] = c * idf[vocab[t]]
        mat[row] /= np.linalg.norm(mat[row])
    return [d[0] for d in docs], mat, vocab, idf


def dense_rank(query, doc_ids, mat, vocab, idf, k):
    tokens = normalize_text(query)
    qv = np.zeros(mat.shape[1])
    for t in terms_of(tokens):
        if t in vocab:
            qv[vocab[t]] += idf[vocab[t]]
    if not qv.any():
        return []
    qv /= np.linalg.norm(qv)
    scores = mat @ qv
    order = sorted(range(len(doc_ids)), key=lambda r: (-scores[r], doc_ids[r]))
    return [(doc_ids[r], scores[r]) for r in order[:k]]


class TestBuild:
    def test_single_document_self_similarity(self):
        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint on horseback")])
        results = idx.rank("saint on horseback", k=1)
        assert results[0][0] == "a"
        assert abs(results[0][1] - 1.0) < 1e-9

    def test_disjoint_vocabulary_zero_similarity(self):
        idx = TfIdfIndex.build([
            KnowledgeArticle("a", "a", "saint altar fresco"),
            KnowledgeArticle("b", "b", "river castle horse"),
        ])
        results = idx.rank("saint altar fresco", k=2)
        assert results[0][0] == "a"
        assert results[1][1] == 0.0

    def test_document_vectors_unit_norm(self):
        rng = np.random.default_rng(62)
        idx = TfIdfIndex.build(random_articles(rng, 12))
        for row in range(idx.n_docs):
            lo, hi = int(idx.indptr[row]), int(idx.indptr[row + 1])
            assert abs(np.sqrt((idx.data[lo:hi] ** 2).sum()) - 1.0) < 1e-9

    def test_df_bounded_by_doc_count(self):
        rng = np.random.default_rng(63)
        idx = TfIdfIndex.build(random_articles(rng, 9))
        assert np.all(idx.df >= 1) and np.all(idx.df <= idx.n_docs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            TfIdfIndex.build([])

    def test_all_stopword_articles_rejected(self):
        with pytest.raises(DataError, match="usable"):
            TfIdfIndex.build([KnowledgeArticle("a", "a", "the of and")])

    def test_empty_article_dropped_with_log(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            idx = TfIdfIndex.build([
                KnowledgeArticle("a", "a", "the of"),
                KnowledgeArticle("b", "b", "saint fresco"),
            ])
        assert idx.n_docs == 1
        assert [r.article for r in caplog.records if r.msg.startswith("dropping article")] \
            == ["a"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            TfIdfIndex.build([
                KnowledgeArticle("a", "a", "x y"),
                KnowledgeArticle("a", "a", "z w"),
            ])

    def test_bigrams_present(self):
        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco altar")])
        assert "saint fresco" in idx.term_ids
        assert "fresco altar" in idx.term_ids


class TestOracleEquivalence:
    def test_pairwise_similarities_match_dense(self):
        rng = np.random.default_rng(64)
        articles = random_articles(rng, 10)
        idx = TfIdfIndex.build(articles)
        doc_ids, mat, _, _ = dense_oracle(articles)
        gram = mat @ mat.T
        for i, did in enumerate(doc_ids):
            results = dict(idx.rank(articles_by_id(articles)[did].body, k=10))
            for j, other in enumerate(doc_ids):
                assert abs(results[other] - min(gram[i, j], 1.0)) < 1e-10

    def test_rankings_match_dense(self):
        rng = np.random.default_rng(65)
        articles = random_articles(rng, 40)
        idx = TfIdfIndex.build(articles)
        doc_ids, mat, vocab, idf = dense_oracle(articles)
        for _ in range(10):
            length = int(rng.integers(2, 8))
            query = " ".join(WORDS[int(w)] for w in rng.integers(0, len(WORDS), size=length))
            got = idx.rank(query, k=len(articles))
            want = dense_rank(query, doc_ids, mat, vocab, idf, len(articles))
            assert [g[0] for g in got] == [w[0] for w in want]
            for (gid, gscore), (_, wscore) in zip(got, want):
                assert abs(gscore - min(wscore, 1.0)) < 1e-10



def postings_rank(index, query, k):
    """The ranking as first written, kept as the oracle for the array layout:
    a Python dict of postings filled by a loop over every nonzero, then a full
    sort of all documents by (-score, article id). Reads only the index's
    public CSR attributes."""
    idf = np.log((1.0 + index.n_docs) / (1.0 + index.df)) + 1.0
    counts = {}
    for term in terms_of(normalize_text(query)):
        tid = index.term_ids.get(term)
        if tid is not None:
            counts[tid] = counts.get(tid, 0) + 1
    if not counts:
        return []
    vec = {tid: c * float(idf[tid]) for tid, c in counts.items()}
    norm = float(np.sqrt(sum(w * w for w in vec.values())))
    postings = {}
    for row in range(index.n_docs):
        lo, hi = int(index.indptr[row]), int(index.indptr[row + 1])
        for tid, w in zip(index.indices[lo:hi], index.data[lo:hi]):
            rows, weights = postings.setdefault(int(tid), ([], []))
            rows.append(row)
            weights.append(float(w))
    scores = np.zeros(index.n_docs)
    for tid, w in vec.items():
        rows, weights = postings.get(tid, ([], []))
        scores[np.array(rows, dtype=np.int64)] += (w / norm) * np.array(weights)
    order = sorted(range(index.n_docs), key=lambda r: (-scores[r], index.doc_ids[r]))
    return [(index.doc_ids[r], min(float(scores[r]), 1.0)) for r in order[:k]]


def tied_index(rng):
    """24 articles over 3 distinct bodies: every score is shared by 8 ids."""
    bodies = [" ".join(rng.choice(WORDS, size=6)) for _ in range(3)]
    return TfIdfIndex.build([KnowledgeArticle(f"t{i:02d}", "t", bodies[i % 3])
                             for i in range(24)])


def random_csr_index(rng):
    """Rows of random distinct term ids with weights from a few values (so
    scores tie) and sorted random doc ids."""
    terms = terms_of(normalize_text(" ".join(WORDS)))
    n_docs = 30
    indptr, indices = [0], []
    for _ in range(n_docs):
        row = np.sort(rng.choice(len(terms), size=int(rng.integers(0, 8)), replace=False))
        indices.extend(row.tolist())
        indptr.append(len(indices))
    data = rng.choice([0.25, 0.5, 0.75], size=len(indices))
    doc_ids = sorted({f"r{int(x):05d}" for x in rng.integers(0, 10**5, size=n_docs)})
    assert len(doc_ids) == n_docs
    return TfIdfIndex({t: i for i, t in enumerate(terms)}, doc_ids, np.array(indptr), np.array(indices), data,
                      default_stopwords(), np.zeros(0), np.zeros(n_docs))


def empty_row_index(rng):
    """A built index with one more document whose row is empty."""
    idx = TfIdfIndex.build(random_articles(rng, 12))
    return TfIdfIndex(idx.term_ids, idx.doc_ids + ["zzz-empty"],
                      np.append(idx.indptr, idx.indptr[-1]), idx.indices, idx.data,
                      idx.stopwords, idx.bodies, np.append(idx.body_ends, idx.body_ends[-1]))


@pytest.mark.parametrize("make_index", [tied_index, random_csr_index, empty_row_index],
                         ids=["ties", "random-csr", "empty-row"])
def test_rank_matches_postings_oracle(make_index):
    rng = np.random.default_rng(76)
    for _ in range(3):
        idx = make_index(rng)
        queries = ["saint saint fresco saint", "oil oil", "zebra quux"]
        queries += [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 9))))
                    for _ in range(15)]
        for query in queries:
            for k in (1, 3, 5, idx.n_docs, idx.n_docs + 7):
                assert idx.rank(query, k) == postings_rank(idx, query, k), (query, k)


def test_tied_index_ties_span_more_than_k():
    idx = tied_index(np.random.default_rng(76))
    top = idx.rank(idx.terms[0], k=idx.n_docs)
    assert top[0][1] > 0.0 and top[7][1] == top[0][1]


@st.composite
def tied_csr_cases(draw):
    """An index like ``random_csr_index`` (weights from three values, so
    scores tie, and rows that may be empty), a query of one to three words
    that often matches fewer rows than k, and a k from 1 to n_docs + 3."""
    terms = terms_of(normalize_text(" ".join(WORDS)))
    n_docs = draw(st.integers(1, 40))
    rows = [sorted(draw(st.sets(st.integers(0, len(terms) - 1), max_size=5)))
            for _ in range(n_docs)]
    indices = [t for row in rows for t in row]
    data = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]),
                         min_size=len(indices), max_size=len(indices)))
    idx = TfIdfIndex({t: i for i, t in enumerate(terms)}, [f"r{i:03d}" for i in range(n_docs)],
                     np.cumsum([0] + [len(row) for row in rows]), np.array(indices, dtype=np.int64),
                     np.array(data), default_stopwords(), np.zeros(0), np.zeros(n_docs))
    query = " ".join(draw(st.lists(st.sampled_from(WORDS + ["zebra"]), min_size=1, max_size=3)))
    return idx, query, draw(st.integers(1, n_docs + 3))


@given(tied_csr_cases())
@settings(max_examples=300, deadline=None)
def test_top_k_boundary_matches_full_sort(case):
    """Partial top-k against the full-sort oracle at every k, n_docs - 1
    included: ties at the k-th score and zero-score padding keep id order."""
    idx, query, k = case
    for k in {k, idx.n_docs - 1} - {0}:
        assert idx.rank(query, k) == postings_rank(idx, query, k), (query, k)


def dict_build(articles, stopwords=None):
    """The build as first written, kept as the oracle for the array build:
    every token stemmed on its own, a Python dict of term counts per article,
    a Python df loop and one sorted row at a time."""
    stopwords = default_stopwords() if stopwords is None else stopwords
    usable, term_ids = [], {}
    for article in sorted(articles, key=lambda a: a.id):
        tokens = [t if t.isdigit() else stem(t)
                  for t in re.findall(r"[a-z0-9]+", article.body.lower()) if t not in stopwords]
        if not tokens:
            logging.getLogger("artdesc.retriever.index").warning(
                "dropping article: empty after normalization", extra={"article": article.id})
            continue
        counts = {}
        for term in terms_of(tokens):
            counts[term] = counts.get(term, 0) + 1
            if term not in term_ids:
                term_ids[term] = len(term_ids)
        usable.append((article.id, counts, article.body.encode("utf-8")))
    if not usable:
        raise DataError("no usable articles: all were empty after normalization")
    df = np.zeros(len(term_ids), dtype=np.int64)
    for _, counts, _ in usable:
        for term in counts:
            df[term_ids[term]] += 1
    idf = np.log((1.0 + len(usable)) / (1.0 + df)) + 1.0
    doc_ids, indptr, indices, data = [], [0], [], []
    for doc_id, counts, _ in usable:
        doc_ids.append(doc_id)
        row = sorted((term_ids[t], c) for t, c in counts.items())
        weights = np.array([c * idf[tid] for tid, c in row])
        weights /= float(np.sqrt((weights**2).sum()))
        indices.extend(tid for tid, _ in row)
        data.extend(weights.tolist())
        indptr.append(len(indices))
    bodies = [body for _, _, body in usable]
    return TfIdfIndex(term_ids, doc_ids, np.array(indptr, dtype=np.uint64),
                      np.array(indices, dtype=np.uint32), np.array(data, dtype=np.float64),
                      stopwords, np.frombuffer(b"".join(bodies), np.uint8),
                      np.cumsum([len(body) for body in bodies]))


SUFFIXES = ["", "s", "ing", "ed", "ation", "ness", "ful", "ly", "ies", "ement"]


def zipf_articles(rng, n=40, length=200):
    """Zipf-distributed words with endings the stemmer strips, plus stop
    words and numbers, in the style of the benchmark's knowledge base."""
    lexicon = [w + suffix for w in WORDS + ["relat", "condition", "hope", "generat"]
               for suffix in SUFFIXES]
    lexicon = [lexicon[i] for i in rng.permutation(len(lexicon))] + ["the", "of", "and", "1642"]
    p = 1.0 / np.arange(1, len(lexicon) + 1)
    return [KnowledgeArticle(f"z{i:03d}", f"z{i:03d}",
                             " ".join(rng.choice(lexicon, size=length, p=p / p.sum())))
            for i in range(n)]


BUILD_CASES = {
    "kb-zipf": lambda rng: (zipf_articles(rng), None),
    "out-of-id-order": lambda rng: (list(rng.permutation(random_articles(rng, 25))), None),
    "empty-articles": lambda rng: (random_articles(rng, 10) + [
        KnowledgeArticle("a000x", "e", "the of and"), KnowledgeArticle("e1", "e", ""),
        KnowledgeArticle("e2", "e", "!!! ,,, --")], None),
    "numbers-and-repeated-bigrams": lambda rng: ([
        KnowledgeArticle("n1", "n", "saint fresco saint fresco saint fresco 1502 1502 in 1502"),
        KnowledgeArticle("n2", "n", "oil oil oil oil 7 007 saints fresco 1502"),
        KnowledgeArticle("n3", "n", "1502 1503 1504")], None),
    "single-article": lambda rng: ([KnowledgeArticle("s", "s", "saints on horseback, 1642")],
                                   None),
    "custom-stopwords": lambda rng: (zipf_articles(rng, n=12),
                                     frozenset({"oil", "saint", "panels", "the"})),
}


@pytest.mark.parametrize("case", list(BUILD_CASES))
def test_build_matches_dict_oracle(tmp_path, caplog, case):
    articles, stopwords = BUILD_CASES[case](np.random.default_rng(77))
    with caplog.at_level(logging.WARNING):
        want = dict_build(articles, stopwords)
        want_log = [(r.msg, r.article) for r in caplog.records]
        caplog.clear()
        got = TfIdfIndex.build(articles, stopwords)
    assert [(r.msg, r.article) for r in caplog.records] == want_log
    assert got.terms == want.terms and got.doc_ids == want.doc_ids
    for name in ("df", "indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    want.save(tmp_path / "want.idx")
    got.save(tmp_path / "got.idx")
    assert (tmp_path / "got.idx").read_bytes() == (tmp_path / "want.idx").read_bytes()


def articles_by_id(articles):
    return {a.id: a for a in articles}


class TestRank:
    def test_unknown_terms_empty_result(self, caplog):
        import logging

        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco")])
        with caplog.at_level(logging.WARNING):
            assert idx.rank("zebra quux", k=5) == []
        assert "no query term is in the index" in caplog.text
        assert "empty after normalization" not in caplog.text
        assert [r.query for r in caplog.records] == ["zebra quux"]

    def test_stopword_query_empty_result(self, caplog):
        import logging

        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco")])
        with caplog.at_level(logging.WARNING):
            assert idx.rank("the of and", k=5) == []
        assert "query is empty after normalization" in caplog.text
        assert "no query term" not in caplog.text
        assert [r.query for r in caplog.records] == ["the of and"]

    @pytest.mark.parametrize("query", ["", "  "])
    def test_blank_query_empty_result_without_a_warning(self, caplog, query):
        """A blank query's caller warns of it, naming its painting or file."""
        import logging

        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco")])
        with caplog.at_level(logging.WARNING):
            assert idx.rank(query, k=5) == []
        assert caplog.records == []

    def test_pure_function(self):
        rng = np.random.default_rng(66)
        idx = TfIdfIndex.build(random_articles(rng, 8))
        a = idx.rank("saint river horse", k=5)
        b = idx.rank("saint river horse", k=5)
        assert a == b

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(67)
        idx = TfIdfIndex.build(random_articles(rng, 15))
        for _ in range(20):
            q = " ".join(WORDS[int(w)] for w in rng.integers(0, len(WORDS), size=4))
            for _, score in idx.rank(q, k=15):
                assert 0.0 <= score <= 1.0

    def test_k_bounds(self):
        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco")])
        with pytest.raises(DataError):
            idx.rank("saint", k=0)
        assert len(idx.rank("saint", k=10)) == 1  # clipped to corpus size

    def test_tie_broken_by_article_id(self):
        idx = TfIdfIndex.build([
            KnowledgeArticle("b", "b", "saint fresco"),
            KnowledgeArticle("a", "a", "saint fresco"),
        ])
        results = idx.rank("saint fresco", k=2)
        assert [r[0] for r in results] == ["a", "b"]


class TestSerialization:
    def test_build_is_deterministic(self, tmp_path):
        rng_a = np.random.default_rng(75)
        rng_b = np.random.default_rng(75)
        articles_a = random_articles(rng_a, 15)
        articles_b = list(reversed(random_articles(rng_b, 15)))  # input order differs
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        TfIdfIndex.build(articles_a).save(p1)
        TfIdfIndex.build(articles_b).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(68)
        idx = TfIdfIndex.build(random_articles(rng, 12))
        p1, p2 = tmp_path / "i1.bin", tmp_path / "i2.bin"
        idx.save(p1)
        reloaded = TfIdfIndex.load(p1)
        reloaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rankings_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(69)
        articles = random_articles(rng, 20)
        idx = TfIdfIndex.build(articles)
        path = tmp_path / "idx.bin"
        idx.save(path)
        reloaded = TfIdfIndex.load(path)
        for _ in range(10):
            q = " ".join(WORDS[int(w)] for w in rng.integers(0, len(WORDS), size=5))
            assert idx.rank(q, k=20) == reloaded.rank(q, k=20)



class TestStemMemo:
    """Each index memoizes the stems of the query words it ranks; the memo
    changes no result and holds no more than STEM_MEMO_CAP words."""

    QUERIES = ["saints painting rivers", "the horses of the castle", "zebra quux",
               "the of and", "saint fresco 1502", "rivers castles monks altars"]

    @pytest.fixture
    def path(self, tmp_path):
        TfIdfIndex.build(random_articles(np.random.default_rng(81), 20)).save(tmp_path / "k.idx")
        return tmp_path / "k.idx"

    def test_memo_holds_only_query_words(self, path):
        assert TfIdfIndex.build(random_articles(np.random.default_rng(81), 20))._stems == {}
        loaded = TfIdfIndex.load(path)
        assert loaded._stems == {}
        for q in self.QUERIES:
            loaded.rank(q, 5)
        words = {w for q in self.QUERIES for w in re.findall("[a-z0-9]+", q)} - default_stopwords()
        assert set(loaded._stems) == words

    def test_warm_index_ranks_as_a_fresh_one(self, path):
        warm = TfIdfIndex.load(path)
        for _ in range(2):
            assert [warm.rank(q, 5) for q in self.QUERIES] == \
                [TfIdfIndex.load(path).rank(q, 5) for q in self.QUERIES]

    def test_cap_bounds_the_memo(self, path, monkeypatch):
        expected = [postings_rank(TfIdfIndex.load(path), q, 5) for q in self.QUERIES]
        monkeypatch.setattr(index_module, "STEM_MEMO_CAP", 3)
        idx = TfIdfIndex.load(path)
        for q, want in zip(self.QUERIES * 3, expected * 3):
            assert idx.rank(q, 5) == want
            assert len(idx._stems) <= 3

    def test_two_threads_share_one_index(self, path, monkeypatch):
        """Queries of eight inflected words fill a memo capped at 3 within
        one normalize_text, so one thread rebinds the memo while the other
        is still reading the old one."""
        rng = np.random.default_rng(82)
        stream = [" ".join(w + s for w, s in zip(rng.choice(WORDS, 8),
                                                 rng.choice(["", "s", "ing", "ed"], 8)))
                  for _ in range(500)]
        fresh = TfIdfIndex.load(path)
        expected = [fresh.rank(q, 5) for q in stream]
        monkeypatch.setattr(index_module, "STEM_MEMO_CAP", 3)
        idx = TfIdfIndex.load(path)
        results = [[], []]

        def rank_stream(out):
            out.extend(idx.rank(q, 5) for q in stream)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rank_stream, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected, expected]


def three_article_index():
    return TfIdfIndex.build([KnowledgeArticle("c", "c", "monk, horse — Sankt Gallen"),
                             KnowledgeArticle("a", "a", "saint fresco"),
                             KnowledgeArticle("b", "b", "river castle")])


class TestStoredKnowledge:
    """The index keeps the stop words it normalized with and the body of
    each kept article, so querying needs nothing beside it."""

    def test_stopwords_and_bodies_round_trip(self, tmp_path):
        idx = three_article_index()
        idx.save(tmp_path / "k.idx")
        reloaded = TfIdfIndex.load(tmp_path / "k.idx")
        assert reloaded.stopwords == default_stopwords()
        assert [reloaded.body(d) for d in reloaded.doc_ids] == \
            ["saint fresco", "river castle", "monk, horse — Sankt Gallen"]

    def test_dropped_article_keeps_no_body(self):
        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "saint fresco"),
                                KnowledgeArticle("e", "e", "the of and")])
        assert idx.doc_ids == ["a"] and idx.bodies.tobytes() == b"saint fresco"
        with pytest.raises(DataError, match="no article 'e'"):
            idx.body("e")

    def test_rank_normalizes_with_the_index_stopwords(self):
        idx = TfIdfIndex.build([KnowledgeArticle("a", "a", "the saint"),
                                KnowledgeArticle("b", "b", "a river")], frozenset({"a"}))
        assert idx.stopwords == frozenset({"a"})
        assert idx.rank("the", k=1)[0][0] == "a"
        assert idx.rank("a", k=1) == []


@pytest.mark.parametrize("tamper, message", [
    ("falling-offsets", "body offsets must rise"),
    ("offsets-past-blob", "body offsets must rise"),
    ("offset-count", "body offsets must rise"),
    ("non-utf8-body", "the body of article 'b' is not valid UTF-8"),
])
def test_tampered_bodies_raise(tmp_path, tamper, message):
    """Each tampered file is sealed with a valid trailer, so it reaches the
    checks behind the checksum."""
    idx = three_article_index()
    bodies, ends = idx.bodies.copy(), idx.body_ends.copy()
    if tamper == "falling-offsets":
        ends[0], ends[1] = ends[1], ends[0]
    elif tamper == "offsets-past-blob":
        ends[-1] += 1
    elif tamper == "offset-count":
        ends = ends[:-1]
    else:
        bodies[int(ends[0])] = 0xFF  # the first byte of article b
    path = tmp_path / "tampered.idx"
    save_container(path, {"kind": "tfidf-index", "terms": idx.terms, "doc_ids": idx.doc_ids,
                          "stopwords": sorted(idx.stopwords)},
                   {"indptr": idx.indptr, "indices": idx.indices, "data": idx.data,
                    "bodies": bodies, "body_ends": ends})
    with pytest.raises(DataError, match=message):
        TfIdfIndex.load(path).body("b")

