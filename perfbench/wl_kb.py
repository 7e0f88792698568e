"""kb: index build, save and load, the first rank after a load, then warm
ranks over a stream of metadata queries, and recall at 5.

Articles are synthetic Zipf text (a fixed 20k-word lexicon with the endings
the stemmer strips, plus stop words) about artists; each names its artist,
school, type and timeframe. Queries are ``build_query`` strings from an
article's metadata and two of its words. Some queries are made of
in-vocabulary words that no article contains, and some are empty after
normalization; both are counted, not avoided.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from artdesc.retriever import (
    KnowledgeArticle,
    RetrievalAnnotation,
    RetrievalLabel,
    TfIdfIndex,
    build_query,
    eval_recall,
    normalize_text,
    terms_of,
)

import inputs
import probes
from measure import latency_metrics, median, ms_since, peak_rss_mb

N_ARTICLES = 1000
N_TOKENS = 300
N_ARTISTS = 400
N_SCHOOLS = 40
N_QUERIES = 3000
N_EVAL = 600  # the first queries of the stream: recall set and oracle sample
ORACLE_EVERY = 10
BLOCK = 50  # N_EVAL is a multiple
K = 5
SETUP_REPEATS = 5
ROUNDS = 3


def setup(seed: int) -> tuple[list[KnowledgeArticle], list[tuple[str, str | None]]]:
    lexicon = inputs.Lexicon()
    rng = np.random.default_rng(seed)
    taken = set(lexicon.words.tolist()) | set(lexicon.unseen)
    names = [w for w in inputs.pseudo_words(rng, N_ARTISTS + N_SCHOOLS + 100, suffixes=False)
             if w not in taken][: N_ARTISTS + N_SCHOOLS]
    articles = inputs.knowledge_articles(rng, lexicon, N_ARTICLES, N_TOKENS,
                                         names[:N_ARTISTS], names[N_ARTISTS:])
    queries = [(build_query(attrs, objects), source)
               for attrs, objects, source in
               inputs.metadata_queries(rng, lexicon, articles, N_QUERIES)]
    return [KnowledgeArticle(a["id"], a["title"], a["body"]) for a in articles], queries


def _oracle_scores(index: TfIdfIndex, query: str) -> np.ndarray | None:
    """Cosine scores from a dense numpy matrix built out of the index's CSR
    rows, restricted to the query's terms; the query vector is rebuilt from
    the normalizer, the df table and the idf formula."""
    counts = Counter(t for t in terms_of(normalize_text(query)) if t in index.term_ids)
    if not counts:
        return None
    tids = sorted(index.term_ids[t] for t in counts)
    idf = np.log((1.0 + index.n_docs) / (1.0 + index.df[tids])) + 1.0
    qv = np.array([counts[index.terms[t]] for t in tids]) * idf
    qv /= np.linalg.norm(qv)
    rows = np.repeat(np.arange(index.n_docs), np.diff(index.indptr.astype(np.int64)))
    dense = np.zeros((index.n_docs, len(tids)))
    for j, tid in enumerate(tids):
        hit = index.indices == tid
        dense[rows[hit], j] = index.data[hit]
    return dense @ qv


def oracle_agrees(index: TfIdfIndex, query: str, got: list[tuple[str, float]]) -> bool:
    """The top k equals the oracle's, ties broken by doc id as in c06;
    documents whose scores differ only by rounding may swap places."""
    scores = _oracle_scores(index, query)
    if scores is None:
        return got == []
    order = sorted(range(index.n_docs), key=lambda r: (-scores[r], index.doc_ids[r]))[:K]
    want = [index.doc_ids[r] for r in order]
    if [aid for aid, _ in got] == want:
        return True
    row_of = {d: r for r, d in enumerate(index.doc_ids)}
    return len(got) == len(want) and all(
        abs(scores[row_of[aid]] - scores[row_of[w]]) <= 1e-12 for (aid, _), w in zip(got, want))


class _Stream:
    """Closed loop, one client, over the query stream. Latency is taken per
    block of BLOCK consecutive ranks (mean ms per rank in the block): a
    single rank takes about 2 ms, so per-rank samples would put the tail at
    p99.8, where bursts of load from other tenants of the machine decide
    it."""

    def __init__(self, index: TfIdfIndex, queries, start: int = 0):
        self.index = index
        self.queries = queries
        self.start = start
        self.block_ms: list[float] = []
        self.results: list[list[tuple[str, float]]] = []  # the first N_EVAL
        self.ranks = 0

    def run(self, n_min: int, seconds: float, tracer=None) -> float:
        """Whole blocks until at least n_min ranks are done and ``seconds``
        have passed; returns the seconds taken."""
        t0 = time.perf_counter()
        while self.ranks < n_min or time.perf_counter() - t0 < seconds:
            t_block = time.perf_counter()
            for _ in range(BLOCK):
                i = (self.start + self.ranks) % len(self.queries)
                query = self.queries[i][0]
                if tracer is None:
                    ranked = self.index.rank(query, K)
                else:
                    with tracer.span("bench.request", i):
                        ranked = self.index.rank(query, K)
                if len(self.results) < N_EVAL:
                    self.results.append(ranked)
                self.ranks += 1
            self.block_ms.append(ms_since(t_block) / BLOCK)
        return time.perf_counter() - t0


def _load_and_rank(path, queries) -> tuple[TfIdfIndex, float, float]:
    """Loads the index and times its first rank, which builds the postings;
    returns the index, the load ms and the cold rank ms."""
    t0 = time.perf_counter()
    index = TfIdfIndex.load(path)
    load_ms = ms_since(t0)
    query = next(q for q, source in queries if source is not None)
    t0 = time.perf_counter()
    index.rank(query, K)
    return index, load_ms, ms_since(t0)


def _recall_at_k(queries, results) -> float:
    rankings = {f"q{i}": [aid for aid, _ in ranked] for i, ranked in enumerate(results)}
    annotations = [RetrievalAnnotation(f"q{i}", [(source, RetrievalLabel.CORRECT)])
                   for i, (_, source) in enumerate(queries[:len(results)]) if source is not None]
    report = eval_recall(rankings, annotations, ks=(K,))
    return report["classes"]["all"]["recall"][str(K)]


def _oracle_failures(index, queries, results) -> list[str]:
    return [f"query {i} ({queries[i][0]!r}): top {K} differs from the dense oracle"
            for i in range(0, len(results), ORACLE_EVERY)
            if not oracle_agrees(index, queries[i][0], results[i])]


def run(ctx) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS if not ctx.trace else 1):
        t0 = time.perf_counter()
        articles, queries = setup(ctx.seed)
        setups.append(time.perf_counter() - t0)
    ctx.workdir.mkdir(parents=True)
    path = ctx.workdir / "knowledge.idx"

    if ctx.trace:
        return _traced(articles, queries, path)

    rounds = [_round(articles, queries, path, ctx.seconds / ROUNDS) for _ in range(ROUNDS)]
    # every round ranks the same queries over the same index; check the first
    problems, recall = rounds[0]["problems"], rounds[0]["recall"]
    block_ms = [ms for r in rounds for ms in r["block_ms"]]

    named = {
        "setup_s": (median(setups), "s"),
        "kb_build_articles_per_s": (median([len(articles) / r["build_s"] for r in rounds]), "1/s"),
        "rank_cold_ms": (median([r["cold_ms"] for r in rounds]), "ms"),
        **latency_metrics("rank_warm_ms", block_ms),
        "kb_recall_at_5": (recall, "%"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "named": named,
        "e2e": {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "op_ms.p50": named["rank_warm_ms.p50"],
            "op_ms.tail": named["rank_warm_ms.tail"],
            "cold_ms": named["rank_cold_ms"],
            "work_per_s": named["kb_build_articles_per_s"],
            "quality": (recall, "score"),
        },
        # per round: build, load and cold rank, warm-up and warm ranks
        "attempted": sum(3 + r["ranks"] for r in rounds),
        "failed": len(problems),
        "problems": problems,
        "extra": {"setup_runs_s": setups,
                  "rounds": [{k: r[k] for k in ("build_s", "load_ms", "cold_ms", "measured_s")}
                             for r in rounds],
                  "articles": len(articles), "queries": len(queries)},
    }


def _round(articles, queries, path, seconds: float) -> dict:
    """Build, save, load and the cold rank, an untimed pass over the first
    N_EVAL queries (the recall and oracle sample), then warm ranks over the
    rest of the stream for ``seconds``. Rounds spread the build and cold
    samples over the run, so a slow spell of the machine hits one of them."""
    t0 = time.perf_counter()
    built = TfIdfIndex.build(articles)
    build_s = time.perf_counter() - t0
    built.save(path)
    del built  # one index in memory at a time
    index, load_ms, cold_ms = _load_and_rank(path, queries)
    warm_up = _Stream(index, queries)
    warm_up.run(N_EVAL, 0.0)
    stream = _Stream(index, queries, start=N_EVAL)
    measured_s = stream.run(0, seconds)
    return {"build_s": build_s, "load_ms": load_ms, "cold_ms": cold_ms,
            "measured_s": measured_s, "block_ms": stream.block_ms,
            "ranks": warm_up.ranks + stream.ranks,
            "problems": _oracle_failures(index, queries, warm_up.results),
            "recall": _recall_at_k(queries, warm_up.results)}


def _traced(articles, queries, path) -> dict:
    tracer, counts = probes.install()
    try:
        with tracer.span("bench.build"):
            TfIdfIndex.build(articles).save(path)
        with tracer.span("bench.cold"):
            index, _, _ = _load_and_rank(path, queries)
    finally:
        tracer.restore()
    _Stream(index, queries).run(N_EVAL, 0.0)  # warm-up, as in the untraced run
    untraced_ms = 1000.0 * _Stream(index, queries).run(N_EVAL, 0.0)
    probes.install(tracer, counts)
    stream = _Stream(index, queries)
    try:
        traced_ms = 1000.0 * stream.run(N_EVAL, 0.0, tracer)
    finally:
        tracer.restore()
    problems = _oracle_failures(index, queries, stream.results)
    layers = probes.layer_metrics(tracer, counts, traced_ms / untraced_ms - 1.0)
    return {
        "layers": layers,
        "tracer": tracer,
        "counts": counts,
        "attempted": 3 + 3 * N_EVAL,
        "failed": len(problems),
        "problems": problems,
        "extra": {"untraced_pass_ms": untraced_ms, "traced_pass_ms": traced_ms},
    }
