"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; a PASS/FAIL line per criterion
is printed in the terminal summary (see conftest.py).
"""

import json
import math
import time

import numpy as np
from gradcheck import grad_check
from synth import memorization_corpus, slotted_entry, topic_disjoint_corpus, TOPIC_WORDS
from tape_oracle import attend
from test_filler import cue_corpus
from test_generate import exhaustive_argmax, random_checkpoint
from test_index import dense_oracle, dense_rank, random_articles, WORDS
from test_tagger_masking import random_tagged_sentence

from artdesc import numcore as nc
from artdesc.corpus import (
    EntityType,
    FeatureGrid,
    PaintingRecord,
    Slot,
    TopicLabel,
    mask_sentence,
    tokenize,
    unmask,
)
from artdesc.decoder import (
    DecoderConfig,
    TrainConfig,
    beam_decode,
    greedy_decode,
    init_decoder_params,
    predict_topic,
    sequence_loss,
    train_conditional,
    train_decoder,
)
from artdesc.decoder.classifier import classify_distributions
from artdesc.filler import (
    FillerConfig,
    build_fill_pairs,
    build_filler_vocab,
    fill_pair_loss,
    fill_slots,
    init_filler_params,
    record_candidates,
    train_filler,
)
from artdesc.metrics import BLEU_EPSILON, bleu4, rouge_l
from artdesc.pipeline import Pipeline, PipelineConfig, report_to_json
from artdesc.retriever import RetrievalAnnotation, RetrievalLabel, TfIdfIndex, eval_recall


def _randomize(store, seed, scale=0.5):
    # well-conditioned check point: every gradient element measurably nonzero
    rng = np.random.default_rng(seed)
    for name in store.names():
        store[name].data[...] = rng.uniform(-scale, scale, size=store[name].data.shape)


# ----------------------------------------------------------------------
# 1. Gradient fidelity (baseline / conditional joint / filler, < 1e-4, < 60 s)
# ----------------------------------------------------------------------


def _baseline_gradcheck():
    config = DecoderConfig(variant="baseline", vocab_size=12, feature_dim=4,
                           hidden_size=8, embed_size=8, max_len=8)
    store = init_decoder_params(config, np.random.default_rng(0))
    _randomize(store, 129)
    rng = np.random.default_rng(130)
    grid = FeatureGrid(rng.normal(size=(3, 4)))
    ids = [1] + [int(t) for t in rng.integers(4, 12, size=3)] + [2]

    def loss_fn():
        loss, n, _ = sequence_loss([grid], [ids], store, "dec")
        return nc.scale(loss, 1.0 / n)

    return grad_check(loss_fn, store)


def _conditional_gradcheck():
    config = DecoderConfig(variant="conditional", vocab_size=12, feature_dim=4,
                           hidden_size=8, embed_size=8, topic_embed_size=4, max_len=8)
    store = init_decoder_params(config, np.random.default_rng(0))
    _randomize(store, 128)
    rng = np.random.default_rng(129)
    grid = FeatureGrid(rng.normal(size=(3, 4)))
    ids = [1] + [int(t) for t in rng.integers(4, 12, size=3)] + [2]
    topic = TopicLabel.FORM

    def loss_fn():
        nll, n, logits = sequence_loss([grid], [ids], store, "dec", [int(topic)])
        probs = nc.softmax(nc.embedding(logits, range(n - 1)))
        ce = nc.cross_entropy(classify_distributions(probs, store, [n - 1]), int(topic))
        return nc.scale(nc.add_n([nll, ce]), 1.0 / n)

    return grad_check(loss_fn, store)


def _filler_gradcheck():
    entries = [
        slotted_entry(
            ["made", "by", Slot(EntityType.PERSON), "in", Slot(EntityType.DATE), "."],
            ["goya", "1820"], TopicLabel.CONTENT),
        slotted_entry(["shows", Slot(EntityType.PERSON), "."], ["vasari"], TopicLabel.CONTEXT),
    ]
    record = PaintingRecord(id="g", sentences=entries)
    vocab = build_filler_vocab([record])
    config = FillerConfig(vocab_size=len(vocab), hidden_size=8, embed_size=8,
                          type_embed_size=4)
    store = init_filler_params(config, np.random.default_rng(0))
    _randomize(store, 101)
    pair = build_fill_pairs([record])[0]

    def loss_fn():
        loss, n, _ = fill_pair_loss([pair], store, vocab)
        return nc.scale(loss, 1.0 / n)

    return grad_check(loss_fn, store)


def test_c01_gradient_fidelity():
    start = time.perf_counter()
    errors = {
        "baseline": _baseline_gradcheck(),
        "conditional_joint": _conditional_gradcheck(),
        "filler": _filler_gradcheck(),
    }
    elapsed = time.perf_counter() - start
    for name, err in errors.items():
        assert err < 1e-4, f"{name} grad check error {err}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 2. Attention contract over 1,000 random draws
# ----------------------------------------------------------------------


def test_c02_attention_contract():
    rng = np.random.default_rng(200)
    config = DecoderConfig(variant="baseline", vocab_size=12, feature_dim=5,
                           hidden_size=6, embed_size=6, max_len=8)
    store = None
    for draw in range(1000):
        if draw % 100 == 0:  # fresh attention parameters every 100 draws
            store = init_decoder_params(config, rng)
            _randomize(store, int(rng.integers(1 << 31)), scale=0.7)
        n_loc = int(rng.integers(1, 9))
        grid = FeatureGrid(rng.normal(size=(n_loc, 5)) * rng.uniform(0.2, 3.0))
        h = nc.constant(rng.normal(size=6))
        z, alpha = attend(grid, h, store)
        assert abs(alpha.data.sum() - 1.0) < 1e-9
        expected = np.zeros(5)
        for i in range(n_loc):
            expected += alpha.data[i] * grid.values[i]
        assert np.max(np.abs(z.data - expected)) < 1e-10


# ----------------------------------------------------------------------
# 3. Decoder memorization (20 examples, loss <= 0.05, exact greedy, < 5 min)
# ----------------------------------------------------------------------


def test_c03_decoder_memorization():
    start = time.perf_counter()
    records, vocab = memorization_corpus(np.random.default_rng(0), n_records=20)
    config = DecoderConfig(variant="baseline", vocab_size=len(vocab), feature_dim=6,
                           hidden_size=48, embed_size=32, max_len=12)
    ckpt = train_decoder(
        records, vocab, config,
        TrainConfig(epochs=500, lr=5e-3, lr_decay_every=None, batch_size=4, seed=1),
    )
    assert ckpt.history[-1]["nll_per_token"] <= 0.05
    for record in records:
        want = vocab.encode(record.sentences[0].masked)
        got, _ = greedy_decode(ckpt, record.features, TopicLabel.CONTENT, max_len=12)
        assert got == want, f"greedy decode differs for {record.id}"
    assert time.perf_counter() - start < 300.0


# ----------------------------------------------------------------------
# 4. Topic control on a topic-disjoint corpus
# ----------------------------------------------------------------------


def test_c04_topic_control():
    rng = np.random.default_rng(7)
    records, vocab = topic_disjoint_corpus(rng, n_records=12)

    parallel_cfg = DecoderConfig(variant="parallel", vocab_size=len(vocab), feature_dim=6,
                                 hidden_size=32, embed_size=24, max_len=10)
    parallel = train_decoder(
        records, vocab, parallel_cfg,
        TrainConfig(epochs=150, lr=5e-3, lr_decay_every=None, batch_size=6, seed=2),
    )
    for record in records:
        for topic in TopicLabel:
            ids, _ = greedy_decode(parallel, record.features, topic, max_len=10)
            allowed = set(TOPIC_WORDS[topic])
            for token_id in ids:
                assert vocab.tokens[token_id] in allowed, (
                    f"parallel decoder for {topic.name} emitted "
                    f"'{vocab.tokens[token_id]}'"
                )

    conditional_cfg = DecoderConfig(variant="conditional", vocab_size=len(vocab),
                                    feature_dim=6, hidden_size=32, embed_size=24,
                                    topic_embed_size=8, max_len=10)
    conditional = train_conditional(
        records, vocab, conditional_cfg,
        TrainConfig(epochs=150, lr=5e-3, lr_decay_every=None, batch_size=6, seed=3),
    )
    agree = total = 0
    for record in records:
        for topic in TopicLabel:
            ids, _ = greedy_decode(conditional, record.features, topic, max_len=10)
            total += 1
            agree += predict_topic(ids, conditional.store) == topic
    # acceptance bar is 90%; the training-op contract states 95% (observed: 100%)
    assert agree / total >= 0.95, f"topic agreement {agree}/{total}"


# ----------------------------------------------------------------------
# 5. Beam optimality (vocab 5, max len 3, beam >= 125 vs exhaustive)
# ----------------------------------------------------------------------


def test_c05_beam_optimality():
    for seed in range(50):
        ckpt, grid = random_checkpoint(seed, vocab_size=5, max_len=3)
        want_score, want_tokens = exhaustive_argmax(ckpt, grid, TopicLabel.CONTENT, 3)
        got_tokens, got_score = beam_decode(ckpt, grid, TopicLabel.CONTENT, 3,
                                            beam_size=200)
        assert tuple(got_tokens) == want_tokens
        assert got_score == want_score
        g_tokens, g_score = greedy_decode(ckpt, grid, TopicLabel.CONTENT, 3)
        b1_tokens, b1_score = beam_decode(ckpt, grid, TopicLabel.CONTENT, 3, beam_size=1)
        assert b1_tokens == g_tokens and b1_score == g_score


# ----------------------------------------------------------------------
# 6. Retrieval oracle equivalence (100 docs, 20 queries) + self-retrieval
# ----------------------------------------------------------------------


def test_c06_retrieval_oracle_equivalence():
    rng = np.random.default_rng(600)
    articles = random_articles(rng, 100)
    index = TfIdfIndex.build(articles)
    doc_ids, mat, vocab, idf = dense_oracle(articles)
    for _ in range(20):
        length = int(rng.integers(2, 9))
        query = " ".join(WORDS[int(w)] for w in rng.integers(0, len(WORDS), size=length))
        got = index.rank(query, k=100)
        want = dense_rank(query, doc_ids, mat, vocab, idf, 100)
        assert [g[0] for g in got] == [w[0] for w in want]

    hits = 0
    for article in articles:
        results = index.rank(article.body, k=1)
        if results and results[0][0] == article.id:
            assert abs(results[0][1] - 1.0) < 1e-9
            hits += 1
    assert hits == len(articles), f"self-retrieval R@1 {hits}/{len(articles)}"


# ----------------------------------------------------------------------
# 7. R@k harness: planted signal = 100, shuffled annotations = chance
# ----------------------------------------------------------------------


def test_c07_recall_harness():
    # planted signal: unique rare bigram shared by query and positive article
    rng = np.random.default_rng(700)
    filler_words = ["oil", "panel", "fresco", "saint", "altar"]
    articles, annotations, queries = [], [], {}
    for i in range(20):
        marker = f"zkey{i} zval{i}"
        body = " ".join(
            [filler_words[int(w)] for w in rng.integers(0, len(filler_words), size=8)]
            + [marker]
        )
        articles.append(type(random_articles(rng, 1)[0])(f"pos{i}", f"pos{i}", body))
        annotations.append(RetrievalAnnotation(f"p{i}", [(f"pos{i}", RetrievalLabel.CORRECT)]))
        queries[f"p{i}"] = f"{filler_words[i % len(filler_words)]} {marker}"
    for i in range(60):
        body = " ".join(filler_words[int(w)] for w in rng.integers(0, len(filler_words), size=12))
        articles.append(type(articles[0])(f"neg{i:02d}", f"neg{i:02d}", body))
    index = TfIdfIndex.build(articles)
    rankings = {pid: [doc for doc, _ in index.rank(q, k=10)] for pid, q in queries.items()}
    report = eval_recall(rankings, annotations, ks=(1,))
    assert report["classes"]["all"]["recall"]["1"] == 100.0

    # shuffled annotations: R@k matches chance within binomial 95% bounds
    n_articles, n_trials = 50, 1000
    article_ids = [f"a{i:03d}" for i in range(n_articles)]
    rng = np.random.default_rng(701)
    rankings = {}
    annotations = []
    for t in range(n_trials):
        order = list(rng.permutation(n_articles))
        rankings[f"t{t:04d}"] = [article_ids[i] for i in order]
        positive = article_ids[int(rng.integers(n_articles))]
        annotations.append(RetrievalAnnotation(f"t{t:04d}", [(positive, RetrievalLabel.CORRECT)]))
    report = eval_recall(rankings, annotations, ks=(1, 5, 10))
    for k in (1, 5, 10):
        p = k / n_articles
        half_width = 1.96 * math.sqrt(p * (1 - p) / n_trials)
        observed = report["classes"]["all"]["recall"][str(k)] / 100.0
        assert abs(observed - p) <= half_width, (
            f"R@{k} = {observed:.4f}, expected {p:.4f} +- {half_width:.4f}"
        )


# ----------------------------------------------------------------------
# 8. Fill accuracy: 500 train / 100 held-out cue pairs, 100% accuracy
# ----------------------------------------------------------------------


def test_c08_fill_accuracy():
    train_records = cue_corpus(np.random.default_rng(80), 125)  # 4 pairs each = 500
    held_out = cue_corpus(np.random.default_rng(81), 25)  # 100 pairs
    vocab = build_filler_vocab(train_records)
    config = FillerConfig(vocab_size=len(vocab), hidden_size=24, embed_size=20,
                          type_embed_size=6)
    ckpt = train_filler(train_records, vocab, config, epochs=12, lr=5e-3,
                        lr_decay_every=None, batch_size=16, seed=1)
    correct = total = violations = 0
    for record in held_out:
        candidates = record_candidates(record)
        surfaces_by_type = {
            etype: {c.surface for c in candidates.entries if c.entity_type == etype}
            for etype in EntityType
        }
        for entry in record.sentences:
            result = fill_slots([entry.masked], candidates, ckpt)
            for decision, gold, etype in zip(result.decisions, entry.values,
                                             entry.masked.slot_types()):
                total += 1
                correct += decision.chosen == gold
                if decision.chosen is not None and decision.chosen not in surfaces_by_type[etype]:
                    violations += 1
    assert total == 100
    assert correct == total, f"held-out slot accuracy {correct}/{total}"
    assert violations == 0


# ----------------------------------------------------------------------
# 9. Masking round trip: 10,000 generated pairs
# ----------------------------------------------------------------------


def test_c09_masking_round_trip():
    rng = np.random.default_rng(900)
    failures = 0
    for _ in range(10_000):
        sentence, spans = random_tagged_sentence(rng)
        masked, values = mask_sentence(sentence, spans)
        if unmask(masked, values) != tokenize(sentence):
            failures += 1
    assert failures == 0


# ----------------------------------------------------------------------
# 10. Metric fixtures
# ----------------------------------------------------------------------


def test_c10_metric_fixtures():
    candidate = "the cat sat on the mat".split()
    reference = "the cat is on the mat".split()
    expected_bleu = 100.0 * math.exp(
        (math.log(5 / 6) + math.log(3 / 5) + math.log(1 / 4)
         + math.log(BLEU_EPSILON / 3)) / 4.0
    )
    assert abs(bleu4(candidate, [reference]) - expected_bleu) < 1e-6

    expected_rouge = 100.0 * (2.2 * (2 / 3) * (2 / 3)) / ((2 / 3) + 1.2 * (2 / 3))
    assert abs(rouge_l("the gray cat".split(), "the cat sat".split()) - expected_rouge) < 1e-6

    identity = "a quiet river scene with boats".split()
    assert abs(bleu4(identity, [identity]) - 100.0) < 1e-9
    assert abs(rouge_l(identity, identity) - 100.0) < 1e-9


# ----------------------------------------------------------------------
# 11. End-to-end determinism and oracle-mode reconstruction
# ----------------------------------------------------------------------


def test_c11_end_to_end_oracle(world):  # noqa: F811
    _, records, config, _ = world
    pipeline_a = Pipeline(PipelineConfig(**config))
    pipeline_b = Pipeline(PipelineConfig(**config))
    for record in records:
        report_a = pipeline_a.describe(record)
        report_b = pipeline_b.describe(record)
        assert report_to_json(report_a) == report_to_json(report_b)
        assert report_a["description_tokens"] == tokenize(record.reference)


# ----------------------------------------------------------------------
# 12. Documented full-scale anchors rendered into the evaluation report
# ----------------------------------------------------------------------


def test_c12_documented_anchors(world):  # noqa: F811
    _, records, config, _ = world
    pipeline = Pipeline(PipelineConfig(**config))
    result = pipeline.evaluate([pipeline.describe(records[0])])
    context = result["full_scale_context"]
    assert context["slot_ratio_content_form_context"] == [0.98, 0.91, 2.12]
    assert context["parallel_decoder_bleu4"] == 8.8
    assert context["retrieval_recall_all_articles"] == {
        "r@1": 13.8, "r@5": 36.6, "r@10": 45.5,
    }
    payload = json.loads(report_to_json(result))
    assert payload["full_scale_context"] == context
