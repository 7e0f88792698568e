"""The whole-sequence training nodes against the per-step tape oracle.

Every new or widened numcore node passes the central-difference check at
1e-4. Losses and every parameter gradient of the three decoder variants and
of the filler agree with ``tape_oracle`` to 1e-10 relative: the stacked
GEMMs sum in another order, so they cannot agree bit for bit.
"""

import numpy as np
import pytest

import tape_oracle as tape
from synth import slotted_entry
from test_filler import cue_corpus

import artdesc.filler.train as filler_train
from artdesc import numcore as nc
from artdesc.corpus import EntityType, FeatureGrid, PaintingRecord, Slot, TopicLabel
from artdesc.decoder import DecoderConfig, init_decoder_params, sequence_loss
from artdesc.decoder.classifier import classify_distributions, classify_tokens
from artdesc.errors import ShapeError
from artdesc.filler import (
    FillerConfig,
    build_fill_pairs,
    build_filler_vocab,
    encode_fill_input,
    fill_pair_loss,
    init_filler_params,
    slot_scores,
)
from artdesc.filler.model import slot_score_values


def _randomize(store, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    for name in store.names():
        store[name].data[...] = rng.uniform(-scale, scale, size=store[name].data.shape)


def _loss_and_grads(store, loss_fn):
    store.clear_grads()
    loss = loss_fn()
    nc.backward(loss, store)
    return loss.item(), {name: store[name].grad.copy() for name in store.names()}


def _assert_matches_oracle(store, new_fn, oracle_fn, tol=1e-10):
    """Equal losses, and per parameter max|new - oracle| <= tol * scale, the
    scale being that parameter's largest oracle gradient. The floor of 1e-4
    of the store's largest gradient covers gradients that are zero in exact
    arithmetic (att.b2: softmax ignores a shift of every score), whose
    computed values are rounding noise on both paths."""
    new_loss, new = _loss_and_grads(store, new_fn)
    old_loss, old = _loss_and_grads(store, oracle_fn)
    assert abs(new_loss - old_loss) <= tol * abs(old_loss)
    top = max(np.max(np.abs(g)) for g in old.values())
    for name in store.names():
        scale = max(np.max(np.abs(old[name])), 1e-4 * top)
        err = np.max(np.abs(new[name] - old[name]))
        assert err <= tol * scale, f"{name}: {err:.3e} vs scale {scale:.3e}"
        # a parameter the oracle leaves untouched gets exactly zero here too
        if not np.any(old[name]):
            assert not np.any(new[name]), name


# ----------------------------------------------------------------------
# Decoder variants
# ----------------------------------------------------------------------


def _decoder(variant, seed=0, windows=(2, 3)):
    config = DecoderConfig(variant=variant, vocab_size=12, feature_dim=4, hidden_size=6,
                           embed_size=5, topic_embed_size=3, classifier_filters=4,
                           classifier_embed_size=5, classifier_windows=windows, max_len=8)
    store = init_decoder_params(config, np.random.default_rng(seed))
    _randomize(store, seed + 100)
    return config, store


def _losses(config, store, grid, ids, topic):
    """The joint item loss of ``train._train``, on the new path and on the
    oracle's: NLL, plus the classifier's cross-entropy on the word steps for
    the conditional variant."""
    prefix = "form" if config.variant == "parallel" else "dec"
    topic_idx = int(topic) if config.variant == "conditional" else None

    def new():
        nll, n, logits = sequence_loss(grid, ids, store, prefix, topic_idx)
        if topic_idx is None:
            return nll
        probs = nc.softmax(nc.embedding(logits, range(max(n - 1, 1))))
        return nc.add(nll, nc.cross_entropy(classify_distributions(probs, store, config),
                                            topic_idx))

    def oracle():
        nll, n, probs = tape.sequence_loss(grid, ids, store, prefix, topic_idx,
                                           collect_probs=topic_idx is not None)
        if topic_idx is None:
            return nll
        word = probs[:-1] if len(probs) > 1 else probs
        return nc.add(nll, nc.cross_entropy(tape.classify_distributions(word, store, config),
                                            topic_idx))

    return new, oracle


@pytest.mark.parametrize("variant", ["baseline", "parallel", "conditional"])
@pytest.mark.parametrize("length", [1, 2, 7], ids=["one-transition", "pad-path", "long"])
def test_decoder_loss_and_gradients_match_oracle(variant, length):
    """length 1 is <s> </s>; with 2 transitions the classifier sees one word
    step, fewer than its widest window, and reads <pad> rows."""
    config, store = _decoder(variant, seed=length)
    rng = np.random.default_rng(length)
    grid = FeatureGrid(rng.normal(size=(3, 4)))
    ids = [1] + [int(t) for t in rng.integers(4, 12, size=length - 1)] + [2]
    new, oracle = _losses(config, store, grid, ids, TopicLabel.FORM)
    _assert_matches_oracle(store, new, oracle)
    if variant == "parallel":  # the two sub-decoders this item does not use
        _, grads = _loss_and_grads(store, new)
        for name in store.names():
            if not name.startswith("form."):
                assert not np.any(grads[name]), name


@pytest.mark.parametrize("variant", ["baseline", "conditional"])
@pytest.mark.parametrize("length", [1, 2], ids=["one-transition", "pad-path"])
def test_decoder_edges_pass_gradcheck(variant, length):
    config, store = _decoder(variant, seed=10 + length)
    rng = np.random.default_rng(length)
    grid = FeatureGrid(rng.normal(size=(3, 4)))
    ids = [1] + [int(t) for t in rng.integers(4, 12, size=length - 1)] + [2]
    new, _ = _losses(config, store, grid, ids, TopicLabel.CONTEXT)
    assert nc.grad_check(new, store, epsilon=1e-4) < 1e-4


def test_classify_tokens_matches_oracle():
    config, store = _decoder("conditional", windows=(1, 3))
    for tokens in ([5], [5, 6], [4, 7, 9, 5, 11]):
        got = classify_tokens(tokens, store, config).data
        want = tape.classify_tokens(tokens, store, config).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ----------------------------------------------------------------------
# Filler
# ----------------------------------------------------------------------


def _filler_pair(tokens, values):
    """The pair of the first sentence; a second one adds the candidate
    "vasari", so every slot scores two candidates and has a non-zero loss."""
    record = PaintingRecord(id="f", sentences=[
        slotted_entry(tokens, values, TopicLabel.CONTENT),
        slotted_entry(["by", Slot(EntityType.PERSON)], ["vasari"], TopicLabel.CONTEXT),
    ])
    vocab = build_filler_vocab([record])
    config = FillerConfig(vocab_size=len(vocab), hidden_size=4, embed_size=4, type_embed_size=3)
    store = init_filler_params(config, np.random.default_rng(0))
    _randomize(store, 7)
    return build_fill_pairs([record])[0], store, vocab, config


def _filler_losses(pair, store, vocab, config, monkeypatch):
    def new():
        return fill_pair_loss(pair, store, vocab, config)[0]

    def oracle():
        with monkeypatch.context() as patch:
            patch.setattr(filler_train, "slot_scores", tape.slot_scores)
            return fill_pair_loss(pair, store, vocab, config)[0]

    return new, oracle


@pytest.mark.parametrize("tokens, values", [
    ([Slot(EntityType.PERSON)], ["goya"]),
    (["made", "by", Slot(EntityType.PERSON), "in", Slot(EntityType.DATE), "."],
     ["goya", "1820"]),
], ids=["one-token", "two-slots"])
def test_filler_loss_and_gradients_match_oracle(tokens, values, monkeypatch):
    """The one-token case is a description of one word (<cls> aside):
    each LSTM direction reads a single row."""
    pair, store, vocab, config = _filler_pair(tokens, values)
    new, oracle = _filler_losses(pair, store, vocab, config, monkeypatch)
    _assert_matches_oracle(store, new, oracle)
    assert nc.grad_check(new, store, epsilon=1e-4) < 1e-4


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("steps", [1, 4])
def test_lstm_seq_matches_lstm_steps_and_gradcheck(reverse, steps):
    rng = np.random.default_rng(steps)
    store = nc.ParamStore()
    x = store.add("x", rng.normal(size=(steps, 3)))
    w = store.add("w", nc.uniform_init(rng, (8, 5), 0.5))
    b = store.add("b", nc.uniform_init(rng, (8,), 0.5))
    weights = rng.normal(size=(steps, 2))

    def loss():
        return nc.dot(nc.constant(weights.ravel()), _flat(nc.lstm_seq(x, w, b, reverse)))

    def oracle():
        h = c = nc.constant(np.zeros(2))
        outs = [None] * steps
        for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
            h, c = nc.lstm_step(nc.embedding(x, t), h, c, w, b)
            outs[t] = h
        return nc.dot(nc.constant(weights.ravel()), nc.concat(outs))

    _assert_matches_oracle(store, loss, oracle)
    assert nc.grad_check(loss, store, epsilon=1e-4) < 1e-4


def _flat(t):
    """A (T, k) tensor as its (T*k,) rows, one after another."""
    return nc.concat([nc.embedding(t, i) for i in range(t.shape[0])])


def test_fill_slots_scores_equal_the_training_forward():
    records = cue_corpus(np.random.default_rng(3), 3)
    vocab = build_filler_vocab(records)
    config = FillerConfig(vocab_size=len(vocab), hidden_size=5, embed_size=4, type_embed_size=3)
    store = init_filler_params(config, np.random.default_rng(1))
    _randomize(store, 2)
    for pair in build_fill_pairs(records):
        fill_input = encode_fill_input(pair.masked, pair.candidates, config.max_len)
        taped = slot_scores(fill_input, pair.candidates, store, vocab)
        plain = slot_score_values(fill_input, pair.candidates, store, vocab)
        assert [[(i, float(s.data)) for i, s in row] for row in taped] == plain


# ----------------------------------------------------------------------
# The nodes one by one
# ----------------------------------------------------------------------


def _node_cases():
    rng = np.random.default_rng(5)
    grid = rng.normal(size=(3, 2))

    def attend_lstm(s):
        return nc.attend_lstm_seq(grid, s["x"], nc.tanh_t(s["h0"]), nc.tanh_t(s["c0"]),
                                  (s["w_v"], s["w_h"], s["b1"], s["w2"], s["b2"]),
                                  (s["w"], s["b"]))

    return {
        "attend_lstm_seq": (
            {"x": (4, 2), "h0": (3,), "c0": (3,), "w_v": (3, 2), "w_h": (3, 3), "b1": (3,),
             "w2": (3,), "b2": (1,), "w": (12, 7), "b": (12,)},
            attend_lstm),
        "lstm_seq": ({"x": (3, 2), "w": (8, 4), "b": (8,)},
                     lambda s: nc.lstm_seq(s["x"], s["w"], s["b"], reverse=True)),
        "linear": ({"x": (3, 4), "w": (2, 4), "b": (2,)},
                   lambda s: nc.linear(s["x"], s["w"], s["b"])),
        "vecmat-rows": ({"p": (3, 4), "e": (4, 2)}, lambda s: nc.vecmat(s["p"], s["e"])),
        "embedding-repeated-rows": ({"e": (4, 3)}, lambda s: nc.embedding(s["e"], [2, 0, 2])),
        "concat-columns": ({"a": (3, 2), "b": (3, 1)},
                           lambda s: nc.concat([s["a"], s["b"]], axis=1)),
        "windows": ({"x": (4, 2)}, lambda s: nc.windows(s["x"], 3)),
        "max_rows": ({"x": (4, 3)}, lambda s: nc.max_rows(s["x"])),
        "softmax-rows": ({"x": (3, 4)}, lambda s: nc.softmax(s["x"])),
    }


@pytest.mark.parametrize("name", list(_node_cases()))
def test_node_passes_gradcheck(name):
    shapes, build = _node_cases()[name]
    rng = np.random.default_rng(len(name))
    store = nc.ParamStore()
    for key, shape in shapes.items():
        store.add(key, rng.uniform(-1.0, 1.0, size=shape))
    out = build(store)
    weights = nc.constant(rng.normal(size=out.shape))

    def loss():
        y = build(store)
        return nc.dot(_flat(weights) if y.data.ndim == 2 else weights,
                      _flat(y) if y.data.ndim == 2 else y)

    assert nc.grad_check(loss, store, epsilon=1e-4) < 1e-4


def test_cross_entropy_rows_is_the_sum_of_row_losses():
    rng = np.random.default_rng(8)
    store = nc.ParamStore()
    logits = store.add("logits", rng.normal(size=(4, 5)))
    targets = [3, 0, 3, 4]
    want = sum(nc.cross_entropy(nc.embedding(logits, i), t).item()
               for i, t in enumerate(targets))
    assert abs(nc.cross_entropy(logits, targets).item() - want) < 1e-12
    assert nc.grad_check(lambda: nc.cross_entropy(logits, targets), store, epsilon=1e-4) < 1e-4
    with pytest.raises(ShapeError):
        nc.cross_entropy(logits, [1, 2])
