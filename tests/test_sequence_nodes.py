"""The minibatch training nodes against the per-item, per-step tape oracle.

Every new or widened numcore node passes the central-difference check at
1e-4, ragged (masked) minibatches included. Losses and every parameter
gradient of the three decoder variants and of the filler, for one item and
for ragged minibatches, agree with the sum of ``tape_oracle``'s per-item
losses to 1e-10 relative: the stacked GEMMs sum in another order, so they
cannot agree bit for bit.
"""

import numpy as np
import pytest

from gradcheck import grad_check
from synth import slotted_entry
import tape_oracle as tape
from test_filler import cue_corpus

from artdesc import numcore as nc
from artdesc.corpus import EntityType, FeatureGrid, PaintingRecord, Slot, TopicLabel
from artdesc.decoder import DecoderConfig, TrainingItem, init_decoder_params, sequence_loss
from artdesc.decoder.classifier import classify_distributions, classify_tokens
from artdesc.decoder.model import decoder_input
from artdesc.decoder.train import batch_loss
from artdesc.errors import ShapeError
from artdesc.filler import (
    FillerConfig,
    build_fill_pairs,
    build_filler_vocab,
    fill_pair_loss,
    fill_slots,
    init_filler_params,
    slot_scores,
)
from artdesc.filler.train import FillPair
from artdesc.numcore.tensor import _node
from artdesc.training import Checkpoint


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


def _decoder(variant, seed=0):
    config = DecoderConfig(variant=variant, vocab_size=12, feature_dim=4, hidden_size=6,
                           embed_size=5, topic_embed_size=3, max_len=8)
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
        topics = None if topic_idx is None else [topic_idx]
        nll, n, logits = sequence_loss([grid], [ids], store, prefix, topics)
        if topic_idx is None:
            return nll
        words = max(n - 1, 1)
        probs = nc.softmax(nc.embedding(logits, range(words)))
        return nc.add_n([nll, nc.cross_entropy(classify_distributions(probs, store, [words]),
                                               topic_idx)])

    def oracle():
        nll, n, probs = tape.sequence_loss(grid, ids, store, prefix, topic_idx,
                                           collect_probs=topic_idx is not None)
        if topic_idx is None:
            return nll
        word = probs[:-1] if len(probs) > 1 else probs
        return nc.add_n([nll, nc.cross_entropy(tape.classify_distributions(word, store),
                                               topic_idx)])

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
    assert grad_check(new, store) < 1e-4


def test_classify_tokens_matches_oracle():
    _, store = _decoder("conditional")
    for tokens in ([5], [5, 6], [4, 7, 9, 5, 11]):
        got = classify_tokens(tokens, store).data
        want = tape.classify_tokens(tokens, store).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _oracle_item_loss(config, store, item):
    """One item's loss on the per-step path, as ``batch_loss`` sums it: the
    conditional variant's adds the classifier's cross-entropy."""
    prefix, topic_idx = decoder_input(config.variant, item.topic)
    conditional = config.variant == "conditional"
    nll, _, probs = tape.sequence_loss(item.grid, item.token_ids, store, prefix, topic_idx,
                                       collect_probs=conditional)
    if not conditional:
        return nll
    word = probs[:-1] if len(probs) > 1 else probs
    return nc.add_n([nll, nc.cross_entropy(tape.classify_distributions(word, store), topic_idx)])


def _batch(lengths, topics, seed, n_locs=None):
    """Items of these transition counts and topics, in the given order."""
    rng = np.random.default_rng(seed)
    n_locs = n_locs or [3] * len(lengths)
    return [TrainingItem(FeatureGrid(rng.normal(size=(n_loc, 4))), topic,
                         [1] + [int(t) for t in rng.integers(4, 12, size=n - 1)] + [2])
            for n, topic, n_loc in zip(lengths, topics, n_locs)]


C, F, X = TopicLabel.CONTENT, TopicLabel.FORM, TopicLabel.CONTEXT
BATCHES = {
    "ragged": ([3, 1, 6, 2, 6], [F, C, F, C, F]),  # the parallel batch has no context item
    "one-item": ([4], [X]),
    "length-1-only": ([1, 1], [C, F]),
    "grid-sizes": ([2, 5, 3], [F, F, C]),
}


@pytest.mark.parametrize("variant", ["baseline", "parallel", "conditional"])
@pytest.mark.parametrize("batch", list(BATCHES))
def test_minibatch_loss_and_gradients_match_per_item_oracle(variant, batch):
    """A minibatch's loss is the sum of its items' per-step losses, and so
    is every gradient: ragged lengths, a parallel batch without one topic,
    one item, length-1 sequences and grids of two sizes."""
    config, store = _decoder(variant, seed=len(batch))
    lengths, topics = BATCHES[batch]
    n_locs = [3, 2, 3] if batch == "grid-sizes" else None
    items = _batch(lengths, topics, seed=len(lengths), n_locs=n_locs)

    def new():
        loss, units, stats = batch_loss(items, store, config)
        assert units == sum(lengths)
        assert stats["positions"] - stats["padded"] == units
        return loss

    def oracle():
        return nc.add_n([_oracle_item_loss(config, store, item) for item in items])

    _assert_matches_oracle(store, new, oracle)
    if variant == "parallel" and batch == "ragged":
        _, grads = _loss_and_grads(store, new)
        assert not any(np.any(grads[name]) for name in store.names()
                       if name.startswith("context."))


def test_sequence_loss_takes_sequences_longest_first():
    config, store = _decoder("baseline")
    items = _batch([2, 4], [C, C], seed=1)
    with pytest.raises(ShapeError):
        sequence_loss([item.grid for item in items], [item.token_ids for item in items],
                      store, "dec")


def test_classify_distributions_batch_equals_one_by_one():
    """Padding stays out of the max over time: each sequence's logits equal
    its own, shorter than the widest window or not."""
    config, store = _decoder("conditional")
    rng = np.random.default_rng(4)
    lengths = [5, 1, 2, 4]
    probs = nc.softmax(nc.constant(rng.normal(size=(sum(lengths), config.vocab_size))))
    got = classify_distributions(probs, store, lengths).data
    start = 0
    for row, n in enumerate(lengths):
        one = nc.constant(probs.data[start : start + n])
        want = classify_distributions(one, store, [n]).data[0]
        assert np.max(np.abs(got[row] - want)) <= 1e-12 * np.max(np.abs(want))
        start += n


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


def _filler_losses(pairs, store, vocab, config):
    def new():
        return fill_pair_loss(pairs, store, vocab)[0]

    def oracle():
        losses = [tape.fill_pair_loss(pair, store, vocab, config)[0] for pair in pairs]
        return nc.add_n([loss for loss in losses if loss is not None])

    return new, oracle


@pytest.mark.parametrize("tokens, values", [
    ([Slot(EntityType.PERSON)], ["goya"]),
    (["made", "by", Slot(EntityType.PERSON), "in", Slot(EntityType.DATE), "."],
     ["goya", "1820"]),
], ids=["one-token", "two-slots"])
def test_filler_loss_and_gradients_match_oracle(tokens, values):
    """The one-token case is a description of one word (<cls> aside):
    each LSTM direction reads a single row."""
    pair, store, vocab, config = _filler_pair(tokens, values)
    new, oracle = _filler_losses([pair], store, vocab, config)
    _assert_matches_oracle(store, new, oracle)
    assert grad_check(new, store) < 1e-4


def test_filler_minibatch_matches_per_pair_oracle():
    """Ragged descriptions and slot counts, two or more candidates for most
    slots, a pair with a skipped slot and a pair with no scored slot."""
    records = [
        PaintingRecord(id="a", sentences=[
            slotted_entry(["made", "by", Slot(EntityType.PERSON), "in", Slot(EntityType.DATE),
                           "for", Slot(EntityType.PERSON), "."],
                          ["goya", "1820", "vasari"], TopicLabel.CONTENT),
            slotted_entry([Slot(EntityType.DATE)], ["1799"], TopicLabel.CONTEXT),
        ]),
        PaintingRecord(id="b", sentences=[
            slotted_entry(["shows", Slot(EntityType.PERSON), "and", Slot(EntityType.PERSON)],
                          ["mary", "john"], TopicLabel.CONTENT),
        ]),
    ]
    vocab = build_filler_vocab(records)
    config = FillerConfig(vocab_size=len(vocab), hidden_size=4, embed_size=4, type_embed_size=3)
    store = init_filler_params(config, np.random.default_rng(3))
    _randomize(store, 9)
    pairs = build_fill_pairs(records)
    skipping = FillPair(pairs[0].masked, pairs[0].candidates, ["goya", "1500", "vasari"])
    nothing = FillPair(pairs[1].masked, pairs[2].candidates, ["1799"])
    batch = [pairs[1], skipping, pairs[2], pairs[0], nothing]
    loss, scored, skipped = fill_pair_loss(batch, store, vocab)
    assert (scored, skipped) == (8, 2)
    new, oracle = _filler_losses(batch, store, vocab, config)
    _assert_matches_oracle(store, new, oracle)
    assert grad_check(new, store) < 1e-4


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("steps", [1, 4])
def test_lstm_seq_matches_lstm_steps_and_gradcheck(reverse, steps):
    rng = np.random.default_rng(steps)
    store = nc.ParamStore()
    x = store.add("x", rng.normal(size=(steps, 3)))
    w = store.add("w", rng.uniform(-0.5, 0.5, (8, 5)))
    b = store.add("b", rng.uniform(-0.5, 0.5, (8,)))
    weights = rng.normal(size=(steps, 2))

    def loss():
        return tape.dot(nc.constant(weights.ravel()),
                        _flat(nc.lstm_seq(_one(x), w, b, [steps], reverse)))

    def oracle():
        h = c = nc.constant(np.zeros(2))
        outs = [None] * steps
        for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
            h, c = nc.lstm_step(nc.embedding(x, t), h, c, w, b)
            outs[t] = h
        return tape.dot(nc.constant(weights.ravel()), nc.concat(outs))

    _assert_matches_oracle(store, loss, oracle)
    assert grad_check(loss, store) < 1e-4


def _one(t):
    """A (T, X) tensor as a minibatch of one, (1, T, X)."""
    def bwd(out):
        t.accumulate_grad(out.grad[0])

    return _node(t.data[None], (t,), bwd, "one")


def _flat(t):
    """A (T, k) tensor as its (T*k,) rows, one after another."""
    return nc.concat([nc.embedding(t, i) for i in range(t.shape[0])])


def test_fill_slots_scores_equal_the_training_forward():
    """Each decision of slot filling carries the best compatible score of
    its slot's ``slot_scores`` row, bit for bit, and counts that row's
    compatible candidates."""
    records = cue_corpus(np.random.default_rng(3), 3)
    vocab = build_filler_vocab(records)
    config = FillerConfig(vocab_size=len(vocab), hidden_size=5, embed_size=4, type_embed_size=3)
    store = init_filler_params(config, np.random.default_rng(1))
    _randomize(store, 2)
    ckpt = Checkpoint(config, vocab, store, 0)
    for pair in build_fill_pairs(records):
        scores, compatible = slot_scores([pair.fill_input], [pair.candidates], store, vocab)
        decisions = fill_slots(pair.masked, pair.candidates, ckpt).decisions
        assert [(d.score, d.n_compatible) for d in decisions] == \
            [(float(row[ok].max()), int(ok.sum())) for row, ok in zip(scores.data, compatible)]


# ----------------------------------------------------------------------
# The nodes one by one
# ----------------------------------------------------------------------


def _node_cases():
    rng = np.random.default_rng(5)
    grid = rng.normal(size=(1, 3, 2))
    grids = rng.normal(size=(3, 3, 2))

    def attend_lstm(s):
        return nc.attend_lstm_seq(grid, s["x"], nc.tanh_t(s["h0"]), nc.tanh_t(s["c0"]),
                                  (s["w_v"], s["w_h"], s["b1"], s["w2"], s["b2"]),
                                  (s["w"], s["b"]), [4])

    return {
        "attend_lstm_seq": (
            {"x": (1, 4, 2), "h0": (1, 3), "c0": (1, 3), "w_v": (3, 2), "w_h": (3, 3),
             "b1": (3,), "w2": (3,), "b2": (1,), "w": (12, 7), "b": (12,)},
            attend_lstm),
        "lstm_seq": ({"x": (1, 3, 2), "w": (8, 4), "b": (8,)},
                     lambda s: nc.lstm_seq(s["x"], s["w"], s["b"], [3], reverse=True)),
        "linear": ({"x": (3, 4), "w": (2, 4), "b": (2,)},
                   lambda s: nc.linear(s["x"], s["w"], s["b"])),
        "vecmat-rows": ({"p": (3, 4), "e": (4, 2)}, lambda s: nc.vecmat(s["p"], s["e"])),
        "embedding-repeated-rows": ({"e": (4, 3)}, lambda s: nc.embedding(s["e"], [2, 0, 2])),
        "concat-columns": ({"a": (3, 2), "b": (3, 1)},
                           lambda s: nc.concat([s["a"], s["b"]], axis=1)),
        "windows": ({"x": (4, 2)}, lambda s: nc.windows(s["x"], 3)),
        "max_rows": ({"x": (1, 4, 3)}, lambda s: nc.max_rows(s["x"], [4])),
        "softmax-rows": ({"x": (3, 4)}, lambda s: nc.softmax(s["x"])),
        "attend_lstm_seq-ragged": (
            {"x": (3, 4, 2), "h0": (3, 3), "c0": (3, 3), "w_v": (3, 2), "w_h": (3, 3),
             "b1": (3,), "w2": (3,), "b2": (1,), "w": (12, 7), "b": (12,)},
            lambda s: nc.attend_lstm_seq(grids, s["x"], nc.tanh_t(s["h0"]), nc.tanh_t(s["c0"]),
                                         (s["w_v"], s["w_h"], s["b1"], s["w2"], s["b2"]),
                                         (s["w"], s["b"]), [4, 2, 1])),
        "lstm_seq-ragged": ({"x": (3, 4, 2), "w": (8, 4), "b": (8,)},
                            lambda s: nc.lstm_seq(s["x"], s["w"], s["b"], [4, 4, 2])),
        "lstm_seq-ragged-reverse": ({"x": (3, 4, 2), "w": (8, 4), "b": (8,)},
                                    lambda s: nc.lstm_seq(s["x"], s["w"], s["b"], [4, 3, 1],
                                                          reverse=True)),
        "linear-3d": ({"x": (2, 3, 4), "w": (2, 4), "b": (2,)},
                      lambda s: nc.linear(s["x"], s["w"], s["b"])),
        "windows-3d": ({"x": (2, 4, 2)}, lambda s: nc.windows(s["x"], 3)),
        "max_rows-ragged": ({"x": (3, 4, 2)}, lambda s: nc.max_rows(s["x"], [2, 4, 1])),
        "cross_entropy-masked": ({"x": (3, 4)}, lambda s: nc.cross_entropy(
            s["x"], [1, 0, 3], mask=np.array([[1, 1, 0, 1], [1, 0, 0, 0], [0, 1, 1, 1]], bool))),
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
        return _weighted_sum(build(store), weights.data)

    assert grad_check(loss, store) < 1e-4


def _weighted_sum(y, weights):
    """sum(weights * y) as one scalar node, for a y of any shape."""
    def bwd(out):
        y.accumulate_grad(float(out.grad) * weights)

    return _node(np.array((weights * y.data).sum()), (y,), bwd, "weighted_sum")


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_ragged_lstm_seq_rows_equal_each_sequence_alone(reverse):
    """A step past a sequence's end leaves it alone: each sequence's rows,
    and the gradients, match running it by itself."""
    rng = np.random.default_rng(12)
    store = nc.ParamStore()
    x = store.add("x", rng.normal(size=(3, 5, 2)))
    w = store.add("w", rng.uniform(-0.5, 0.5, (8, 4)))
    b = store.add("b", rng.uniform(-0.5, 0.5, (8,)))
    lengths = [5, 3, 1]
    weights = rng.normal(size=(sum(lengths), 2))

    def batched():
        return _weighted_sum(nc.lstm_seq(x, w, b, lengths, reverse), weights)

    def alone():
        rows = [nc.lstm_seq(_one(nc.embedding(_seq(x, i), range(n))), w, b, [n], reverse)
                for i, n in enumerate(lengths)]
        return _weighted_sum(nc.concat(rows), weights)

    _assert_matches_oracle(store, batched, alone, tol=1e-12)


def test_ragged_attend_lstm_seq_rows_equal_each_sequence_alone():
    rng = np.random.default_rng(13)
    grids = rng.normal(size=(3, 4, 2))
    store = nc.ParamStore()
    shapes = {"x": (3, 5, 2), "h0": (3, 3), "c0": (3, 3), "w_v": (3, 2), "w_h": (3, 3),
              "b1": (3,), "w2": (3,), "b2": (1,), "w": (12, 7), "b": (12,)}
    s = {key: store.add(key, rng.uniform(-1.0, 1.0, size=shape)) for key, shape in shapes.items()}
    att = (s["w_v"], s["w_h"], s["b1"], s["w2"], s["b2"])
    lengths = [5, 5, 2]
    weights = rng.normal(size=(sum(lengths), 5))

    def batched():
        return _weighted_sum(nc.attend_lstm_seq(grids, s["x"], s["h0"], s["c0"], att,
                                                (s["w"], s["b"]), lengths), weights)

    def alone():
        rows = [nc.attend_lstm_seq(grids[i : i + 1], _one(nc.embedding(_seq(s["x"], i), range(n))),
                                   nc.embedding(s["h0"], [i]), nc.embedding(s["c0"], [i]), att,
                                   (s["w"], s["b"]), [n])
                for i, n in enumerate(lengths)]
        return _weighted_sum(nc.concat(rows), weights)

    _assert_matches_oracle(store, batched, alone)


def _seq(x, i):
    """Sequence i of a (B, T, X) tensor as a (T, X) node of its own."""
    def bwd(out):
        g = np.zeros_like(x.data)
        g[i] = out.grad
        x.accumulate_grad(g)

    return _node(x.data[i].copy(), (x,), bwd, "seq")


def test_cross_entropy_rows_is_the_sum_of_row_losses():
    rng = np.random.default_rng(8)
    store = nc.ParamStore()
    logits = store.add("logits", rng.normal(size=(4, 5)))
    targets = [3, 0, 3, 4]
    want = sum(nc.cross_entropy(nc.embedding(logits, i), t).item()
               for i, t in enumerate(targets))
    assert abs(nc.cross_entropy(logits, targets).item() - want) < 1e-12
    assert grad_check(lambda: nc.cross_entropy(logits, targets), store) < 1e-4
    with pytest.raises(ShapeError):
        nc.cross_entropy(logits, [1, 2])
