"""Finite-difference oracle: exactness on quadratics, composites at 1e-4."""

import numpy as np
import pytest

from artdesc import numcore as nc
from artdesc.errors import DataError


def test_quadratic_is_nearly_exact():
    store = nc.ParamStore()
    w = store.add("w", np.array([1.0, -2.0, 0.5]))
    err = nc.grad_check(lambda: nc.dot(w, w), store)
    assert err < 1e-8


def test_frozen_parameter_has_zero_error():
    store = nc.ParamStore()
    w = store.add("w", np.array([2.0]))
    store.add("frozen", np.array([1.0, -1.0]))
    err = nc.grad_check(lambda: nc.dot(w, w), store)
    assert err < 1e-8


def test_nondeterministic_loss_detected():
    store = nc.ParamStore()
    store.add("w", np.array([1.0]))
    state = {"n": 0}

    def flaky():
        state["n"] += 1
        return nc.constant(float(state["n"]))

    with pytest.raises(DataError, match="deterministic"):
        nc.grad_check(flaky, store)


def _composite_loss(store, grid, tokens):
    """LSTM + attention + output layer, per-token mean NLL over a short sequence."""
    vbar = nc.constant(grid.mean(axis=0))
    h = nc.tanh_t(nc.affine(store["w_h0"], vbar))
    c = nc.tanh_t(nc.affine(store["w_c0"], vbar))
    losses = []
    for prev, nxt in zip(tokens[:-1], tokens[1:]):
        z, _ = nc.mlp_attention(
            grid, h, store["att.w_v"], store["att.w_h"], store["att.b1"],
            store["att.w2"], store["att.b2"],
        )
        e = nc.embedding(store["embed"], prev)
        h, c = nc.lstm_step(nc.concat([z, e]), h, c, store["lstm.w"], store["lstm.b"])
        logits = nc.affine(store["out.w"], nc.concat([h, z]), store["out.b"])
        losses.append(nc.cross_entropy(logits, nxt))
    return nc.scale(nc.add_n(losses), 1.0 / len(losses))


# Check at weight scale 0.5 rather than the training init of 0.08: near the
# symmetric init point some attention gradients are genuinely ~1e-10, below
# the 1e-8 denominator floor, where central differences cannot certify more
# than the ~1e-12 float64 noise floor. Larger weights keep every element
# measurable while exercising the same derivative code.
def _composite_store(rng, vocab=5, hidden=3, feat=2, embed=3, scale=0.5):
    store = nc.ParamStore()
    store.add("embed", rng.uniform(-scale, scale, (vocab, embed)))
    store.add("lstm.w", rng.uniform(-scale, scale, (4 * hidden, feat + embed + hidden)))
    store.add("lstm.b", rng.uniform(-scale, scale, (4 * hidden,)))
    store.add("att.w_v", rng.uniform(-scale, scale, (hidden, feat)))
    store.add("att.w_h", rng.uniform(-scale, scale, (hidden, hidden)))
    store.add("att.b1", rng.uniform(-scale, scale, (hidden,)))
    store.add("att.w2", rng.uniform(-scale, scale, (hidden,)))
    store.add("att.b2", rng.uniform(-scale, scale, (1,)))
    store.add("out.w", rng.uniform(-scale, scale, (vocab, hidden + feat)))
    store.add("out.b", rng.uniform(-scale, scale, (vocab,)))
    store.add("w_h0", rng.uniform(-scale, scale, (hidden, feat)))
    store.add("w_c0", rng.uniform(-scale, scale, (hidden, feat)))
    return store


def test_composite_lstm_attention_output_passes_at_1e4():
    for seed in range(2000, 2100):
        rng = np.random.default_rng(seed)
        store = _composite_store(rng)
        grid = rng.normal(size=(2, 2))
        tokens = [int(t) for t in rng.integers(0, 5, size=3)]
        err = nc.grad_check(lambda: _composite_loss(store, grid, tokens), store)
        assert err < 1e-4, f"seed {seed}: {err}"
