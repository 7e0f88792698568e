"""The parameter block and its in-place Adam step.

The block step must be bit-equal to the per-parameter oracle in
``adam_oracle.py``, one step at a time on random stores and end to end
through every trainer, and the store must refuse to train a parameter whose
``.data`` or ``.grad`` left the block.
"""

import numpy as np
import pytest

from adam_oracle import OracleAdam
from synth import entity_corpus
from tape_oracle import dot
from test_filler import cue_corpus

import artdesc.numcore as nc
from artdesc.decoder import DecoderConfig, TrainConfig, train_conditional, train_decoder
from artdesc.errors import ShapeError, StateError
from artdesc.filler import FillerConfig, build_filler_vocab, train_filler
from artdesc.numcore.params import ADAM_CHUNK


def _assert_bit_equal(a: np.ndarray, b: np.ndarray, what: str) -> None:
    assert np.array_equal(a, b), what
    assert np.array_equal(np.signbit(a), np.signbit(b)), f"{what}: signs of zero differ"


def _twin_stores(rng):
    """Two stores with the same parameters; one exceeds a chunk, so the
    block step crosses chunk boundaries inside a parameter."""
    shapes = {"emb": (7, 5), "big": (3, ADAM_CHUNK // 2 + 11), "bias": (4,), "one": (1,),
              "cube": (2, 3, 4)}
    new, old = nc.ParamStore(), nc.ParamStore()
    for name, shape in shapes.items():
        data = rng.normal(size=shape)
        new.add(name, data.copy())
        old.add(name, data.copy())
    return new, old


def _random_grad(rng, shape):
    g = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 4, size=shape)
    g[rng.random(shape) < 0.1] = 0.0
    g[rng.random(shape) < 0.05] = -0.0
    return g


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_block_step_is_bit_equal_to_the_per_parameter_oracle(seed):
    rng = np.random.default_rng(seed)
    new, old = _twin_stores(rng)
    oracle = OracleAdam()
    for step in range(6):
        lr = float(10.0 ** rng.uniform(-4, -1))
        new.clear_grads()
        old.clear_grads()
        for name in new.names():
            if rng.random() < 0.3:
                continue  # unreached this step: its gradient stays zero
            g = _random_grad(rng, new[name].shape)
            if rng.random() < 0.3:  # written, not accumulated
                new[name].grad[...] = g
                old[name].grad[...] = g
            else:
                new[name].grad += g
                old[name].grad += g
        nc.adam_step(new, lr)
        oracle(old, lr)
        assert new.step == old.step == step + 1
        for name in new.names():
            _assert_bit_equal(new[name].data, old[name].data, f"step {step}, '{name}'")


def _train_all(epochs=3):
    records, vocab = entity_corpus(np.random.default_rng(97), n_records=5)
    out = {}
    tcfg = TrainConfig(epochs=epochs, lr=2e-2, lr_decay=0.5, lr_decay_every=1, batch_size=3,
                       seed=98)
    for variant in ("baseline", "parallel", "conditional"):
        config = DecoderConfig(variant=variant, vocab_size=len(vocab), feature_dim=6,
                               hidden_size=8, embed_size=6, topic_embed_size=3, max_len=12)
        trainer = train_conditional if variant == "conditional" else train_decoder
        out[variant] = trainer(records, vocab, config, tcfg)
    cues = cue_corpus(np.random.default_rng(97), 6)  # several candidates per slot
    fvocab = build_filler_vocab(cues)
    fconfig = FillerConfig(vocab_size=len(fvocab), hidden_size=5, embed_size=6,
                           type_embed_size=3)
    out["filler"] = train_filler(cues, fvocab, fconfig, epochs=epochs, lr=2e-2, lr_decay=0.5,
                                 lr_decay_every=1, batch_size=5, seed=99)
    return out


def test_training_is_bit_equal_with_the_oracle_step(monkeypatch):
    block = _train_all()
    oracles: dict[int, tuple] = {}  # one oracle per trained store

    def oracle_step(store, *args):
        oracles.setdefault(id(store), (store, OracleAdam()))[1](store, *args)

    monkeypatch.setattr(nc, "adam_step", oracle_step)
    oracle = _train_all()
    assert len(oracles) == 4
    for model, ckpt in block.items():
        assert ckpt.history == oracle[model].history, model
        assert [h["lr"] for h in ckpt.history] == [2e-2, 1e-2, 5e-3]
        assert all(v > 0 for h in ckpt.history for k, v in h.items() if "per_" in k), model
        reference = oracle[model].store.state_arrays()
        for name, data in ckpt.store.state_arrays().items():
            _assert_bit_equal(data, reference[name], f"{model} '{name}'")


REBINDINGS = {
    "data": lambda w: setattr(w, "data", np.array([3.0, 4.0])),
    "grad": lambda w: setattr(w, "grad", np.array([3.0, 4.0])),
    "grad-none": lambda w: setattr(w, "grad", None),
}
STORE_CALLS = {
    "clear_grads": lambda store, w: store.clear_grads(),
    "backward": lambda store, w: nc.backward(dot(w, w), store),
    "adam_step": lambda store, w: nc.adam_step(store, lr=0.1),
}


@pytest.mark.parametrize("call", STORE_CALLS)
@pytest.mark.parametrize("rebind", REBINDINGS)
def test_rebinding_after_the_pack_is_refused(rebind, call):
    store = nc.ParamStore()
    w = store.add("w", np.array([1.0, 2.0]))
    store.clear_grads()
    REBINDINGS[rebind](w)
    attr = "data" if rebind == "data" else "grad"
    with pytest.raises(StateError, match=rf"'w': \.{attr} was rebound"):
        STORE_CALLS[call](store, w)


def test_assigned_gradient_of_another_shape_is_refused():
    store = nc.ParamStore()
    w = store.add("w", np.zeros((2, 3)))
    w.grad = np.ones(6)
    with pytest.raises(ShapeError, match="'w'"):
        nc.adam_step(store, lr=0.1)


def test_no_parameter_joins_a_built_block():
    store = nc.ParamStore()
    store.add("w", np.array([1.0]))
    store.add("v", np.array([2.0]))  # before the block: fine
    store.clear_grads()
    with pytest.raises(StateError, match="'u'"):
        store.add("u", np.array([3.0]))
    assert store.names() == ["v", "w"]


def test_data_written_in_place_is_trained():
    store = nc.ParamStore()
    w = store.add("w", np.array([1.0, -1.0]))
    store.clear_grads()
    w.data[...] = [5.0, 6.0]  # in place: still the block's view
    nc.backward(dot(w, w), store)
    nc.adam_step(store, lr=0.5)  # a first step moves each weight by lr * sign(grad)
    assert np.allclose(w.data, [4.5, 5.5])


def test_non_finite_gradient_names_its_parameter():
    store = nc.ParamStore()
    a = store.add("a", np.array([1.0]))
    b = store.add("b", np.array([1e-300]))
    # the forward stays finite (1 + 1e300) but b's gradient is 1e300 * 1e300
    huge = nc.scale(dot(b, nc.constant([1e300])), 1e300)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="gradient of 'b'"):
        nc.backward(nc.add_n([dot(a, a), huge]), store)


def test_cleared_gradients_start_from_zero():
    store = nc.ParamStore()
    w = store.add("w", np.array([3.0]))
    nc.backward(dot(w, w), store)
    store.clear_grads()  # the view held 6
    nc.backward(dot(w, w), store)
    assert w.grad.tolist() == [6.0]
