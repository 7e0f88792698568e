"""Checkpoint loads for every decoder variant and the filler: no random
draw, the stored parameters bit for bit, the file's trailer digest, and
every check on a stored parameter."""

import numpy as np
import pytest

import artdesc.numcore as nc
from artdesc.corpus import EntityType, FeatureGrid, MaskedSentence, Slot, TopicLabel, Word
from artdesc.corpus.vocab import RESERVED, Vocab
from artdesc.decoder import (
    DecoderConfig,
    greedy_decode,
    load_decoder_checkpoint,
    save_decoder_checkpoint,
)
from artdesc.decoder.model import init_decoder_params
from artdesc.errors import DataError, ShapeError, StateError
from artdesc.filler import (
    Candidate,
    CandidateSet,
    FillerConfig,
    fill_slots,
    init_filler_params,
    load_filler_checkpoint,
    save_filler_checkpoint,
)
from artdesc.numcore.checkpoint import load_container, save_container
from artdesc.training import Checkpoint

VOCAB = Vocab(list(RESERVED) + ["saint", "river", "[person]"])


def _decoder(variant):
    config = DecoderConfig(variant=variant, vocab_size=len(VOCAB), feature_dim=6,
                           hidden_size=5, embed_size=4, max_len=8)
    return config, init_decoder_params, save_decoder_checkpoint, load_decoder_checkpoint


MODELS = {
    "baseline": _decoder("baseline"),
    "parallel": _decoder("parallel"),
    "conditional": _decoder("conditional"),
    "filler": (FillerConfig(vocab_size=len(VOCAB), hidden_size=5, embed_size=4,
                            type_embed_size=3),
               init_filler_params, save_filler_checkpoint, load_filler_checkpoint),
}


class _RaisingGenerator(np.random.Generator):
    def uniform(self, *args, **kwargs):
        raise AssertionError("a checkpoint load drew random numbers")


@pytest.fixture(params=sorted(MODELS))
def saved(request, tmp_path):
    """(store, path, load) for one model saved with random parameters."""
    config, init_params, save, load = MODELS[request.param]
    store = init_params(config, np.random.default_rng(5))
    path = tmp_path / f"{request.param}.ckpt"
    save(path, Checkpoint(config, VOCAB, store, seed=5))
    return store, path, load


def _assert_bit_equal(loaded: nc.ParamStore, store: nc.ParamStore) -> None:
    assert loaded.names() == store.names()
    for name in store.names():
        a, b = loaded[name].data, store[name].data
        assert a.dtype == np.float64 and a.shape == b.shape, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def test_load_draws_no_random_numbers(saved, monkeypatch):
    store, path, load = saved
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _RaisingGenerator(np.random.PCG64(seed)))
    monkeypatch.setattr(np.random, "uniform", _RaisingGenerator.uniform)
    _assert_bit_equal(load(path).store, store)


def test_loaded_parameters_are_read_only_and_contiguous(saved):
    """A load adopts the container's arrays as they are: views of the file's
    bytes (or aligned copies), which no caller may write."""
    store, path, load = saved
    loaded = load(path).store
    for name in loaded.names():
        data = loaded[name].data
        assert not data.flags.writeable, name
        assert data.flags.c_contiguous and data.flags.aligned, name
        with pytest.raises(ValueError):
            data[...] = 0.0
    _assert_bit_equal(loaded, store)


def test_loaded_model_reports_like_the_saved_one(saved):
    """Greedy decoding or slot filling from the loaded, read-only parameters
    gives the saved model's result bit for bit."""
    store, path, load = saved
    loaded = load(path)
    saved_ckpt = Checkpoint(loaded.config, loaded.vocab, store, seed=5)
    rng = np.random.default_rng(6)
    if isinstance(loaded.config, FillerConfig):
        masked = MaskedSentence([Word("saint"), Slot(EntityType.PERSON), Word("river")])
        candidates = CandidateSet([Candidate("river saint", EntityType.PERSON, "article"),
                                   Candidate("saint", EntityType.PERSON, "attribute")])
        assert fill_slots([masked], candidates, loaded) == fill_slots([masked], candidates,
                                                                       saved_ckpt)
        return
    grid = FeatureGrid(rng.normal(size=(3, 6)))
    for topic in TopicLabel:
        assert greedy_decode(loaded, grid, topic, 6) == greedy_decode(saved_ckpt, grid, topic, 6)


def test_load_keeps_the_trailer_digest(saved):
    _, path, load = saved
    assert load(path).sha256 == path.read_bytes()[-32:].hex()


def _break(arrays: dict, corruption: str) -> str:
    name = sorted(arrays)[0]
    if corruption == "wrong-shape":
        arrays[name] = np.zeros(arrays[name].shape + (2,))
    elif corruption == "missing":
        del arrays[name]
    elif corruption == "extra":
        arrays["zzz.bogus"] = np.zeros(3)
    else:
        arrays[name] = arrays[name].copy()  # loaded arrays are read-only
        arrays[name].flat[-1] = np.inf
    return name


@pytest.mark.parametrize("corruption, error, message", [
    ("wrong-shape", ShapeError, "parameter '{name}': checkpoint shape"),
    ("missing", StateError, "checkpoint is missing parameter '{name}'"),
    ("extra", StateError, "checkpoint has unknown parameters: ['zzz.bogus']"),
    ("non-finite", DataError, "parameter '{name}': checkpoint holds non-finite values"),
])
def test_broken_parameters_are_refused(saved, tmp_path, corruption, error, message):
    _, path, load = saved
    meta, arrays, _ = load_container(path, "checkpoint")
    name = _break(arrays, corruption)
    bad = tmp_path / "bad.ckpt"
    save_container(bad, meta, arrays)
    with pytest.raises(error) as caught:
        load(bad)
    assert message.format(name=name) in str(caught.value)

