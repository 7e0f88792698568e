"""Candidate extraction, fill-input layout, and the slot filler."""

import numpy as np
import pytest

from synth import slotted_entry

from artdesc import numcore as nc
from artdesc.corpus import EntityType, Gazetteer, PaintingRecord, Slot, TopicLabel, tokenize
from artdesc.errors import ConfigError
from artdesc.filler import (
    Candidate,
    CandidateSet,
    FillerConfig,
    build_fill_pairs,
    build_filler_vocab,
    encode_fill_input,
    extract_candidates,
    fill_pair_loss,
    fill_slots,
    init_filler_params,
    load_filler_checkpoint,
    record_candidates,
    save_filler_checkpoint,
    train_filler,
)
from artdesc.filler.train import FillPair


@pytest.fixture
def gazetteer():
    return Gazetteer({"Vasari": EntityType.PERSON, "Florence": EntityType.LOCATION})


class TestExtractCandidates:
    def test_attributes_only(self, gazetteer):
        cands = extract_candidates([], {"artist": "beyeren"}, gazetteer)
        assert cands.entries == [Candidate("beyeren", EntityType.PERSON, "attribute")]

    def test_article_entities(self, gazetteer):
        cands = extract_candidates(["Vasari recorded the plague of 1502."], {}, gazetteer)
        got = {(c.surface, c.entity_type) for c in cands}
        assert ("Vasari", EntityType.PERSON) in got
        assert ("1502", EntityType.DATE) in got

    def test_duplicates_across_articles_once(self, gazetteer):
        cands = extract_candidates(["Vasari wrote.", "Vasari again."], {}, gazetteer)
        assert len([c for c in cands if c.surface == "Vasari"]) == 1

    def test_attribute_entries_come_first(self, gazetteer):
        cands = extract_candidates(["In Florence."], {"artist": "vasari"}, gazetteer)
        assert cands.entries[0].source == "attribute"

    def test_training_and_describe_harvest_attributes_alike(self, gazetteer):
        """Filler training (``record_candidates``) and describe
        (``extract_candidates``) list a record's attribute values in one order."""
        record = PaintingRecord("p1", [], attributes={
            "school": "Florentine", "timeframe": "1501-1550", "type": "religious",
            "artist": "Vasari"})
        want = [c for c in record_candidates(record) if c.source == "attribute"]
        assert len(want) == 4
        assert extract_candidates([], record.attributes, gazetteer).entries == want

    def test_case_insensitive_dedup(self, gazetteer):
        cands = CandidateSet([
            Candidate("Vasari", EntityType.PERSON, "article"),
            Candidate("vasari", EntityType.PERSON, "attribute"),
        ])
        assert len(cands) == 1

    def test_same_surface_different_type_kept(self):
        cands = CandidateSet([
            Candidate("florence", EntityType.PERSON, "article"),
            Candidate("florence", EntityType.LOCATION, "article"),
        ])
        assert len(cands) == 2


class TestFillInput:
    def _masked(self):
        entry = slotted_entry(
            ["painted", "by", Slot(EntityType.PERSON), "today", "."],
            ["vasari"], TopicLabel.CONTENT)
        return [entry.masked]

    def test_layout(self):
        fi = encode_fill_input(self._masked())
        assert fi.tokens == ["<cls>", *self._masked()[0].surfaces(), "<sep>"]

    def test_empty_candidates(self):
        """The input carries no candidate segment: it ends at SEP whatever
        the candidate set, empty included."""
        fi = encode_fill_input(self._masked())
        assert fi.tokens[-1] == "<sep>"
        assert fi.tokens.count("<sep>") == 1

    def test_slot_positions_point_into_description(self):
        fi = encode_fill_input(self._masked())
        assert len(fi.slot_positions) == 1
        pos = fi.slot_positions[0]
        assert 0 < pos < len(fi.tokens) - 1
        assert fi.tokens[pos] == "[person]"


def cue_corpus(rng, n_records, n_symbols=8, per_record=4):
    """Records whose sentences pair a cue word with the entity it determines."""
    people = [f"person{i}" for i in range(n_symbols)]
    cues = [f"cue{i}" for i in range(n_symbols)]
    records = []
    for r in range(n_records):
        picks = rng.permutation(n_symbols)[:per_record]
        entries = [
            slotted_entry(
                ["the", cues[k], "piece", "honors", Slot(EntityType.PERSON), "."],
                [people[k]], TopicLabel.CONTENT)
            for k in picks
        ]
        records.append(PaintingRecord(id=f"r{r:03d}", sentences=entries))
    return records


def ragged_cue_corpus(rng, n_records, n_symbols=4):
    """Records whose sentences hold one, two or three slots, each slot's
    value set by the cue word before it; every record names two people and
    two dates, so every slot has two type-compatible candidates."""
    people = [f"person{i}" for i in range(n_symbols)]
    dates = [f"{1500 + 40 * i}" for i in range(n_symbols)]
    records = []
    for r in range(n_records):
        p, d = rng.permutation(n_symbols)[:2], rng.permutation(n_symbols)[:2]
        entries = [
            slotted_entry(["by", f"cue{p[0]}", Slot(EntityType.PERSON), "."],
                          [people[p[0]]], TopicLabel.CONTENT),
            slotted_entry(["the", f"cue{p[1]}", Slot(EntityType.PERSON), "in", f"when{d[0]}",
                           Slot(EntityType.DATE)], [people[p[1]], dates[d[0]]], TopicLabel.FORM),
            slotted_entry([f"when{d[1]}", Slot(EntityType.DATE), f"cue{p[0]}",
                           Slot(EntityType.PERSON), "met", f"cue{p[1]}",
                           Slot(EntityType.PERSON)],
                          [dates[d[1]], people[p[0]], people[p[1]]], TopicLabel.CONTEXT),
        ]
        records.append(PaintingRecord(id=f"g{r:03d}", sentences=entries))
    return records


@pytest.fixture(scope="module")
def trained_cue_filler():
    rng = np.random.default_rng(82)
    train_records = cue_corpus(rng, 60, n_symbols=6, per_record=3)
    vocab = build_filler_vocab(train_records)
    config = FillerConfig(vocab_size=len(vocab), hidden_size=24, embed_size=20,
                          type_embed_size=6)
    ckpt = train_filler(train_records, vocab, config, epochs=15, lr=7e-3,
                        lr_decay_every=None, batch_size=16, seed=1)
    return train_records, ckpt


class TestTrainFiller:
    def test_learns_cue_mapping(self, trained_cue_filler):
        records, ckpt = trained_cue_filler
        held_out = cue_corpus(np.random.default_rng(83), 8, n_symbols=6, per_record=3)
        correct = total = 0
        for rec in held_out:
            cands = record_candidates(rec)
            for entry in rec.sentences:
                result = fill_slots([entry.masked], cands, ckpt)
                for decision, gold in zip(result.decisions, entry.values):
                    total += 1
                    correct += decision.chosen == gold
        assert correct == total

    def test_loss_is_nonzero_and_falls_with_ragged_slots(self):
        """A real training signal: every slot scores two or more candidates,
        so the loss is nonzero, and minibatches of ragged descriptions and
        slot counts drive it down epoch after epoch."""
        records = ragged_cue_corpus(np.random.default_rng(86), 8)
        for pair in build_fill_pairs(records):
            for target, etype in zip(pair.targets, pair.masked[0].slot_types()):
                assert sum(c.entity_type == etype for c in pair.candidates.entries) >= 2
        vocab = build_filler_vocab(records)
        config = FillerConfig(vocab_size=len(vocab), hidden_size=12, embed_size=10,
                              type_embed_size=4)
        ckpt = train_filler(records, vocab, config, epochs=8, lr=1e-2, lr_decay_every=None,
                            batch_size=5, seed=3)
        losses = [entry["loss_per_slot"] for entry in ckpt.history]
        assert all(loss > 0.1 for loss in losses)
        assert all(b < a for a, b in zip(losses, losses[1:])), losses
        assert losses[-1] < 0.5 * losses[0]
        assert all(entry["skipped_slots"] == 0 for entry in ckpt.history)

    def test_determinism(self):
        records = cue_corpus(np.random.default_rng(84), 6)
        vocab = build_filler_vocab(records)
        config = FillerConfig(vocab_size=len(vocab), hidden_size=8, embed_size=8)
        a = train_filler(records, vocab, config, epochs=2, seed=5)
        b = train_filler(records, vocab, config, epochs=2, seed=5)
        assert a.history == b.history
        for name in a.store.names():
            assert np.array_equal(a.store[name].data, b.store[name].data)

    def test_single_compatible_candidate_zero_loss(self):
        entry = slotted_entry(["made", "by", Slot(EntityType.PERSON)],
                              ["goya"], TopicLabel.CONTENT)
        record = PaintingRecord(id="x", sentences=[entry])
        vocab = build_filler_vocab([record])
        config = FillerConfig(vocab_size=len(vocab), hidden_size=6, embed_size=6)
        store = init_filler_params(config, np.random.default_rng(0))
        pair = build_fill_pairs([record])[0]
        loss, scored, skipped = fill_pair_loss([pair], store, vocab)
        assert scored == 1 and skipped == 0
        assert loss.item() == 0.0  # softmax over one element

    def test_slot_without_compatible_candidate_skipped(self):
        entry = slotted_entry(["made", "in", Slot(EntityType.DATE)],
                              ["1650"], TopicLabel.CONTENT)
        record = PaintingRecord(id="x", sentences=[entry])
        vocab = build_filler_vocab([record])
        config = FillerConfig(vocab_size=len(vocab), hidden_size=6, embed_size=6)
        store = init_filler_params(config, np.random.default_rng(0))
        pair = FillPair([entry.masked],
                        CandidateSet([Candidate("goya", EntityType.PERSON, "article")]),
                        ["1650"])
        loss, scored, skipped = fill_pair_loss([pair], store, vocab)
        assert loss is None and scored == 0 and skipped == 1

    def test_vocab_mismatch_rejected(self):
        records = cue_corpus(np.random.default_rng(85), 3)
        vocab = build_filler_vocab(records)
        config = FillerConfig(vocab_size=len(vocab) + 1)
        with pytest.raises(ConfigError):
            train_filler(records, vocab, config, epochs=1)


class TestFillSlots:
    def test_forced_choice(self, trained_cue_filler):
        _, ckpt = trained_cue_filler
        entry = slotted_entry(["dated", Slot(EntityType.DATE)], ["1502"], TopicLabel.CONTENT)
        cands = CandidateSet([Candidate("1502", EntityType.DATE, "article")])
        result = fill_slots([entry.masked], cands, ckpt)
        assert result.tokens == ["dated", "1502"]

    def test_no_candidates_all_placeholders(self, trained_cue_filler):
        _, ckpt = trained_cue_filler
        entry = slotted_entry(
            ["by", Slot(EntityType.PERSON), "in", Slot(EntityType.DATE)],
            ["goya", "1820"], TopicLabel.CONTENT)
        result = fill_slots([entry.masked], CandidateSet([]), ckpt)
        assert result.tokens == ["by", "[unknown-person]", "in", "[unknown-date]"]

    def test_type_compatibility_never_violated(self, trained_cue_filler):
        records, ckpt = trained_cue_filler
        rng = np.random.default_rng(86)
        extra = CandidateSet([
            Candidate("1650", EntityType.DATE, "article"),
            Candidate("utrecht", EntityType.LOCATION, "article"),
            Candidate("person3", EntityType.PERSON, "article"),
            Candidate("person5", EntityType.PERSON, "article"),
        ])
        for rec in records[:10]:
            for entry in rec.sentences:
                result = fill_slots([entry.masked], extra, ckpt)
                for decision in result.decisions:
                    assert decision.entity_type == "person"
                    assert decision.chosen in {"person3", "person5"}

    def test_token_count_preserved(self, trained_cue_filler):
        records, ckpt = trained_cue_filler
        for rec in records[:5]:
            cands = record_candidates(rec)
            for entry in rec.sentences:
                result = fill_slots([entry.masked], cands, ckpt)
                assert len(result.tokens) == len(entry.masked.tokens)

    def test_candidate_permutation_invariant(self, trained_cue_filler):
        records, ckpt = trained_cue_filler
        rec = records[0]
        cands = record_candidates(rec)
        reversed_cands = CandidateSet(list(reversed(cands.entries)))
        for entry in rec.sentences:
            a = fill_slots([entry.masked], cands, ckpt)
            b = fill_slots([entry.masked], reversed_cands, ckpt)
            assert [d.chosen for d in a.decisions] == [d.chosen for d in b.decisions]

    def test_multiword_candidate_single_unit_then_expands(self, trained_cue_filler):
        _, ckpt = trained_cue_filler
        entry = slotted_entry(["in", Slot(EntityType.LOCATION)], ["new york"],
                              TopicLabel.CONTENT)
        cands = CandidateSet([Candidate("new york", EntityType.LOCATION, "article")])
        result = fill_slots([entry.masked], cands, ckpt)
        assert len(result.tokens) == 2
        assert result.rendered_tokens == ["in", "new", "york"]

    def test_rendered_tokens_keep_generated_words_and_placeholders(self, trained_cue_filler):
        """A generated word passes as it is, even where tokenize would split
        it ("i̇zmir", the lowercase of "İzmir", holds a combining dot); a fill
        goes through tokenize; a placeholder stays one token. So a
        description scores as ``evaluate`` tokenizes its reference."""
        _, ckpt = trained_cue_filler
        entry = slotted_entry([*tokenize("İzmir painter"), "in", Slot(EntityType.LOCATION),
                               "in", Slot(EntityType.DATE)], ["İzmir", "1502"],
                              TopicLabel.CONTENT)
        cands = CandidateSet([Candidate("İzmir", EntityType.LOCATION, "article")])
        result = fill_slots([entry.masked], cands, ckpt)
        assert result.tokens == ["i̇zmir", "painter", "in", "İzmir", "in", "[unknown-date]"]
        assert result.rendered_tokens == [*tokenize("İzmir painter in İzmir in"),
                                          "[unknown-date]"]


def test_vasari_sentence_reconstruction():
    # Memorization on a single training pair: the masked account-of-Vasari
    # sentence refilled from its own entity inventory reproduces the original.
    sentence = (
        "An account of Vasari says that Signorelli wanted to represent in the "
        "figure of the naked Christ his own son, who died of plague in 1502."
    )
    gazetteer = Gazetteer({
        "Vasari": EntityType.PERSON,
        "Signorelli": EntityType.PERSON,
        "Christ": EntityType.PERSON,
    })
    from artdesc.corpus import SentenceEntry, mask_sentence, tag_entities

    masked, values = mask_sentence(sentence, tag_entities(sentence, gazetteer),
                                   TopicLabel.CONTEXT)
    record = PaintingRecord(
        id="vasari",
        sentences=[SentenceEntry(sentence, masked, values, True)],
    )
    vocab = build_filler_vocab([record])
    config = FillerConfig(vocab_size=len(vocab), hidden_size=24, embed_size=20,
                          type_embed_size=6)
    ckpt = train_filler([record], vocab, config, epochs=120, lr=7e-3,
                        lr_decay_every=None, batch_size=1, seed=3)
    candidates = CandidateSet([
        Candidate("Vasari", EntityType.PERSON, "article"),
        Candidate("Signorelli", EntityType.PERSON, "article"),
        Candidate("Christ", EntityType.PERSON, "article"),
        Candidate("1502", EntityType.DATE, "article"),
    ])
    result = fill_slots([masked], candidates, ckpt)
    assert result.rendered_tokens == tokenize(sentence)


class TestFillerCheckpoint:
    def test_round_trip(self, trained_cue_filler, tmp_path):
        records, ckpt = trained_cue_filler
        path = tmp_path / "filler.ckpt"
        save_filler_checkpoint(path, ckpt)
        loaded = load_filler_checkpoint(path)
        assert loaded.config == ckpt.config
        rec = records[0]
        cands = record_candidates(rec)
        entry = rec.sentences[0]
        a = fill_slots([entry.masked], cands, ckpt)
        b = fill_slots([entry.masked], cands, loaded)
        assert a.tokens == b.tokens

    def test_config_with_max_len_refused(self, trained_cue_filler, tmp_path):
        """A checkpoint whose config still holds the input-length cap that
        fill inputs no longer have is refused; it must be retrained."""
        from artdesc.numcore.checkpoint import digest_of, load_container, save_container

        path = tmp_path / "filler.ckpt"
        save_filler_checkpoint(path, trained_cue_filler[1])
        meta, arrays, _ = load_container(path, "checkpoint")
        meta["config"]["max_len"] = 120
        meta["config_digest"] = digest_of(meta["config"])
        save_container(path, meta, arrays)
        with pytest.raises(ConfigError, match=r"unknown keys \['max_len'\]"):
            load_filler_checkpoint(path)

    def test_kind_check(self, tmp_path):
        from artdesc.numcore.checkpoint import save_container

        path = tmp_path / "x.ckpt"
        save_container(path, {"kind": "decoder", "config_digest": "d"}, {"w": np.zeros(2)})
        with pytest.raises(ConfigError):
            load_filler_checkpoint(path)


def test_filler_loss_gradcheck_toy():
    records = cue_corpus(np.random.default_rng(87), 2, n_symbols=4, per_record=2)
    vocab = build_filler_vocab(records)
    config = FillerConfig(vocab_size=len(vocab), hidden_size=4, embed_size=4,
                          type_embed_size=3)
    rng = np.random.default_rng(88)
    store = init_filler_params(config, rng)
    for name in store.names():  # well-conditioned check point, same derivative code
        store[name].data = rng.uniform(-0.5, 0.5, size=store[name].data.shape)
    pair = build_fill_pairs(records)[0]

    def loss_fn():
        loss, n, _ = fill_pair_loss([pair], store, vocab)
        return nc.scale(loss, 1.0 / n)

    err = nc.grad_check(loss_fn, store)
    assert err < 1e-4
