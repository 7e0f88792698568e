"""Seeded synthetic inputs: painting corpora, feature grids, knowledge
articles and metadata queries.

Everything a workload feeds the program is drawn here from a
``numpy.random.Generator``; the same seed gives the same inputs.
"""

from __future__ import annotations

import numpy as np

from artdesc.corpus import (
    EntityType,
    FeatureGrid,
    MaskedSentence,
    PaintingRecord,
    SentenceEntry,
    Slot,
    TopicLabel,
    Word,
)
from artdesc.retriever import default_stopwords

ADJECTIVES = ["quiet", "vivid", "dark", "grand", "small", "bright", "pale", "warm"]
PAINTING_TYPES = ["portrait", "landscape", "fresco", "altarpiece", "still life", "seascape",
                  "allegory", "interior", "genre scene", "history painting", "miniature",
                  "triptych"]
# feature values of order 0.1 keep the decoder's LSTM inputs out of
# saturation, so the desk-size decoder learns the templates in few epochs
GRID_SCALE = 0.1
BLOCKED_OBJECTS = ["laptop", "cell phone", "traffic light", "skateboard"]

_ONSETS = ["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "br", "cr",
           "gr", "st", "tr", "pl", "sl", "ch", "th", "qu"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
_CODAS = ["", "", "n", "r", "l", "s", "nt", "rd", "st", "m"]
_SUFFIXES = ["", "", "", "s", "ing", "ed", "ation", "ness", "ly", "ful", "ive", "ize",
             "ment", "ies", "er", "al", "ous", "ence", "able", "ism"]


def pseudo_words(rng: np.random.Generator, n: int, suffixes: bool = True) -> list[str]:
    """n distinct pronounceable lowercase words that are not stop words.
    With suffixes the words carry the endings the Porter stemmer strips."""
    stop = default_stopwords()
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        m = 2 * (n - len(out)) + 16
        n_syllables = rng.integers(2, 4, size=m)
        onsets = rng.integers(len(_ONSETS), size=(m, 3))
        vowels = rng.integers(len(_VOWELS), size=(m, 3))
        codas = rng.integers(len(_CODAS), size=(m, 3))
        ends = rng.integers(len(_SUFFIXES), size=m)
        for j in range(m):
            word = "".join(_ONSETS[onsets[j, s]] + _VOWELS[vowels[j, s]] + _CODAS[codas[j, s]]
                           for s in range(n_syllables[j]))
            if suffixes:
                word += _SUFFIXES[ends[j]]
            if word not in seen and word not in stop:
                seen.add(word)
                out.append(word)
                if len(out) == n:
                    break
    return out


def zipf_probs(n: int, exponent: float = 1.05) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


# ----------------------------------------------------------------------
# Paintings
# ----------------------------------------------------------------------


def _entry(items: list, values: list[str], topic: TopicLabel) -> SentenceEntry:
    """Sentence from a template of words and slots, filled with ``values``."""
    tokens, raw = [], []
    fill = iter(values)
    for item in items:
        if isinstance(item, Slot):
            tokens.append(item)
            raw.append(next(fill))
        else:
            tokens.append(Word(item))
            raw.append(item)
    return SentenceEntry(" ".join(raw), MaskedSentence(tokens, topic), list(values), True)


def painting_sentences(style: int, person: str, place: str, year: str) -> list[SentenceEntry]:
    """One sentence per topic; the style picks the adjectives, so a decoder
    can read them off the grid, and the entities come from the metadata."""
    adj_a = ADJECTIVES[style % len(ADJECTIVES)]
    adj_b = ADJECTIVES[(style + 3) % len(ADJECTIVES)]
    return [
        _entry(["a", adj_a, "scene", "painted", "by", Slot(EntityType.PERSON), "."],
               [person], TopicLabel.CONTENT),
        _entry([adj_b, "brushwork", "throughout", "."], [], TopicLabel.FORM),
        _entry(["made", "in", Slot(EntityType.LOCATION), "in", Slot(EntityType.DATE), "."],
               [place, year], TopicLabel.CONTEXT),
    ]


def style_prototypes(rng: np.random.Generator, n_styles: int, n_loc: int,
                     feat: int) -> np.ndarray:
    return rng.normal(scale=GRID_SCALE, size=(n_styles, n_loc, feat))


def styled_grid(rng: np.random.Generator, prototype: np.ndarray) -> FeatureGrid:
    """A fresh grid of one style: the prototype plus independent noise of
    half its scale."""
    return FeatureGrid(prototype + 0.5 * GRID_SCALE * rng.normal(size=prototype.shape))


class EntityPools:
    """Names the gazetteer knows, drawn once per world. Each artist has a
    home school and an active year, which its paintings and the articles
    about it share."""

    def __init__(self, rng: np.random.Generator, n_people: int = 16, n_places: int = 12):
        names = pseudo_words(rng, n_people + n_places, suffixes=False)
        self.people = names[:n_people]
        self.places = names[n_people:]
        self.homes = {p: (self.places[int(rng.integers(n_places))], self.year(rng))
                      for p in self.people}

    def year(self, rng: np.random.Generator) -> str:
        return str(int(rng.integers(1400, 1900)))

    def gazetteer_tsv(self) -> str:
        lines = [f"{p}\tperson" for p in self.people]
        lines += [f"{p}\tlocation" for p in self.places]
        return "\n".join(lines) + "\n"


def painting(rng: np.random.Generator, pid: str, style: int, prototype: np.ndarray,
             pools: EntityPools, with_metadata: bool = True,
             objects: list[str] | None = None) -> PaintingRecord:
    """A painting whose reference description follows its style and
    metadata. Without metadata the attributes are empty and the only
    detected objects are blocklisted, so its retrieval query is empty."""
    person = pools.people[int(rng.integers(len(pools.people)))]
    place, year = pools.homes[person]
    if with_metadata:
        attributes = {"artist": person, "school": place, "timeframe": year, "type": "scene"}
        objects = list(objects or [])
    else:
        attributes = {}
        objects = [BLOCKED_OBJECTS[int(rng.integers(len(BLOCKED_OBJECTS)))]]
    return PaintingRecord(id=pid, sentences=painting_sentences(style, person, place, year),
                          attributes=attributes, objects=objects,
                          features=styled_grid(rng, prototype))


def styled_corpus(rng: np.random.Generator, prototypes: np.ndarray, pools: EntityPools,
                  n: int, prefix: str) -> list[PaintingRecord]:
    """n paintings cycling through the styles."""
    return [painting(rng, f"{prefix}{i:03d}", i % len(prototypes), prototypes[i % len(prototypes)],
                     pools) for i in range(n)]


def text_corpus(rng: np.random.Generator, pools: EntityPools, n: int,
                n_styles: int = 8) -> list[PaintingRecord]:
    """Grid-free records for filler training; every person and place of the
    pools appears at least once."""
    records = []
    for i in range(n):
        person = pools.people[i % len(pools.people)]
        place = pools.places[i % len(pools.places)]
        year = pools.year(rng)
        records.append(PaintingRecord(
            id=f"f{i:03d}",
            sentences=painting_sentences(i % n_styles, person, place, year),
            attributes={"artist": person, "school": place, "timeframe": year, "type": "scene"},
        ))
    return records


# ----------------------------------------------------------------------
# Knowledge articles and metadata queries
# ----------------------------------------------------------------------


class Lexicon:
    """A fixed Zipf-ranked content vocabulary plus words that never occur in
    any article (so queries made of them match no index term)."""

    def __init__(self, n_words: int = 20000, n_unseen: int = 200, seed: int = 0):
        words = pseudo_words(np.random.default_rng(seed), n_words + n_unseen)
        self.words = np.array(words[:n_words], dtype=object)
        self.unseen = words[n_words:]
        self.cdf = np.cumsum(zipf_probs(n_words))
        self.stopwords = np.array(sorted(default_stopwords()), dtype=object)

    def text(self, rng: np.random.Generator, n_tokens: int, stop_share: float = 0.3) -> list[str]:
        ranks = np.minimum(np.searchsorted(self.cdf, rng.random(n_tokens)), len(self.words) - 1)
        content = self.words[ranks]
        stops = self.stopwords[rng.integers(len(self.stopwords), size=n_tokens)]
        use_stop = rng.random(n_tokens) < stop_share
        return np.where(use_stop, stops, content).tolist()


def knowledge_articles(rng: np.random.Generator, lexicon: Lexicon, n: int, n_tokens: int,
                       people: list[str], places: list[str],
                       homes: dict[str, tuple[str, str]] | None = None) -> list[dict]:
    """Articles about artists: each names its artist three times and its
    school, type and timeframe once, at random places in Zipf text. With
    ``homes`` the school and timeframe are the artist's home and year.
    Returns dicts with the article fields and its metadata."""
    out = []
    for i in range(n):
        artist = people[int(rng.integers(len(people)))]
        school = places[int(rng.integers(len(places)))]
        timeframe = str(int(rng.integers(1400, 1900)))
        if homes is not None:
            school, timeframe = homes[artist]
        meta = {
            "artist": artist,
            "school": school,
            "type": PAINTING_TYPES[int(rng.integers(len(PAINTING_TYPES)))],
            "timeframe": timeframe,
        }
        tokens = lexicon.text(rng, n_tokens)
        mentions = [meta["artist"]] * 3 + [meta["school"], meta["type"], meta["timeframe"]]
        for word in mentions:
            tokens.insert(int(rng.integers(len(tokens) + 1)), word)
        out.append({"id": f"kb{i:05d}", "title": meta["artist"], "body": " ".join(tokens),
                    "meta": meta})
    return out


def metadata_queries(rng: np.random.Generator, lexicon: Lexicon, articles: list[dict],
                     n: int, degraded_share: float = 0.05,
                     keep_attribute: float = 0.7) -> list[tuple[dict, list[str], str | None]]:
    """(attributes, objects, source article id) triples.

    Most queries describe a source article: each of its metadata fields is
    known with probability ``keep_attribute``, and the detected objects are
    two Zipf words, sometimes with a blocklisted one. A share
    ``degraded_share`` are made only of in-vocabulary words that no article
    contains (they match no index term), and the same share are empty after
    normalization (no attributes; only blocklisted or stop-word objects).
    Degraded queries have no source article.
    """
    stop_words = sorted(default_stopwords())
    out = []
    for _ in range(n):
        r = rng.random()
        if r < degraded_share:
            picks = rng.integers(len(lexicon.unseen), size=4)
            attrs = dict(zip(("artist", "school", "timeframe", "type"),
                             (lexicon.unseen[int(i)] for i in picks)))
            out.append((attrs, [], None))
        elif r < 2 * degraded_share:
            if rng.random() < 0.5:
                objects = [BLOCKED_OBJECTS[int(rng.integers(len(BLOCKED_OBJECTS)))]]
            else:
                objects = [stop_words[int(rng.integers(len(stop_words)))] for _ in range(2)]
            out.append(({}, objects, None))
        else:
            article = articles[int(rng.integers(len(articles)))]
            attrs = {k: v for k, v in article["meta"].items() if rng.random() < keep_attribute}
            objects = lexicon.text(rng, 2, stop_share=0.0)
            if rng.random() < 0.3:
                objects.append(BLOCKED_OBJECTS[int(rng.integers(len(BLOCKED_OBJECTS)))])
            out.append((attrs, objects, article["id"]))
    return out
