"""Greedy and beam decoding, and multi-topic description composition.

Beam details: hypotheses are compared by (total log-prob desc, length asc,
token ids lexicographic), both when pruning and when picking the final
hypothesis, so outputs are reproducible across implementations. A finished
hypothesis ends with </s> (its log-prob included) or at max_len, and keeps
competing for beam slots, which makes beam_size=1 coincide with greedy. The
first step never emits </s>, so a generated sentence has at least one token.
The final answer is the better of best-of-beam and the greedy rollout, so
beam search is never worse than greedy.
"""

from __future__ import annotations

import logging

import numpy as np

from artdesc.corpus import FeatureGrid, MaskedSentence, TOPIC_ORDER, TopicLabel
from artdesc.decoder.model import attend, decode_logits, init_state, sub_prefix, topic_embedding_index
from artdesc.errors import ConfigError
from artdesc.training import Checkpoint

logger = logging.getLogger(__name__)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max()
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum())


def _step(params, prefix, topic_idx, grid, state, prev):
    z, _ = attend(grid, state[0], params, prefix)
    state, logits = decode_logits(z, state, prev, params, prefix, topic_idx)
    return state, _log_softmax(logits.data)


def greedy_decode(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel,
                  max_len: int) -> tuple[list[int], float]:
    """Argmax decoding (lowest index wins ties). Returns (token ids, log-prob)."""
    params = ckpt.store
    prefix = sub_prefix(ckpt.config.variant, topic)
    topic_idx = topic_embedding_index(ckpt.config.variant, topic)
    end = ckpt.vocab.end
    state = init_state(grid, params, prefix)
    prev = ckpt.vocab.start
    tokens: list[int] = []
    score = 0.0
    for step in range(max_len):
        state, logp = _step(params, prefix, topic_idx, grid, state, prev)
        if step == 0:
            masked = logp.copy()
            masked[end] = -np.inf
            nxt = int(np.argmax(masked))
        else:
            nxt = int(np.argmax(logp))
        score += float(logp[nxt])
        if nxt == end:
            return tokens, score
        tokens.append(nxt)
        prev = nxt
    return tokens, score


def beam_decode(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel,
                max_len: int, beam_size: int) -> tuple[list[int], float]:
    params = ckpt.store
    prefix = sub_prefix(ckpt.config.variant, topic)
    topic_idx = topic_embedding_index(ckpt.config.variant, topic)
    vocab = ckpt.vocab
    end = vocab.end

    def sort_key(entry):
        score, tokens = entry[0], entry[1]
        return (-score, len(tokens), tokens)

    # hypothesis: (score, tokens, state, prev, done); finished hypotheses keep
    # competing for beam slots, which makes beam_size=1 exactly greedy
    state0 = init_state(grid, params, prefix)
    beam: list[tuple[float, tuple[int, ...], tuple | None, int, bool]] = [
        (0.0, (), state0, vocab.start, False)
    ]
    for step in range(max_len):
        if all(done for _, _, _, _, done in beam):
            break
        candidates: list[tuple[float, tuple[int, ...], tuple | None, int, bool]] = []
        for score, tokens, state, prev, done in beam:
            if done:
                candidates.append((score, tokens, None, prev, True))
                continue
            new_state, logp = _step(params, prefix, topic_idx, grid, state, prev)
            for w in range(len(vocab)):
                s = score + float(logp[w])
                if w == end:
                    if step > 0:  # minimum generated length is one token
                        candidates.append((s, tokens, None, w, True))
                else:
                    candidates.append((s, tokens + (w,), new_state, w, False))
        candidates.sort(key=sort_key)
        beam = candidates[:beam_size]
    finished = [(score, tokens) for score, tokens, _, _, _ in beam]
    # greedy fallback: best-of-beam is then never worse than greedy
    g_tokens, g_score = greedy_decode(ckpt, grid, topic, max_len)
    finished.append((g_score, tuple(g_tokens)))
    best = min(finished, key=sort_key)
    return list(best[1]), best[0]


def generate(
    ckpt: Checkpoint,
    grid: FeatureGrid,
    topic: TopicLabel,
    mode: str = "beam",
    beam_size: int = 5,
    max_len: int | None = None,
) -> MaskedSentence:
    """Generate one masked sentence for a topic. Deterministic given
    (checkpoint, grid, topic, mode, beam_size)."""
    if mode not in ("greedy", "beam"):
        raise ConfigError(f"unknown decode mode '{mode}'")
    if beam_size < 1:
        raise ConfigError(f"beam_size must be >= 1, got {beam_size}")
    if not isinstance(topic, TopicLabel):
        raise ConfigError(f"invalid topic {topic!r}")
    if grid.feature_dim != ckpt.config.feature_dim:
        raise ConfigError(
            f"grid feature dim {grid.feature_dim} does not match "
            f"checkpoint feature dim {ckpt.config.feature_dim}"
        )
    limit = max_len if max_len is not None else ckpt.config.max_len
    if mode == "greedy":
        token_ids, _ = greedy_decode(ckpt, grid, topic, limit)
    else:
        token_ids, _ = beam_decode(ckpt, grid, topic, limit, beam_size)
    tokens = [ckpt.vocab.decode_token(i) for i in token_ids]
    return MaskedSentence(tokens, topic)


def compose_description(
    sentences: dict[TopicLabel, MaskedSentence],
) -> list[MaskedSentence]:
    """Concatenate per-topic sentences in the fixed order content, form,
    context; missing topics are omitted with a warning."""
    out: list[MaskedSentence] = []
    for topic in TOPIC_ORDER:
        sentence = sentences.get(topic)
        if sentence is None:
            logger.warning("compose_description: no sentence for topic '%s'", topic.name.lower())
            continue
        out.append(sentence)
    return out
