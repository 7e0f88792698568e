"""Greedy and beam decoding, and multi-topic description composition.

Beam details: hypotheses are compared by (total log-prob desc, length asc,
token ids lexicographic), both when pruning and when picking the final
hypothesis, so outputs are reproducible across implementations. A finished
hypothesis ends with </s> (its log-prob included) or at max_len, and keeps
competing for beam slots, which makes beam_size=1 coincide with greedy. The
first step never emits </s>, so a generated sentence has at least one token.
The final answer is the better of best-of-beam and the greedy rollout, so
beam search is never worse than greedy.

Decoding builds no autodiff graph: it steps the tape-free
:class:`~artdesc.decoder.model.DecodeStep`, whose log-probs are bit-identical
to the training forward's, and steps each token prefix once per decode.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from artdesc.corpus import FeatureGrid, MaskedSentence, TOPIC_ORDER, TopicLabel
from artdesc.decoder.model import DecodeStep, sub_prefix, topic_embedding_index
from artdesc.errors import ConfigError
from artdesc.training import Checkpoint

logger = logging.getLogger(__name__)

NextLogp = Callable[[tuple[int, ...]], np.ndarray]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max()
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum())


def _prefix_stepper(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel) -> NextLogp:
    """Next-token log-probs after a token prefix. Each prefix is stepped
    once, from its parent prefix's state, so the beam and its greedy
    fallback share every prefix both of them reach."""
    variant = ckpt.config.variant
    step = DecodeStep(grid, ckpt.store, sub_prefix(variant, topic),
                      topic_embedding_index(variant, topic))
    start = ckpt.vocab.start
    stepped: dict[tuple[int, ...], tuple[tuple[np.ndarray, np.ndarray], np.ndarray]] = {}

    def next_logp(tokens: tuple[int, ...]) -> np.ndarray:
        hit = stepped.get(tokens)
        if hit is None:
            if tokens:
                state, logits = step(stepped[tokens[:-1]][0], tokens[-1])
            else:
                state, logits = step(step.state0, start)
            hit = stepped[tokens] = (state, _log_softmax(logits))
        return hit[1]

    return next_logp


def _rank_key(hyp) -> tuple:
    """(score desc, length asc, token ids) of a (score, tokens, ...) tuple."""
    return (-hyp[0], len(hyp[1]), hyp[1])


def greedy_decode(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel,
                  max_len: int, *, next_logp: NextLogp | None = None) -> tuple[list[int], float]:
    """Argmax decoding (lowest index wins ties). Returns (token ids, log-prob).
    ``next_logp`` shares the prefixes another decode of the same checkpoint,
    grid and topic already stepped."""
    if next_logp is None:
        next_logp = _prefix_stepper(ckpt, grid, topic)
    end = ckpt.vocab.end
    tokens: tuple[int, ...] = ()
    score = 0.0
    for step in range(max_len):
        logp = next_logp(tokens)
        if step == 0:
            masked = logp.copy()
            masked[end] = -np.inf
            nxt = int(np.argmax(masked))
        else:
            nxt = int(np.argmax(logp))
        score += float(logp[nxt])
        if nxt == end:
            break
        tokens += (nxt,)
    return list(tokens), score


def beam_decode(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel,
                max_len: int, beam_size: int) -> tuple[list[int], float]:
    next_logp = _prefix_stepper(ckpt, grid, topic)
    end = ckpt.vocab.end
    # hypothesis: (score, tokens, done); finished hypotheses keep competing
    # for beam slots, which makes beam_size=1 exactly greedy
    beam: list[tuple[float, tuple[int, ...], bool]] = [(0.0, (), False)]
    for step in range(max_len):
        live = [(score, tokens) for score, tokens, done in beam if not done]
        if not live:
            break
        finished = [hyp for hyp in beam if hyp[2]]
        scores = np.stack([score + next_logp(tokens) for score, tokens in live])
        if step == 0:
            scores[:, end] = -np.inf  # minimum generated length is one token
        # a survivor scores at least the beam_size-th best score; every
        # candidate tied at that score goes to the exact sort
        pool = np.concatenate([[hyp[0] for hyp in finished], scores.ravel()])
        k = min(beam_size, pool.size) - 1
        cut = -np.partition(-pool, k)[k]
        candidates = [hyp for hyp in finished if hyp[0] >= cut]
        rows, words = np.nonzero(scores >= cut)
        for i, w in zip(rows.tolist(), words.tolist()):
            tokens = live[i][1]
            if w != end:
                candidates.append((float(scores[i, w]), tokens + (w,), False))
            elif step > 0:
                candidates.append((float(scores[i, w]), tokens, True))
        candidates.sort(key=_rank_key)
        beam = candidates[:beam_size]
    # greedy fallback: best-of-beam is then never worse than greedy
    g_tokens, g_score = greedy_decode(ckpt, grid, topic, max_len, next_logp=next_logp)
    best = min([*beam, (g_score, tuple(g_tokens))], key=_rank_key)
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
