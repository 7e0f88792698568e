"""Beam decoding, and greedy decoding as the beam of one.

Hypotheses are compared by (total log-prob desc, length asc, token ids
lexicographic), both when pruning and when picking the final hypothesis, so
an exact tie goes to the shorter hypothesis, then to the lower token ids;
greedy decoding ends the sentence when </s> ties the best token. A finished
hypothesis ends with </s> (its log-prob included) or at max_len, and keeps
competing for beam slots. The first step never emits </s>, so a generated
sentence has at least one token. The beam stops early once its best finished
hypothesis scores strictly more than every live one: log-probs are at most
0, so no descendant of a live hypothesis can outrank it any more, and the
answer is the one the full search would give. A beam wider than one answers
the better of best-of-beam and the greedy rollout, so beam search is never
worse than greedy.

Decoding builds no autodiff graph: it steps the tape-free
:class:`~artdesc.decoder.model.DecodeStep`, whose log-probs are bit-identical
to the per-step tape path kept as the oracle in the tests. Each beam step
steps all of its live hypotheses in one call, one row each, and each token
prefix is stepped once per decode.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from artdesc.corpus import FeatureGrid, MaskedSentence, TopicLabel
from artdesc.decoder.model import DecodeStep, decoder_input
from artdesc.errors import ConfigError
from artdesc.numcore import log_softmax_np
from artdesc.training import Checkpoint

NextLogps = Callable[[list[tuple[int, ...]]], np.ndarray]

# The most bytes a decode's working set may take. ``generate`` estimates it
# from the beam, the grid and the checkpoint's sizes, and refuses a beam over
# the cap before it allocates anything.
DECODE_BYTES_CAP = 1 << 30


def _prefix_stepper(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel) -> NextLogps:
    """Next-token log-probs after each of a list of token prefixes, one row
    per prefix. The prefixes not stepped yet are stepped in one call, each
    from its parent prefix's state, so the beam and its greedy fallback share
    every prefix both of them reach."""
    step = DecodeStep(grid, ckpt.store, *decoder_input(ckpt.config.variant, topic))
    start = ckpt.vocab.start
    # prefix -> its row's (h, c, next-token log-probs)
    stepped: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def next_logps(prefixes: list[tuple[int, ...]]) -> np.ndarray:
        new = [tokens for tokens in prefixes if tokens not in stepped]
        if new:
            parents = [stepped[tokens[:-1]] if tokens else step.state0 for tokens in new]
            h, c, logits = step(np.stack([parent[0] for parent in parents]),
                                np.stack([parent[1] for parent in parents]),
                                [tokens[-1] if tokens else start for tokens in new])
            stepped.update(zip(new, zip(h, c, log_softmax_np(logits))))
        return np.stack([stepped[tokens][2] for tokens in prefixes])

    return next_logps


def _rank_key(hyp) -> tuple:
    """(score desc, length asc, token ids) of a (score, tokens, ...) tuple."""
    return (-hyp[0], len(hyp[1]), hyp[1])


def _search(next_logps: NextLogps, end: int, max_len: int,
            beam_size: int) -> list[tuple[float, tuple[int, ...], bool]]:
    """The final beam of (score, tokens, done) hypotheses, best first."""
    beam: list[tuple[float, tuple[int, ...], bool]] = [(0.0, (), False)]
    for step in range(max_len):
        live = [(score, tokens) for score, tokens, done in beam if not done]
        # stop once the best hypothesis is finished and outscores every live one
        if not live or (beam[0][2] and beam[0][0] > live[0][0]):
            break
        finished = [hyp for hyp in beam if hyp[2]]
        scores = (np.array([score for score, _ in live])[:, None]
                  + next_logps([tokens for _, tokens in live]))
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
    return beam


def greedy_decode(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel,
                  max_len: int, *, next_logps: NextLogps | None = None) -> tuple[list[int], float]:
    """The beam of one. Returns (token ids, log-prob). ``next_logps`` shares
    the prefixes another decode of the same checkpoint, grid and topic
    already stepped."""
    if next_logps is None:
        next_logps = _prefix_stepper(ckpt, grid, topic)
    score, tokens, _ = _search(next_logps, ckpt.vocab.end, max_len, 1)[0]
    return list(tokens), score


def beam_decode(ckpt: Checkpoint, grid: FeatureGrid, topic: TopicLabel,
                max_len: int, beam_size: int) -> tuple[list[int], float]:
    next_logps = _prefix_stepper(ckpt, grid, topic)
    beam = _search(next_logps, ckpt.vocab.end, max_len, beam_size)
    if beam_size > 1:  # greedy fallback: best-of-beam is then never worse than greedy
        g_tokens, g_score = greedy_decode(ckpt, grid, topic, max_len, next_logps=next_logps)
        beam.append((g_score, tuple(g_tokens)))
    best = min(beam, key=_rank_key)
    return list(best[1]), best[0]


def generate(
    ckpt: Checkpoint,
    grid: FeatureGrid,
    topic: TopicLabel,
    beam_size: int,
) -> MaskedSentence:
    """Generate one masked sentence for a topic, of at most the
    checkpoint's ``max_len`` tokens; a beam of one is greedy decoding.
    Deterministic given (checkpoint, grid, topic, beam_size). A beam whose
    estimated working set exceeds ``DECODE_BYTES_CAP`` raises ConfigError."""
    if beam_size < 1:
        raise ConfigError(f"beam_size must be >= 1, got {beam_size}")
    if not isinstance(topic, TopicLabel):
        raise ConfigError(f"invalid topic {topic!r}")
    if grid.feature_dim != ckpt.config.feature_dim:
        raise ConfigError(
            f"grid feature dim {grid.feature_dim} does not match "
            f"checkpoint feature dim {ckpt.config.feature_dim}"
        )
    config = ckpt.config
    # a step's (beam, L, H) attention stack, then each prefix's state and logits
    need = 8 * beam_size * (grid.n_locations * config.hidden_size
                            + config.max_len * (2 * config.hidden_size + config.vocab_size))
    if need > DECODE_BYTES_CAP:
        raise ConfigError(f"beam_size {beam_size} needs about {need} bytes to decode, "
                          f"over the cap of {DECODE_BYTES_CAP} bytes")
    token_ids, _ = beam_decode(ckpt, grid, topic, config.max_len, beam_size)
    tokens = [ckpt.vocab.decode_token(i) for i in token_ids]
    return MaskedSentence(tokens, topic)

