"""Reverse-mode autodiff over float64 numpy arrays.

Every op records a node with parents and a backward closure. Heavy layers
(LSTM cell, attention MLP, softmax cross-entropy) are single fused nodes with
hand-derived backward passes; everything is validated against central finite
differences by :mod:`artdesc.numcore.gradcheck`.

A backward closure hands each parent its gradient through
:meth:`Tensor.accumulate_grad`, which alone decides whether that parent takes
one (a parameter or a node does, a constant does not) and adds it up, into
the whole array or scattered into rows or a slice.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from artdesc.errors import ShapeError, StateError


def _as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


def _check_finite(data: np.ndarray, context: str) -> None:
    if not np.isfinite(data).all():
        raise FloatingPointError(f"non-finite values produced by {context}")


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn", "_done")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[["Tensor"], None] | None = None,
    ):
        self.data = _as_f64(data)
        _check_finite(self.data, name or "tensor construction")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = parents
        self._backward_fn = backward_fn
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor '{self.name}' of shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray, at: np.ndarray | slice | None = None) -> None:
        """Add g to this tensor's gradient, or with ``at`` (rows or a slice)
        scatter it there, adding up where a row repeats. A tensor outside
        the graph, neither a parameter nor a node, takes no gradient."""
        if not (self.requires_grad or self._parents):
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        if at is None:
            self.grad += g
        else:
            np.add.at(self.grad, at, g)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, name={self.name!r})"


def constant(data, name: str | None = None) -> Tensor:
    """Wrap data as a graph leaf that never receives gradients."""
    return Tensor(np.array(data, dtype=np.float64), name=name)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, context: str) -> Tensor:
    return Tensor(data, parents=parents, backward_fn=backward_fn, name=context)


def _require_1d(t: Tensor, what: str) -> None:
    if t.data.ndim != 1:
        raise ShapeError(f"{what}: expected 1-D tensor, got shape {t.shape} for '{t.name}'")


# ---------------------------------------------------------------------------
# Elementwise / reduction ops
# ---------------------------------------------------------------------------


def add_n(ts: Sequence[Tensor]) -> Tensor:
    """Sum of same-shaped tensors as a single node (cheap batch-loss sums)."""
    if not ts:
        raise ShapeError("add_n: empty input")
    shape = ts[0].shape
    for t in ts:
        if t.shape != shape:
            raise ShapeError(f"add_n: shape mismatch {shape} vs {t.shape} ('{t.name}')")

    def bwd(out: Tensor) -> None:
        for t in ts:
            t.accumulate_grad(out.grad)

    total = ts[0].data.copy()
    for t in ts[1:]:
        total += t.data
    return _node(total, tuple(ts), bwd, "add_n")


def scale(a: Tensor, s: float) -> Tensor:
    def bwd(out: Tensor) -> None:
        a.accumulate_grad(out.grad * s)

    return _node(a.data * s, (a,), bwd, "scale")


def tanh_t(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bwd(out: Tensor) -> None:
        a.accumulate_grad(out.grad * (1.0 - y * y))

    return _node(y, (a,), bwd, "tanh")


def relu_t(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)

    def bwd(out: Tensor) -> None:
        a.accumulate_grad(out.grad * (a.data > 0.0))

    return _node(y, (a,), bwd, "relu")


def dot(a: Tensor, b: Tensor) -> Tensor:
    _require_1d(a, "dot")
    _require_1d(b, "dot")
    if a.shape != b.shape:
        raise ShapeError(f"dot: shape mismatch {a.shape} vs {b.shape} ('{a.name}' vs '{b.name}')")

    def bwd(out: Tensor) -> None:
        g = float(out.grad)
        a.accumulate_grad(g * b.data)
        b.accumulate_grad(g * a.data)

    return _node(np.array(a.data @ b.data), (a, b), bwd, "dot")


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------


def concat(ts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Tensors joined along ``axis``; their other dimensions must agree."""
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc} ({[t.name for t in ts]})") from None
    sizes = [t.data.shape[axis] for t in ts]

    def bwd(out: Tensor) -> None:
        for t, g in zip(ts, np.split(out.grad, np.cumsum(sizes[:-1]), axis=axis)):
            t.accumulate_grad(g)

    return _node(data, tuple(ts), bwd, "concat")


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    _require_1d(a, "narrow")
    if start < 0 or start + length > a.data.shape[0]:
        raise ShapeError(f"narrow: window [{start}, {start + length}) out of range for '{a.name}'")

    def bwd(out: Tensor) -> None:
        a.accumulate_grad(out.grad, at=slice(start, start + length))

    return _node(a.data[start : start + length].copy(), (a,), bwd, "narrow")


def stack_scalars(ts: Sequence[Tensor]) -> Tensor:
    for t in ts:
        if t.data.size != 1:
            raise ShapeError(f"stack_scalars: '{t.name}' has shape {t.shape}, want scalar")

    def bwd(out: Tensor) -> None:
        for i, t in enumerate(ts):
            t.accumulate_grad(np.array(out.grad[i]).reshape(t.shape))

    return _node(np.array([float(t.data.reshape(())) for t in ts]), tuple(ts), bwd, "stack_scalars")


def max_rows(x: Tensor, lengths) -> Tensor:
    """Max over the rows (time) of each sequence of x (B, T, F): the (B, F)
    result's row b reads only the first ``lengths[b]`` rows of x[b]. Each
    output's gradient goes to the first row attaining its max; rows past a
    sequence's length get none."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if (x.data.ndim != 3 or lengths.shape != x.data.shape[:1]
            or not np.all((1 <= lengths) & (lengths <= x.data.shape[1]))):
        raise ShapeError(f"max_rows: lengths {lengths.tolist()} do not fit '{x.name}' {x.shape}, "
                         f"which must be (B, T, F)")
    data = np.where((np.arange(x.data.shape[1]) < lengths[:, None])[:, :, None], x.data, -np.inf)
    winner = np.argmax(data, axis=1)[:, None, :]  # first occurrence wins

    def bwd(out: Tensor) -> None:
        g = np.zeros(data.shape)
        np.put_along_axis(g, winner, out.grad[:, None, :], axis=1)
        x.accumulate_grad(g)

    return _node(np.take_along_axis(data, winner, axis=1)[:, 0], (x,), bwd, "max_rows")


def windows(x: Tensor, n: int) -> Tensor:
    """The im2col layout of a width-``n`` convolution over the rows of x
    (T, k), or of each x[b] (B, T, k): row j of the (T-n+1, n*k) result is
    rows j..j+n-1 side by side."""
    if x.data.ndim not in (2, 3) or not 1 <= n <= x.data.shape[-2]:
        raise ShapeError(f"windows: width {n} does not fit '{x.name}' of shape {x.shape}")
    steps, k = x.data.shape[-2:]
    span = steps - n + 1

    def bwd(out: Tensor) -> None:
        g = np.zeros_like(x.data)
        for i in range(n):
            g[..., i : i + span, :] += out.grad[..., i * k : (i + 1) * k]
        x.accumulate_grad(g)

    data = np.concatenate([x.data[..., i : i + span, :] for i in range(n)], axis=-1)
    return _node(data, (x,), bwd, "windows")


# ---------------------------------------------------------------------------
# Linear algebra layers
# ---------------------------------------------------------------------------


def affine(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """w @ x (+ b). w (m, n), x (n,), b (m,)."""
    if w.data.ndim != 2:
        raise ShapeError(f"affine: weight '{w.name}' must be 2-D, got {w.shape}")
    _require_1d(x, "affine")
    if w.data.shape[1] != x.data.shape[0]:
        raise ShapeError(
            f"affine: weight '{w.name}' {w.shape} incompatible with input '{x.name}' {x.shape}"
        )
    if b is not None and b.shape != (w.data.shape[0],):
        raise ShapeError(f"affine: bias '{b.name}' {b.shape} incompatible with weight {w.shape}")
    y = w.data @ x.data
    if b is not None:
        y = y + b.data

    def bwd(out: Tensor) -> None:
        g = out.grad
        w.accumulate_grad(np.outer(g, x.data))
        x.accumulate_grad(w.data.T @ g)
        if b is not None:
            b.accumulate_grad(g)

    parents = (w, x) if b is None else (w, x, b)
    return _node(y, parents, bwd, "affine")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T (+ b): :func:`affine` applied to every row of x (T, n), or of
    x (..., n) with any leading dimensions, as one GEMM. w (m, n), b (m,)."""
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear: input '{x.name}' {x.shape} incompatible with weight "
                         f"'{w.name}' {w.shape}")
    if b is not None and b.shape != (w.data.shape[0],):
        raise ShapeError(f"linear: bias '{b.name}' {b.shape} incompatible with weight {w.shape}")
    rows = x.data.reshape(-1, x.data.shape[-1])
    y = rows @ w.data.T
    if b is not None:
        y += b.data

    def bwd(out: Tensor) -> None:
        g = out.grad.reshape(y.shape)
        w.accumulate_grad(g.T @ rows)
        x.accumulate_grad((g @ w.data).reshape(x.shape))
        if b is not None:
            b.accumulate_grad(g.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _node(y.reshape(x.data.shape[:-1] + y.shape[-1:]), parents, bwd, "linear")


def vecmat(p: Tensor, e: Tensor) -> Tensor:
    """p @ e with e (v, d) and p (v,) or (T, v). Both sides differentiable."""
    if e.data.ndim != 2:
        raise ShapeError(f"vecmat: matrix '{e.name}' must be 2-D, got {e.shape}")
    if p.data.ndim not in (1, 2) or p.data.shape[-1] != e.data.shape[0]:
        raise ShapeError(f"vecmat: '{p.name}' {p.shape} incompatible with '{e.name}' {e.shape}")

    def bwd(out: Tensor) -> None:
        g = out.grad
        p.accumulate_grad(g @ e.data.T)
        e.accumulate_grad(np.atleast_2d(p.data).T @ np.atleast_2d(g))

    return _node(p.data @ e.data, (p, e), bwd, "vecmat")


def embedding(e: Tensor, idx) -> Tensor:
    """Rows of a 2-D tensor: ``e[idx]`` is one row (k,) for an int index and
    an (n, k) block for a sequence of n ints. The gradient is scattered back
    into those rows, adding up where an index repeats."""
    if e.data.ndim != 2:
        raise ShapeError(f"embedding: table '{e.name}' must be 2-D, got {e.shape}")
    ids = np.asarray(idx, dtype=np.intp)
    if ids.size and not (0 <= ids.min() and ids.max() < e.data.shape[0]):
        raise ValueError(f"embedding: index {idx} out of range for table '{e.name}' {e.shape}")

    def bwd(out: Tensor) -> None:
        e.accumulate_grad(out.grad, at=ids)

    return _node(np.take(e.data, ids, axis=0), (e,), bwd, "embedding")


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------


def softmax_np(logits: np.ndarray) -> np.ndarray:
    """Plain-array stable softmax (max subtraction) over the last axis: of a
    vector, or of each row."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Plain-array stable log-softmax over the last axis, as :func:`softmax_np`."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis of a 1-D tensor or
    of each row of a 2-D one."""
    if logits.data.ndim not in (1, 2):
        raise ShapeError(f"softmax: expected 1-D or 2-D tensor, got {logits.shape} "
                         f"for '{logits.name}'")
    if logits.data.shape[-1] == 0:
        raise ValueError("softmax: empty input")
    y = softmax_np(logits.data)

    def bwd(out: Tensor) -> None:
        g = out.grad
        logits.accumulate_grad(y * (g - (y * g).sum(axis=-1, keepdims=True)))

    return _node(y, (logits,), bwd, "softmax")


def cross_entropy(logits: Tensor, target, mask=None) -> Tensor:
    """-log softmax(logits)[target], fused and stabilized. For (T, V) logits
    and a sequence of T targets, the sum of every row's loss. A boolean
    ``mask`` of the logits' shape keeps each row's softmax to its True
    entries: the others count as -inf and get a zero gradient."""
    if logits.data.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy: expected 1-D or 2-D logits, got {logits.shape}")
    rows = np.atleast_2d(logits.data)
    targets = np.atleast_1d(np.asarray(target, dtype=np.intp))
    n_rows, n = rows.shape
    if targets.shape != (n_rows,):
        raise ShapeError(f"cross_entropy: {targets.size} targets for {n_rows} rows of logits")
    if not (0 <= targets.min() and targets.max() < n):
        raise ValueError(f"cross_entropy: target index {target} out of range [0, {n})")
    picked = np.arange(n_rows), targets
    if mask is not None:
        mask = np.atleast_2d(mask)
        if mask.shape != rows.shape or not mask[picked].all():
            raise ValueError("cross_entropy: the mask must fit the logits and keep every target")
        rows = np.where(mask, rows, -np.inf)
    logp = log_softmax_np(rows)
    loss = -logp[picked].sum()
    p = np.exp(logp)

    def bwd(out: Tensor) -> None:
        g = p.copy()
        g[picked] -= 1.0
        logits.accumulate_grad(float(out.grad) * g.reshape(logits.shape))

    return _node(np.array(loss), (logits,), bwd, "cross_entropy")


# ---------------------------------------------------------------------------
# Fused recurrent / attention cells
# ---------------------------------------------------------------------------


def _check_lstm(what: str, xdim: int, hidden: int, w: Tensor, b: Tensor) -> None:
    if w.data.shape != (4 * hidden, xdim + hidden):
        raise ShapeError(f"{what}: weight '{w.name}' has shape {w.shape}, "
                         f"expected {(4 * hidden, xdim + hidden)}")
    if b.data.shape != (4 * hidden,):
        raise ShapeError(f"{what}: bias '{b.name}' has shape {b.shape}, expected {(4 * hidden,)}")


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM cell step. Gates i, f, o, g from w @ [x; h_prev] + b.

    w is (4H, X+H), b is (4H,). Returns (h, c), each (H,).
    """
    _require_1d(x, "lstm_step")
    _require_1d(h_prev, "lstm_step")
    _require_1d(c_prev, "lstm_step")
    hidden = h_prev.data.shape[0]
    if c_prev.data.shape[0] != hidden:
        raise ShapeError(
            f"lstm_step: cell state '{c_prev.name}' {c_prev.shape} vs hidden {h_prev.shape}"
        )
    xdim = x.data.shape[0]
    _check_lstm("lstm_step", xdim, hidden, w, b)

    xh = np.concatenate([x.data, h_prev.data])
    h, c, gates = lstm_cell_np(w.data @ xh + b.data, c_prev.data)

    def bwd(out: Tensor) -> None:
        gu, gc_prev = _lstm_bwd_np(out.grad[:hidden], out.grad[hidden:], c_prev.data, gates)
        w.accumulate_grad(np.outer(gu, xh))
        b.accumulate_grad(gu)
        gxh = w.data.T @ gu
        x.accumulate_grad(gxh[:xdim])
        h_prev.accumulate_grad(gxh[xdim:])
        c_prev.accumulate_grad(gc_prev)

    hc = _node(np.concatenate([h, c]), (x, h_prev, c_prev, w, b), bwd, "lstm_step")
    return narrow(hc, 0, hidden), narrow(hc, hidden, hidden)


def lstm_cell_np(u: np.ndarray, c_prev: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Plain-array forward of an LSTM cell given the gate pre-activations
    ``u = w @ [x; h_prev] + b``: u (4H,) with c_prev (H,), or one row per
    sequence, (n, 4H) with (n, H). Returns (h, c, gates); the gates feed
    :func:`_lstm_bwd_np`."""
    hidden = c_prev.shape[-1]
    # one tanh serves all four gates: sigmoid(u) = (1 + tanh(u/2)) / 2 for
    # i, f and o, and g = tanh(u); no exp can overflow
    act = np.tanh(u * _gate_scales(hidden)[0])
    ifo = 0.5 * act[..., : 3 * hidden] + 0.5
    c = ifo[..., hidden : 2 * hidden] * c_prev + ifo[..., :hidden] * act[..., 3 * hidden :]
    tc = np.tanh(c)
    return ifo[..., 2 * hidden :] * tc, c, (act, ifo, tc)


@functools.lru_cache(maxsize=None)
def _gate_scales(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Per gate pre-activation: the factor inside the tanh, and the
    derivative of the gate by (1 - tanh^2) times it: 1/2 and 1/4 for the
    sigmoid gates i, f, o, and 1 and 1 for g."""
    sigmoid = np.arange(4 * hidden) < 3 * hidden
    return np.where(sigmoid, 0.5, 1.0), np.where(sigmoid, 0.25, 1.0)


def _lstm_bwd_np(gh: np.ndarray, gc: np.ndarray, c_prev: np.ndarray,
                 gates: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """One cell's backward: the gradients of its gate pre-activations (4H,)
    and of c_prev, given those of its h and c (row by row for (n, H))."""
    act, ifo, tc = gates
    hidden = tc.shape[-1]
    gc_total = gc + gh * ifo[..., 2 * hidden :] * (1.0 - tc * tc)
    gu = np.empty(act.shape)
    # the gradients reaching i, f, o and g, then through their activations
    np.multiply(gc_total, act[..., 3 * hidden :], out=gu[..., :hidden])
    np.multiply(gc_total, c_prev, out=gu[..., hidden : 2 * hidden])
    np.multiply(gh, tc, out=gu[..., 2 * hidden : 3 * hidden])
    np.multiply(gc_total, ifo[..., :hidden], out=gu[..., 3 * hidden :])
    gu *= (1.0 - act * act) * _gate_scales(hidden)[1]
    return gu, gc_total * ifo[..., hidden : 2 * hidden]


def _batch_lengths(what: str, lengths, batch: int, steps: int) -> np.ndarray:
    """Each sequence's length. They must run longest first, so the
    sequences still stepping at any time are a prefix of the batch."""
    lens = np.asarray(lengths, dtype=np.intp)
    if (lens.shape != (batch,) or lens[0] != steps or lens[-1] < 1
            or np.any(lens[1:] > lens[:-1])):
        raise ShapeError(f"{what}: lengths {lens.tolist()} must fall from {steps} to >= 1 "
                         f"over {batch} sequences")
    return lens


def _rows(a: np.ndarray, n: int) -> np.ndarray:
    """The first n rows of a, with zero rows appended where a has fewer."""
    if len(a) >= n:
        return a[:n]
    return np.concatenate([a, np.zeros((n - len(a),) + a.shape[1:])])


def _packing(lens: np.ndarray, steps: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """How many sequences step at each time, and the (time, sequence)
    indices of the real positions, sequence after sequence."""
    real = np.arange(steps) < lens[:, None]  # (B, T)
    seq, time = np.nonzero(real)
    return real.sum(axis=0), (time, seq)


def lstm_seq(x: Tensor, w: Tensor, b: Tensor, lengths, reverse: bool = False) -> Tensor:
    """An LSTM over each sequence of a padded minibatch x (B, T, X), from a
    zero state, as one recurrence and one node. Sequence b is its first
    ``lengths[b]`` rows, longest first; with ``reverse`` each reads its own
    last row first. w (4H, X+H) and b (4H,) are laid out as for
    :func:`lstm_step`. The result holds the hidden state after reading each
    real row, (sum(lengths), H), sequence after sequence; a step past a
    sequence's end leaves its state alone and gets no gradient.

    The input side of the gates is one GEMM over all rows; the backward
    pass collects each step's gate gradients and forms the gradients of w
    and x with one GEMM each.
    """
    if x.data.ndim != 3 or x.data.shape[1] == 0:
        raise ShapeError(f"lstm_seq: input '{x.name}' must be a non-empty (B, T, X) tensor, "
                         f"got {x.shape}")
    batch, steps, xdim = x.data.shape
    hidden = b.data.shape[0] // 4
    _check_lstm("lstm_seq", xdim, hidden, w, b)
    active, real = _packing(_batch_lengths("lstm_seq", lengths, batch, steps), steps)
    # the input half of every step's gates in one GEMM
    ux = (x.data.reshape(-1, xdim) @ w.data[:, :xdim].T + b.data).reshape(batch, steps, -1)
    w_hT = w.data[:, xdim:].T
    hs = np.zeros((steps, batch, hidden))  # zero where a sequence has no row
    h = c = np.zeros((0, hidden))
    cache: list = [None] * steps  # per step, the (c_prev, gates) of the sequences it steps
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        n = active[t]
        h, c = _rows(h, n), _rows(c, n)
        h, c_next, gates = lstm_cell_np(ux[:n, t] + h @ w_hT, c)
        cache[t] = (c, gates)
        hs[t, :n] = h
        c = c_next

    def bwd(out: Tensor) -> None:
        g_hs = np.zeros_like(hs)
        g_hs[real] = out.grad
        w_h = w.data[:, xdim:]
        gus = np.zeros((steps, batch, 4 * hidden))
        gh = gc = np.zeros((0, hidden))
        for t in (range(steps) if reverse else range(steps - 1, -1, -1)):
            c_prev, gates = cache[t]
            n = len(c_prev)
            gu, gc = _lstm_bwd_np(g_hs[t, :n] + _rows(gh, n), _rows(gc, n), c_prev, gates)
            gus[t, :n] = gu
            gh = gu @ w_h
        gus = gus.reshape(-1, 4 * hidden)
        h_prev = np.zeros_like(hs)  # zero before each sequence's first step
        if reverse:
            h_prev[:-1] = hs[1:]
        else:
            h_prev[1:] = hs[:-1]
        xh = np.concatenate([x.data.transpose(1, 0, 2), h_prev], axis=2)
        w.accumulate_grad(gus.T @ xh.reshape(-1, xdim + hidden))
        b.accumulate_grad(gus.sum(axis=0))
        x.accumulate_grad((gus @ w.data[:, :xdim]).reshape(steps, batch, xdim).transpose(1, 0, 2))

    return _node(hs[real], (x, w, b), bwd, "lstm_seq")


def _check_attention(what: str, grid, hidden: int, w_v: Tensor, w_h: Tensor, b1: Tensor,
                     w2: Tensor, b2: Tensor, ndim: int) -> np.ndarray:
    """The grid as a float64 array of ``ndim`` dimensions, (L, D) or a
    (B, L, D) stack, once the MLP's shapes fit it."""
    grid = _as_f64(grid)
    if grid.ndim != ndim:
        raise ShapeError(f"{what}: grid must be {ndim}-D, got shape {grid.shape}")
    att = w_v.data.shape[0]
    if w_v.data.shape != (att, grid.shape[-1]):
        raise ShapeError(f"{what}: '{w_v.name}' {w_v.shape} vs grid feature dim {grid.shape[-1]}")
    if w_h.data.shape != (att, hidden):
        raise ShapeError(f"{what}: '{w_h.name}' {w_h.shape} vs state size {hidden}")
    if b1.data.shape != (att,) or w2.data.shape != (att,) or b2.data.shape != (1,):
        raise ShapeError(f"{what}: bad MLP shapes b1={b1.shape} w2={w2.shape} b2={b2.shape}")
    return grid


def mlp_attention(
    grid: np.ndarray,
    h_prev: Tensor,
    w_v: Tensor,
    w_h: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
) -> tuple[Tensor, Tensor]:
    """Soft attention over an (L, D) feature grid.

    Per-location score w2 . tanh(w_v v_i + w_h h + b1) + b2, softmax to
    weights, context = weighted sum of rows. Returns (context (D,), weights (L,)).
    The grid is a constant input; gradients flow to h_prev and the MLP params.
    """
    grid = _check_attention("mlp_attention", grid, h_prev.data.shape[0], w_v, w_h, b1, w2, b2, 2)
    n_loc, feat = grid.shape
    act = np.tanh(grid @ w_v.data.T + (w_h.data @ h_prev.data + b1.data))  # (L, A)
    alpha = softmax_np(act @ w2.data + b2.data[0])  # (L,)
    z = alpha @ grid

    def bwd(out: Tensor) -> None:
        gz = out.grad[:feat]
        galpha = out.grad[feat:]
        ga = galpha + grid @ gz
        gs = alpha * (ga - float(alpha @ ga))
        gpre = np.outer(gs, w2.data) * (1.0 - act * act)  # (L, A)
        gpre_sum = gpre.sum(axis=0)
        w2.accumulate_grad(act.T @ gs)
        b2.accumulate_grad(np.array([gs.sum()]))
        w_v.accumulate_grad(gpre.T @ grid)
        w_h.accumulate_grad(np.outer(gpre_sum, h_prev.data))
        b1.accumulate_grad(gpre_sum)
        h_prev.accumulate_grad(w_h.data.T @ gpre_sum)

    za = _node(
        np.concatenate([z, alpha]), (h_prev, w_v, w_h, b1, w2, b2), bwd, "mlp_attention"
    )
    return narrow(za, 0, feat), narrow(za, feat, n_loc)


def attend_lstm_seq(grids, x: Tensor, h0: Tensor, c0: Tensor,
                    att: tuple[Tensor, Tensor, Tensor, Tensor, Tensor],
                    lstm: tuple[Tensor, Tensor], lengths) -> Tensor:
    """A teacher-forced attention LSTM over a minibatch of sequences, as one
    recurrence and one node.

    Sequence b attends over the grid ``grids[b]`` of a (B, L, D) stack and
    starts from the state (h0[b], c0[b]), each (B, H). Its step t runs
    :func:`mlp_attention` over its grid from h_{t-1}, then :func:`lstm_step`
    on [z_t; x_t; h_{t-1}]. The padded inputs x (B, T, X) hold the step
    inputs that follow the context, and sequence b is its first
    ``lengths[b]`` steps, longest first. ``att`` is (w_v, w_h, b1, w2, b2)
    and ``lstm`` is (w, b), laid out as for those two ops. The result holds
    the real rows only, (sum(lengths), H+D), sequence after sequence: row t
    of a sequence is [h_t; z_t], the output layer's input. A step past a
    sequence's end leaves its state alone and gets no gradient.

    The forward projects every grid with one GEMM and steps the running
    sequences together. The backward pass (BPTT) collects each step's small
    gradient arrays and forms every weight gradient with one GEMM over the
    stacked steps. The grids are constant, so w_v's gradient sums the
    attention pre-activation gradients over the steps first and then takes
    one (B*L, A).T @ (B*L, D) GEMM. The softmax ignores b2, which shifts
    every score alike, so b2 gets no gradient.
    """
    w_v, w_h, b1, w2, b2 = att
    w, b = lstm
    hidden = h0.data.shape[-1]
    grids = _check_attention("attend_lstm_seq", grids, hidden, w_v, w_h, b1, w2, b2, 3)
    batch, n_loc, feat = grids.shape
    if (x.data.ndim != 3 or x.data.shape[0] != batch or x.data.shape[1] == 0
            or h0.shape != (batch, hidden) or c0.shape != (batch, hidden)):
        raise ShapeError(f"attend_lstm_seq: grids {grids.shape}, inputs '{x.name}' {x.shape}, "
                         f"state {h0.shape}/{c0.shape}")
    steps, xdim = x.data.shape[1:]
    _check_lstm("attend_lstm_seq", feat + xdim, hidden, w, b)
    active, real = _packing(_batch_lengths("attend_lstm_seq", lengths, batch, steps), steps)

    n_att = w_v.data.shape[0]
    proj = (grids.reshape(-1, feat) @ w_v.data.T + b1.data).reshape(batch, n_loc, n_att)
    w_hT, wT = w_h.data.T, w.data.T
    acts = np.zeros((steps, batch, n_loc, n_att))
    alphas = np.zeros((steps, batch, n_loc))
    # row t is [z_t; x_t; h_{t-1}], the LSTM input of step t; the last row
    # only holds the final states
    xhs = np.zeros((steps + 1, batch, feat + xdim + hidden))
    xhs[:steps, :, feat : feat + xdim] = x.data.transpose(1, 0, 2)
    xhs[0, :, feat + xdim :] = h0.data
    cache = []
    c = c0.data
    for t in range(steps):
        n = active[t]
        xh = xhs[t, :n]
        act = np.tanh(proj[:n] + (xh[:, feat + xdim :] @ w_hT)[:, None, :], out=acts[t, :n])
        scores = act @ w2.data  # b2 shifts every score alike, so the softmax drops it
        alphas[t, :n] = alpha = softmax_np(scores)
        np.matmul(alpha[:, None, :], grids[:n], out=xh[:, None, :feat])
        h, c_next, gates = lstm_cell_np(xh @ wT + b.data, c[:n])
        cache.append((c[:n], gates))
        xhs[t + 1, :n, feat + xdim :] = h
        c = c_next
    xhs, h_out = xhs[:steps], xhs[1:, :, feat + xdim :]
    out = np.concatenate([h_out, xhs[:, :, :feat]], axis=2)  # rows [h_t; z_t]

    def bwd(node: Tensor) -> None:
        g_out = np.zeros_like(out)
        g_out[real] = node.grad
        dact = 1.0 - acts * acts
        gus = np.zeros((steps, batch, 4 * hidden))
        gss = np.zeros((steps, batch, n_loc))  # score gradients
        gps = np.zeros((steps, batch, n_att))  # attention pre-activation sums
        gh = gc = np.zeros((0, hidden))
        for t in range(steps - 1, -1, -1):
            c_prev, gates = cache[t]
            n = len(c_prev)
            gu, gc = _lstm_bwd_np(g_out[t, :n, :hidden] + _rows(gh, n), _rows(gc, n),
                                  c_prev, gates)
            gus[t, :n] = gu
            gxh = gu @ w.data
            gz = g_out[t, :n, hidden:] + gxh[:, :feat]
            ga = (grids[:n] @ gz[:, :, None])[:, :, 0]
            alpha = alphas[t, :n]
            gs = np.multiply(alpha, ga - (alpha * ga).sum(axis=1, keepdims=True), out=gss[t, :n])
            gp = np.multiply(w2.data, (gs[:, None, :] @ dact[t, :n])[:, 0], out=gps[t, :n])
            gh = gxh[:, feat + xdim :] + gp @ w_h.data
        gus, gps = gus.reshape(-1, 4 * hidden), gps.reshape(-1, n_att)
        w_v.accumulate_grad((w2.data * np.einsum("tbl,tbla->bla", gss, dact)).reshape(-1, n_att).T
                            @ grids.reshape(-1, feat))
        w_h.accumulate_grad(gps.T @ xhs[:, :, feat + xdim :].reshape(-1, hidden))
        b1.accumulate_grad(gps.sum(axis=0))
        w2.accumulate_grad(gss.reshape(-1) @ acts.reshape(-1, n_att))
        w.accumulate_grad(gus.T @ xhs.reshape(-1, xhs.shape[2]))
        b.accumulate_grad(gus.sum(axis=0))
        x.accumulate_grad((gus @ w.data[:, feat : feat + xdim]).reshape(steps, batch, xdim)
                          .transpose(1, 0, 2))
        h0.accumulate_grad(gh)
        c0.accumulate_grad(gc)

    return _node(out[real], (x, h0, c0, w_v, w_h, b1, w2, b2, w, b), bwd, "attend_lstm_seq")


# ---------------------------------------------------------------------------
# Backward driver
# ---------------------------------------------------------------------------


def backward(loss: Tensor, params: "object | None" = None) -> None:
    """Reverse-mode sweep from a scalar loss.

    Populates .grad on every participating tensor. If a ParamStore is given,
    each parameter's gradient accumulates in place in the store's gradient
    row, so a parameter the graph does not reach keeps a zero gradient, and a
    non-finite gradient raises FloatingPointError naming its parameter.
    Calling backward twice on the same loss node raises StateError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._done:
        raise StateError("backward already ran for this loss; rebuild the graph first")
    loss._done = True
    if params is not None:
        params._packed()

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node)

    if params is not None:
        params.check_grads()
