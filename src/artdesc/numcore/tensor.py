"""Reverse-mode autodiff over float64 numpy arrays.

Every op records a node with parents and a backward closure. Heavy layers
(LSTM cell, attention MLP, softmax cross-entropy) are single fused nodes with
hand-derived backward passes; everything is validated against central finite
differences by :mod:`artdesc.numcore.gradcheck`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from artdesc.errors import ShapeError, StateError


def _as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


def _check_finite(data: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(data)):
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

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, name={self.name!r})"


def constant(data, name: str | None = None) -> Tensor:
    """Wrap data as a graph leaf that never receives gradients."""
    return Tensor(np.array(data, dtype=np.float64), name=name)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, context: str) -> Tensor:
    t = Tensor(data, parents=parents, backward_fn=backward_fn, name=context)
    return t


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _require_1d(t: Tensor, what: str) -> None:
    if t.data.ndim != 1:
        raise ShapeError(f"{what}: expected 1-D tensor, got shape {t.shape} for '{t.name}'")


# ---------------------------------------------------------------------------
# Elementwise / reduction ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape} ('{a.name}' vs '{b.name}')")

    def bwd(out: Tensor) -> None:
        if _wants_grad(a):
            a.accumulate_grad(out.grad)
        if _wants_grad(b):
            b.accumulate_grad(out.grad)

    return _node(a.data + b.data, (a, b), bwd, "add")


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
            if _wants_grad(t):
                t.accumulate_grad(out.grad)

    total = ts[0].data.copy()
    for t in ts[1:]:
        total += t.data
    return _node(total, tuple(ts), bwd, "add_n")


def scale(a: Tensor, s: float) -> Tensor:
    def bwd(out: Tensor) -> None:
        if _wants_grad(a):
            a.accumulate_grad(out.grad * s)

    return _node(a.data * s, (a,), bwd, "scale")


def tanh_t(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bwd(out: Tensor) -> None:
        if _wants_grad(a):
            a.accumulate_grad(out.grad * (1.0 - y * y))

    return _node(y, (a,), bwd, "tanh")


def relu_t(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)

    def bwd(out: Tensor) -> None:
        if _wants_grad(a):
            a.accumulate_grad(out.grad * (a.data > 0.0))

    return _node(y, (a,), bwd, "relu")


def dot(a: Tensor, b: Tensor) -> Tensor:
    _require_1d(a, "dot")
    _require_1d(b, "dot")
    if a.shape != b.shape:
        raise ShapeError(f"dot: shape mismatch {a.shape} vs {b.shape} ('{a.name}' vs '{b.name}')")

    def bwd(out: Tensor) -> None:
        g = float(out.grad)
        if _wants_grad(a):
            a.accumulate_grad(g * b.data)
        if _wants_grad(b):
            b.accumulate_grad(g * a.data)

    return _node(np.array(a.data @ b.data), (a, b), bwd, "dot")


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------


def concat(ts: Sequence[Tensor]) -> Tensor:
    for t in ts:
        _require_1d(t, "concat")
    sizes = [t.data.shape[0] for t in ts]

    def bwd(out: Tensor) -> None:
        offset = 0
        for t, n in zip(ts, sizes):
            if _wants_grad(t):
                t.accumulate_grad(out.grad[offset : offset + n])
            offset += n

    return _node(np.concatenate([t.data for t in ts]), tuple(ts), bwd, "concat")


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    _require_1d(a, "narrow")
    if start < 0 or start + length > a.data.shape[0]:
        raise ShapeError(f"narrow: window [{start}, {start + length}) out of range for '{a.name}'")

    def bwd(out: Tensor) -> None:
        if _wants_grad(a):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start : start + length] += out.grad

    return _node(a.data[start : start + length].copy(), (a,), bwd, "narrow")


def stack_scalars(ts: Sequence[Tensor]) -> Tensor:
    for t in ts:
        if t.data.size != 1:
            raise ShapeError(f"stack_scalars: '{t.name}' has shape {t.shape}, want scalar")

    def bwd(out: Tensor) -> None:
        for i, t in enumerate(ts):
            if _wants_grad(t):
                t.accumulate_grad(np.array(out.grad[i]).reshape(t.shape))

    return _node(np.array([float(t.data.reshape(())) for t in ts]), tuple(ts), bwd, "stack_scalars")


def maximum_list(ts: Sequence[Tensor]) -> Tensor:
    """Elementwise max over same-shaped tensors; grads route to the first
    tensor attaining the max (deterministic tie-break)."""
    if not ts:
        raise ShapeError("maximum_list: empty input")
    shape = ts[0].shape
    for t in ts:
        if t.shape != shape:
            raise ShapeError(f"maximum_list: shape mismatch {shape} vs {t.shape} ('{t.name}')")
    stacked = np.stack([t.data for t in ts])
    winner = np.argmax(stacked, axis=0)  # first occurrence wins

    def bwd(out: Tensor) -> None:
        for i, t in enumerate(ts):
            if _wants_grad(t):
                t.accumulate_grad(out.grad * (winner == i))

    return _node(stacked.max(axis=0), tuple(ts), bwd, "maximum_list")


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
        if _wants_grad(w):
            w.accumulate_grad(np.outer(g, x.data))
        if _wants_grad(x):
            x.accumulate_grad(w.data.T @ g)
        if b is not None and _wants_grad(b):
            b.accumulate_grad(g)

    parents = (w, x) if b is None else (w, x, b)
    return _node(y, parents, bwd, "affine")


def vecmat(p: Tensor, e: Tensor) -> Tensor:
    """e.T @ p with e (v, d), p (v,) -> (d,). Both sides differentiable."""
    if e.data.ndim != 2:
        raise ShapeError(f"vecmat: matrix '{e.name}' must be 2-D, got {e.shape}")
    _require_1d(p, "vecmat")
    if e.data.shape[0] != p.data.shape[0]:
        raise ShapeError(f"vecmat: '{p.name}' {p.shape} incompatible with '{e.name}' {e.shape}")

    def bwd(out: Tensor) -> None:
        g = out.grad
        if _wants_grad(p):
            p.accumulate_grad(e.data @ g)
        if _wants_grad(e):
            e.accumulate_grad(np.outer(p.data, g))

    return _node(e.data.T @ p.data, (p, e), bwd, "vecmat")


def embedding(e: Tensor, idx: int) -> Tensor:
    """Row lookup e[idx] with gradient scattered back into that row."""
    if e.data.ndim != 2:
        raise ShapeError(f"embedding: table '{e.name}' must be 2-D, got {e.shape}")
    if not 0 <= idx < e.data.shape[0]:
        raise ValueError(f"embedding: index {idx} out of range for table '{e.name}' {e.shape}")

    def bwd(out: Tensor) -> None:
        if _wants_grad(e):
            if e.grad is None:
                e.grad = np.zeros_like(e.data)
            e.grad[idx] += out.grad

    return _node(e.data[idx].copy(), (e,), bwd, "embedding")


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------


def softmax_np(logits: np.ndarray) -> np.ndarray:
    """Plain-array stable softmax (max subtraction)."""
    m = logits.max()
    e = np.exp(logits - m)
    return e / e.sum()


def softmax(logits: Tensor) -> Tensor:
    """Numerically stabilized softmax of a non-empty 1-D tensor."""
    _require_1d(logits, "softmax")
    if logits.data.shape[0] == 0:
        raise ValueError("softmax: empty input")
    y = softmax_np(logits.data)

    def bwd(out: Tensor) -> None:
        if _wants_grad(logits):
            g = out.grad
            logits.accumulate_grad(y * (g - float(y @ g)))

    return _node(y, (logits,), bwd, "softmax")


def cross_entropy(logits: Tensor, target_index: int) -> Tensor:
    """-log softmax(logits)[target], fused and stabilized."""
    _require_1d(logits, "cross_entropy")
    n = logits.data.shape[0]
    if not 0 <= target_index < n:
        raise ValueError(f"cross_entropy: target index {target_index} out of range [0, {n})")
    m = logits.data.max()
    shifted = logits.data - m
    logz = float(np.log(np.exp(shifted).sum()))
    loss = logz - float(shifted[target_index])
    p = np.exp(shifted - logz)

    def bwd(out: Tensor) -> None:
        if _wants_grad(logits):
            g = p.copy()
            g[target_index] -= 1.0
            logits.accumulate_grad(float(out.grad) * g)

    return _node(np.array(loss), (logits,), bwd, "cross_entropy")


def neg_log_pick(probs: Tensor, idx: int) -> Tensor:
    """-log(probs[idx]) for probs from an upstream softmax node."""
    _require_1d(probs, "neg_log_pick")
    if not 0 <= idx < probs.data.shape[0]:
        raise ValueError(f"neg_log_pick: index {idx} out of range")
    p = float(probs.data[idx])
    if p <= 0.0:
        raise FloatingPointError("neg_log_pick: zero probability at target index")

    def bwd(out: Tensor) -> None:
        if _wants_grad(probs):
            if probs.grad is None:
                probs.grad = np.zeros_like(probs.data)
            probs.grad[idx] -= float(out.grad) / p

    return _node(np.array(-np.log(p)), (probs,), bwd, "neg_log_pick")


# ---------------------------------------------------------------------------
# Fused recurrent / attention cells
# ---------------------------------------------------------------------------


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
    if w.data.shape != (4 * hidden, xdim + hidden):
        raise ShapeError(
            f"lstm_step: weight '{w.name}' has shape {w.shape}, "
            f"expected {(4 * hidden, xdim + hidden)}"
        )
    if b.data.shape != (4 * hidden,):
        raise ShapeError(f"lstm_step: bias '{b.name}' has shape {b.shape}, expected {(4 * hidden,)}")

    xh = np.concatenate([x.data, h_prev.data])
    u = w.data @ xh + b.data
    i = _sigmoid(u[:hidden])
    f = _sigmoid(u[hidden : 2 * hidden])
    o = _sigmoid(u[2 * hidden : 3 * hidden])
    g = np.tanh(u[3 * hidden :])
    c = f * c_prev.data + i * g
    tc = np.tanh(c)
    h = o * tc

    def bwd(out: Tensor) -> None:
        gh = out.grad[:hidden]
        gc = out.grad[hidden:]
        gc_total = gc + gh * o * (1.0 - tc * tc)
        go = gh * tc
        gi = gc_total * g
        gf = gc_total * c_prev.data
        gg = gc_total * i
        gu = np.concatenate(
            [gi * i * (1.0 - i), gf * f * (1.0 - f), go * o * (1.0 - o), gg * (1.0 - g * g)]
        )
        if _wants_grad(w):
            w.accumulate_grad(np.outer(gu, xh))
        if _wants_grad(b):
            b.accumulate_grad(gu)
        gxh = w.data.T @ gu
        if _wants_grad(x):
            x.accumulate_grad(gxh[:xdim])
        if _wants_grad(h_prev):
            h_prev.accumulate_grad(gxh[xdim:])
        if _wants_grad(c_prev):
            c_prev.accumulate_grad(gc_total * f)

    hc = _node(np.concatenate([h, c]), (x, h_prev, c_prev, w, b), bwd, "lstm_step")
    return narrow(hc, 0, hidden), narrow(hc, hidden, hidden)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    grid = _as_f64(grid)
    if grid.ndim != 2:
        raise ShapeError(f"mlp_attention: grid must be 2-D, got shape {grid.shape}")
    n_loc, feat = grid.shape
    att = w_v.data.shape[0]
    if w_v.data.shape != (att, feat):
        raise ShapeError(f"mlp_attention: '{w_v.name}' {w_v.shape} vs grid feature dim {feat}")
    if w_h.data.shape != (att, h_prev.data.shape[0]):
        raise ShapeError(f"mlp_attention: '{w_h.name}' {w_h.shape} vs state {h_prev.shape}")
    if b1.data.shape != (att,) or w2.data.shape != (att,) or b2.data.shape != (1,):
        raise ShapeError(
            f"mlp_attention: bad MLP shapes b1={b1.shape} w2={w2.shape} b2={b2.shape}"
        )

    pre = grid @ w_v.data.T + (w_h.data @ h_prev.data + b1.data)  # (L, A)
    act = np.tanh(pre)
    scores = act @ w2.data + b2.data[0]  # (L,)
    alpha = softmax_np(scores)
    z = alpha @ grid  # (D,)

    def bwd(out: Tensor) -> None:
        gz = out.grad[:feat]
        galpha = out.grad[feat:]
        ga = galpha + grid @ gz
        gs = alpha * (ga - float(alpha @ ga))
        gpre = np.outer(gs, w2.data) * (1.0 - act * act)  # (L, A)
        gpre_sum = gpre.sum(axis=0)
        if _wants_grad(w2):
            w2.accumulate_grad(act.T @ gs)
        if _wants_grad(b2):
            b2.accumulate_grad(np.array([gs.sum()]))
        if _wants_grad(w_v):
            w_v.accumulate_grad(gpre.T @ grid)
        if _wants_grad(w_h):
            w_h.accumulate_grad(np.outer(gpre_sum, h_prev.data))
        if _wants_grad(b1):
            b1.accumulate_grad(gpre_sum)
        if _wants_grad(h_prev):
            h_prev.accumulate_grad(w_h.data.T @ gpre_sum)

    za = _node(
        np.concatenate([z, alpha]), (h_prev, w_v, w_h, b1, w2, b2), bwd, "mlp_attention"
    )
    return narrow(za, 0, feat), narrow(za, feat, n_loc)


# ---------------------------------------------------------------------------
# Backward driver
# ---------------------------------------------------------------------------


def backward(loss: Tensor, params: "object | None" = None) -> None:
    """Reverse-mode sweep from a scalar loss.

    Populates .grad on every participating tensor; if a ParamStore is given,
    parameters not reached by the graph get explicit zero gradients. Calling
    backward twice on the same loss node raises StateError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._done:
        raise StateError("backward already ran for this loss; rebuild the graph first")
    loss._done = True

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
        for name in params.names():
            t = params[name]
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            else:
                _check_finite(t.grad, f"gradient of '{name}'")
