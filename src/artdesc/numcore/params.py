"""Named trainable parameters in one block, plus Adam."""

from __future__ import annotations

import numpy as np

from artdesc.errors import DataError, ShapeError, StateError
from artdesc.numcore.tensor import Tensor, _check_finite

# Recurrent/embedding weights start uniform in [-0.08, 0.08]; biases at zero.
INIT_SCALE = 0.08
# Adam's standard moment decays and denominator term (Kingma & Ba, 2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Elements per Adam pass: the chunk's slices of the four rows and the two
# scratch vectors (6 x 256 KiB) stay in L2 across its 14 ufunc passes.
ADAM_CHUNK = 1 << 15


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


class ParamStore:
    """Maps parameter names to leaf tensors; owns the parameter block.

    Iteration order is sorted by name everywhere so that updates are
    deterministic regardless of registration order.

    The first ``clear_grads``, ``backward`` or ``adam_step`` moves every
    parameter, and any ``.grad`` a caller assigned, into one float64 block of
    four rows: data, gradient and the Adam moments m and v, each parameter at
    the same offset in every row. From then on each parameter's ``.data`` and
    ``.grad`` are reshaped views of its slice, and no parameter may be added;
    rebinding either raises StateError, because Adam would otherwise train a
    copy the model no longer reads.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._block: np.ndarray | None = None
        # (name, tensor, data view, grad view), sorted by name, once packed
        self._views: list[tuple[str, Tensor, np.ndarray, np.ndarray]] = []
        self._scratch: np.ndarray | None = None
        self.step = 0

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise StateError(f"parameter '{name}' already registered")
        if self._block is not None:
            raise StateError(f"parameter '{name}' added after the parameter block was built")
        t = Tensor(data, requires_grad=True, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise KeyError(f"no parameter named '{name}'") from None

    def names(self) -> list[str]:
        return sorted(self._params)

    def _packed(self) -> np.ndarray:
        """The (4, n) block, built on first use; checks that no ``.data`` or
        ``.grad`` was rebound since."""
        if self._block is None:
            names = self.names()
            for name in names:
                t = self._params[name]
                if t.grad is not None and np.shape(t.grad) != t.shape:
                    raise ShapeError(f"parameter '{name}': gradient shape {np.shape(t.grad)} "
                                     f"vs expected {t.shape}")
            n = sum(self._params[name].data.size for name in names)
            # np.zeros maps fresh zero pages: the gradient and moment rows
            # cost no memory until they are written
            block = np.zeros((4, n))
            offset = 0
            for name in names:
                t = self._params[name]
                end = offset + t.data.size
                data = block[0, offset:end].reshape(t.shape)
                grad = block[1, offset:end].reshape(t.shape)
                data[...] = t.data
                if t.grad is not None:
                    grad[...] = t.grad
                t.data, t.grad = data, grad  # the old arrays are freed as they move in
                self._views.append((name, t, data, grad))
                offset = end
            self._block = block
            self._scratch = np.empty((2, min(n, ADAM_CHUNK)))
        for name, t, data, grad in self._views:
            if t.data is not data or t.grad is not grad:
                which = ".data" if t.data is not data else ".grad"
                raise StateError(f"parameter '{name}': {which} was rebound away from its block view")
        return self._block

    def clear_grads(self) -> None:
        self._packed()[1].fill(0.0)

    def check_grads(self) -> None:
        """Raise FloatingPointError naming the first parameter, by name,
        whose gradient holds a non-finite value."""
        if np.isfinite(self._packed()[1]).all():
            return
        for name, _, _, grad in self._views:
            _check_finite(grad, f"gradient of '{name}'")

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: self._params[name].data for name in self.names()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopts each checkpoint array as its parameter's ``.data`` once its
        shape and values check out; the store's own arrays only give the
        shapes, so a load writes no parameter twice. The arrays may be
        read-only views of the checkpoint file: training copies them into
        the parameter block, and nothing else writes a parameter."""
        for name in self.names():
            src = arrays.get(name)
            if src is None:
                raise StateError(f"checkpoint is missing parameter '{name}'")
            if src.shape != self._params[name].data.shape:
                raise ShapeError(
                    f"parameter '{name}': checkpoint shape {src.shape} "
                    f"vs expected {self._params[name].data.shape}"
                )
            if not np.all(np.isfinite(src)):
                raise DataError(f"parameter '{name}': checkpoint holds non-finite values")
            self._params[name].data = np.asarray(src, np.float64)
        extra = set(arrays) - set(self._params)
        if extra:
            raise StateError(f"checkpoint has unknown parameters: {sorted(extra)}")


def adam_step(params: ParamStore, lr: float) -> None:
    """Standard Adam update with bias correction at ``BETA1``, ``BETA2`` and
    ``EPS``; increments the step counter.

    One in-place pass over the parameter block, a chunk at a time (Kingma &
    Ba, 2015). Each element sees the operations of the textbook update in
    the same order (m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g^2;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) with c = 1 - b^t), so neither the
    chunking nor the block changes a bit of the result.
    """
    if lr <= 0:
        raise ValueError(f"adam_step: lr must be positive, got {lr}")
    beta1, beta2, eps = BETA1, BETA2, EPS
    if params._block is None and any(params[name].grad is None for name in params.names()):
        raise StateError("adam_step: a parameter has no gradient; run backward first")
    t = params.step + 1
    data, grad, m, v = params._packed()
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for start in range(0, data.size, ADAM_CHUNK):
        end = min(start + ADAM_CHUNK, data.size)
        g, mc, vc = grad[start:end], m[start:end], v[start:end]
        x, y = params._scratch[:, : end - start]
        mc *= beta1
        np.multiply(g, 1.0 - beta1, out=x)
        mc += x
        vc *= beta2
        np.multiply(g, g, out=x)
        x *= 1.0 - beta2
        vc += x
        np.divide(mc, c1, out=x)
        x *= lr
        np.divide(vc, c2, out=y)
        np.sqrt(y, out=y)
        y += eps
        x /= y
        data[start:end] -= x
    params.step = t


def scheduled_lr(base_lr: float, epoch: int, decay: float, every: int | None) -> float:
    """Learning rate after `epoch` completed epochs: base * decay^(epoch // every);
    every=None holds the rate constant."""
    if every is None or decay == 1.0:
        return base_lr
    return base_lr * decay ** (epoch // every)
