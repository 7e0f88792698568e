"""Named trainable parameters plus Adam state."""

from __future__ import annotations

import numpy as np

from artdesc.errors import DataError, ShapeError, StateError
from artdesc.numcore.tensor import Tensor

# Recurrent/embedding weights start uniform in [-0.08, 0.08]; biases at zero.
INIT_SCALE = 0.08


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], scale: float = INIT_SCALE) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape)


class ParamStore:
    """Maps parameter names to leaf tensors; owns the Adam moment buffers.

    Iteration order is sorted by name everywhere so that updates are
    deterministic regardless of registration order.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise StateError(f"parameter '{name}' already registered")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)
        self._params[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise KeyError(f"no parameter named '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def gradients(self) -> dict[str, np.ndarray | None]:
        return {name: self._params[name].grad for name in self.names()}

    def clear_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: self._params[name].data for name in self.names()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
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
            self._params[name].data[...] = src
        extra = set(arrays) - set(self._params)
        if extra:
            raise StateError(f"checkpoint has unknown parameters: {sorted(extra)}")


def adam_step(
    params: ParamStore,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """Standard Adam update with bias correction; increments the step counter."""
    if lr <= 0:
        raise ValueError(f"adam_step: lr must be positive, got {lr}")
    beta1, beta2 = betas
    t = params.step + 1
    for name in params.names():
        p = params[name]
        if p.grad is None:
            raise StateError(f"adam_step: no gradient for parameter '{name}'; run backward first")
        g = p.grad
        m = params._m[name]
        v = params._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    params.step = t


def scheduled_lr(base_lr: float, epoch: int, decay: float = 0.8, every: int | None = 10) -> float:
    """Learning rate after `epoch` completed epochs: base * decay^(epoch // every).

    Defaults follow the training recipe the decoders use (5e-4 decayed by 0.8
    every 10 epochs); pass every=None for a constant rate.
    """
    if every is None or decay == 1.0:
        return base_lr
    return base_lr * decay ** (epoch // every)
