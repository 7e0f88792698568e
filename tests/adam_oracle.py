"""The per-parameter Adam step that the block update in numcore replaced.

It is kept as the oracle for ``numcore.adam_step``: one parameter at a time,
with freshly allocated temporaries and its own moment arrays, the arithmetic
and its order are those the block update must reproduce bit for bit. It reads
only the public store interface (``names``, ``[name]``, ``.data``, ``.grad``
and ``step``), so it can stand in for ``nc.adam_step`` through monkeypatch.
Use one instance per store: the moments are keyed by parameter name.
"""

from __future__ import annotations

import numpy as np

from artdesc.errors import StateError


class OracleAdam:
    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def __call__(self, params, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"adam_step: lr must be positive, got {lr}")
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t = params.step + 1
        for name in params.names():
            p = params[name]
            if p.grad is None:
                raise StateError(f"adam_step: no gradient for parameter '{name}'; run backward first")
            g = p.grad
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        params.step = t
