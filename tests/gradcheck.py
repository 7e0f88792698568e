"""Central-difference gradient oracle for everything built on the tape."""

from __future__ import annotations

from typing import Callable

from artdesc import numcore as nc
from artdesc.errors import DataError

# the central-difference step of the gradient gate
EPSILON = 1e-4


def grad_check(loss_fn: Callable[[], nc.Tensor], params: nc.ParamStore) -> float:
    """Max relative error between analytic gradients and central differences
    at step ``EPSILON``.

    loss_fn must rebuild the forward graph from the current parameter values
    and be deterministic; two baseline evaluations that disagree raise
    DataError. Relative error per element is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    base_a = loss_fn().item()
    base_b = loss_fn().item()
    if base_a != base_b:
        raise DataError(
            f"grad_check: loss_fn is not deterministic ({base_a!r} != {base_b!r})"
        )

    params.clear_grads()
    nc.backward(loss_fn(), params)
    analytic = {name: params[name].grad.copy() for name in params.names()}

    worst = 0.0
    for name in params.names():
        data = params[name].data
        flat = data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + EPSILON
            f_plus = loss_fn().item()
            flat[i] = orig - EPSILON
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * EPSILON)
            a = grad_flat[i]
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst
