"""ParamStore and Adam contracts."""

import math

import numpy as np
import pytest

from tape_oracle import dot

from artdesc import numcore as nc
from artdesc.errors import StateError


def test_zero_grad_leaves_params_unchanged():
    store = nc.ParamStore()
    w = store.add("w", np.array([1.0, -2.0, 3.0]))
    nc.backward(nc.constant(0.0), store)  # fills zero grads
    before = w.data.copy()
    nc.adam_step(store, lr=0.1)
    assert np.array_equal(w.data, before)
    assert store.step == 1


def test_single_scalar_first_step_closed_form():
    # Hand-coded first-step Adam: m_hat = g, v_hat = g^2,
    # update = lr * g / (|g| + eps).
    lr, eps, g = 0.1, 1e-8, 1.0
    store = nc.ParamStore()
    w = store.add("w", np.array([0.5]))
    w.grad = np.array([g])
    nc.adam_step(store, lr=lr)
    expected = 0.5 - lr * g / (abs(g) + eps)
    assert abs(w.data[0] - expected) < 1e-15


def test_two_steps_match_hand_recursion():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    grads = [0.7, -1.3]
    store = nc.ParamStore()
    w = store.add("w", np.array([0.0]))
    # hand recursion
    theta, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    store.clear_grads()
    for g in grads:
        w.grad[...] = g
        nc.adam_step(store, lr=lr)
    assert abs(w.data[0] - theta) < 1e-14
    assert store.step == 2


def test_random_trajectories_match_scalar_oracle():
    # 100 seeded scalar trajectories against an independent recursion.
    rng = np.random.default_rng(93)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for _ in range(100):
        lr = float(rng.uniform(1e-4, 1e-1))
        steps = int(rng.integers(1, 6))
        grads = rng.normal(size=steps)
        theta0 = float(rng.normal())

        theta, m, v = theta0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

        store = nc.ParamStore()
        w = store.add("w", np.array([theta0]))
        store.clear_grads()
        for g in grads:
            w.grad[...] = g
            nc.adam_step(store, lr=lr)
        assert abs(w.data[0] - theta) < 1e-12


def test_missing_gradient_is_state_error():
    store = nc.ParamStore()
    store.add("w", np.array([1.0]))
    with pytest.raises(StateError, match="gradient"):
        nc.adam_step(store, lr=0.1)


def test_lr_schedule_decays_every_ten_epochs():
    base = 5e-4
    assert nc.scheduled_lr(base, 0, 0.8, 10) == base
    assert nc.scheduled_lr(base, 9, 0.8, 10) == base
    assert abs(nc.scheduled_lr(base, 10, 0.8, 10) - 4e-4) < 1e-18
    assert abs(nc.scheduled_lr(base, 20, 0.8, 10) - 3.2e-4) < 1e-18
    assert nc.scheduled_lr(base, 35, 0.8, None) == base


def test_backward_then_adam_decreases_convex_loss():
    rng = np.random.default_rng(11)
    for trial in range(100):
        store = nc.ParamStore()
        target = rng.normal(size=4)
        w = store.add("w", rng.normal(size=4))

        def loss_fn():
            diff = nc.add_n([w, nc.constant(-target)])
            return dot(diff, diff)

        prev = loss_fn().item()
        for _ in range(5):
            store.clear_grads()
            nc.backward(loss_fn(), store)
            nc.adam_step(store, lr=1e-3)
            cur = loss_fn().item()
            assert cur < prev
            prev = cur


def test_param_store_iteration_is_name_sorted():
    store = nc.ParamStore()
    store.add("zeta", np.zeros(1))
    store.add("alpha", np.zeros(1))
    assert store.names() == ["alpha", "zeta"]
