"""Tensor op contracts, each checked against an independent oracle."""

import math

import numpy as np
import pytest

from tape_oracle import dot

from artdesc import numcore as nc
from artdesc.errors import ShapeError, StateError


def reference_softmax(xs):
    """Explicit e^x_i / sum e^x_j, written without the library path."""
    exps = [math.exp(v) for v in xs]
    total = sum(exps)
    return [e / total for e in exps]


def reference_lstm(x, h, c, w, b):
    """Scalar-loop LSTM oracle: no vectorized shortcuts."""
    hidden = len(h)
    xh = list(x) + list(h)
    u = []
    for row in range(4 * hidden):
        acc = b[row]
        for col, v in enumerate(xh):
            acc += w[row][col] * v
        u.append(acc)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_out, c_out = [], []
    for j in range(hidden):
        i = sig(u[j])
        f = sig(u[hidden + j])
        o = sig(u[2 * hidden + j])
        g = math.tanh(u[3 * hidden + j])
        cj = f * c[j] + i * g
        c_out.append(cj)
        h_out.append(o * math.tanh(cj))
    return h_out, c_out


class TestSoftmax:
    def test_symmetry(self):
        out = nc.softmax(nc.constant([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=rng.integers(1, 9))
            c = rng.normal() * 10
            a = nc.softmax(nc.constant(x)).data
            b = nc.softmax(nc.constant(x + c)).data
            assert np.max(np.abs(a - b)) < 1e-12

    def test_against_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(size=rng.integers(1, 12)) * rng.uniform(0.1, 5.0)
            got = nc.softmax(nc.constant(x)).data
            want = reference_softmax(list(x))
            assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_fixed_example(self):
        got = nc.softmax(nc.constant([1.0, 2.0, 3.0])).data
        want = reference_softmax([1.0, 2.0, 3.0])
        assert np.allclose(got, want, atol=1e-12)

    def test_sums_to_one_large_magnitudes(self):
        # Up to +-1e3 the sum stays exact; elements may underflow to 0.0.
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-1e3, 1e3, size=rng.integers(1, 20))
            out = nc.softmax(nc.constant(x)).data
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_strictly_positive_on_moderate_inputs(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            x = rng.uniform(-30, 30, size=rng.integers(1, 20))
            out = nc.softmax(nc.constant(x)).data
            assert np.all(out > 0.0) and np.all(out <= 1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            nc.softmax(nc.constant(np.zeros(0)))


class TestLstmStep:
    def _params(self, rng, xdim, hidden):
        store = nc.ParamStore()
        w = store.add("w", nc.uniform_init(rng, (4 * hidden, xdim + hidden)))
        b = store.add("b", nc.uniform_init(rng, (4 * hidden,)))
        return store, w, b

    def test_zero_params_zero_state(self):
        store = nc.ParamStore()
        w = store.add("w", np.zeros((12, 8)))
        b = store.add("b", np.zeros(12))
        x = nc.constant([0.3, -0.7, 1.1, 0.0, 2.0])
        h, c = nc.lstm_step(x, nc.constant(np.zeros(3)), nc.constant(np.zeros(3)), w, b)
        assert np.allclose(h.data, 0.0)
        assert np.allclose(c.data, 0.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            xdim = int(rng.integers(1, 5))
            hidden = int(rng.integers(1, 5))
            _, w, b = self._params(rng, xdim, hidden)
            x = rng.normal(size=xdim)
            h0 = rng.normal(size=hidden)
            c0 = rng.normal(size=hidden)
            h, c = nc.lstm_step(nc.constant(x), nc.constant(h0), nc.constant(c0), w, b)
            h_ref, c_ref = reference_lstm(
                list(x), list(h0), list(c0), w.data.tolist(), b.data.tolist()
            )
            assert np.max(np.abs(h.data - np.array(h_ref))) < 1e-10
            assert np.max(np.abs(c.data - np.array(c_ref))) < 1e-10

    def test_output_shapes(self):
        rng = np.random.default_rng(4)
        _, w, b = self._params(rng, 6, 4)
        h, c = nc.lstm_step(
            nc.constant(rng.normal(size=6)),
            nc.constant(rng.normal(size=4)),
            nc.constant(rng.normal(size=4)),
            w,
            b,
        )
        assert h.shape == (4,) and c.shape == (4,)

    def test_dimension_mismatch_names_tensor(self):
        rng = np.random.default_rng(5)
        store = nc.ParamStore()
        w = store.add("dec.lstm.w", nc.uniform_init(rng, (12, 9)))  # wrong cols
        b = store.add("dec.lstm.b", np.zeros(12))
        with pytest.raises(ShapeError, match="dec.lstm.w"):
            nc.lstm_step(
                nc.constant(np.zeros(5)), nc.constant(np.zeros(3)), nc.constant(np.zeros(3)), w, b
            )


class TestCrossEntropy:
    def test_uniform_logits(self):
        for v in (2, 5, 17):
            loss = nc.cross_entropy(nc.constant(np.zeros(v)), 0)
            assert abs(loss.item() - math.log(v)) < 1e-9

    def test_saturated_correct_prediction(self):
        logits = np.full(8, -30.0)
        logits[5] = 30.0
        assert nc.cross_entropy(nc.constant(logits), 5).item() < 1e-9

    def test_matches_softmax_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            x = rng.normal(size=n) * 3
            t = int(rng.integers(0, n))
            want = -math.log(reference_softmax(list(x))[t])
            assert abs(nc.cross_entropy(nc.constant(x), t).item() - want) < 1e-9

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            nc.cross_entropy(nc.constant([0.0, 1.0]), 2)

    def test_positive_unless_certain(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=6)
            assert nc.cross_entropy(nc.constant(x), 0).item() > 0.0


class TestBackward:
    def test_square_gradient(self):
        store = nc.ParamStore()
        w = store.add("w", np.array([3.0]))
        loss = dot(w, w)
        nc.backward(loss, store)
        assert np.allclose(w.grad, [6.0])

    def test_constant_loss_zero_grads(self):
        store = nc.ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        loss = nc.constant(5.0)
        nc.backward(loss, store)
        assert np.allclose(store["w"].grad, 0.0)

    def test_double_backward_raises(self):
        store = nc.ParamStore()
        w = store.add("w", np.array([2.0]))
        loss = dot(w, w)
        nc.backward(loss, store)
        with pytest.raises(StateError):
            nc.backward(loss, store)

    def test_nonparticipating_param_zero(self):
        store = nc.ParamStore()
        w = store.add("w", np.array([2.0]))
        frozen = store.add("frozen", np.array([1.0, 1.0]))
        nc.backward(dot(w, w), store)
        assert np.allclose(frozen.grad, 0.0)

    def test_shared_subgraph_accumulates(self):
        # loss = (w . w) + (w . w) -> grad 4w
        store = nc.ParamStore()
        w = store.add("w", np.array([1.5, -2.0]))
        d = dot(w, w)
        nc.backward(nc.add_n([d, d]), store)
        assert np.allclose(w.grad, 4.0 * w.data)


class TestAccumulateGrad:
    def test_a_constant_takes_no_gradient(self):
        c = nc.constant([[1.0, 2.0], [3.0, 4.0]])
        c.accumulate_grad(np.ones((2, 2)))
        c.accumulate_grad(np.ones(2), at=np.array([1]))
        c.accumulate_grad(np.ones((1, 2)), at=slice(0, 1))
        assert c.grad is None

    def test_repeated_rows_add_up_as_np_add_at(self):
        rng = np.random.default_rng(11)
        t = nc.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        rows = np.array([4, 1, 4, 0, 4])
        want = np.zeros((5, 3))
        for _ in range(2):  # onto a fresh gradient, then onto the one it left
            g = rng.normal(size=(5, 3))
            t.accumulate_grad(g, at=rows)
            np.add.at(want, rows, g)
            np.testing.assert_array_equal(t.grad, want)

    def test_a_slice_adds_in_place(self):
        t = nc.Tensor(np.zeros(6), requires_grad=True)
        t.accumulate_grad(np.ones(6))
        grad = t.grad
        t.accumulate_grad(np.array([1.0, 2.0]), at=slice(2, 4))
        assert t.grad is grad
        np.testing.assert_array_equal(grad, [1.0, 1.0, 2.0, 3.0, 1.0, 1.0])


class TestAttention:
    def _setup(self, rng, n_loc, feat, hidden, att):
        store = nc.ParamStore()
        store.add("w_v", nc.uniform_init(rng, (att, feat)))
        store.add("w_h", nc.uniform_init(rng, (att, hidden)))
        store.add("b1", nc.uniform_init(rng, (att,)))
        store.add("w2", nc.uniform_init(rng, (att,)))
        store.add("b2", nc.uniform_init(rng, (1,)))
        return store

    def test_weighted_sum_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n_loc = int(rng.integers(1, 7))
            feat = int(rng.integers(1, 6))
            hidden = int(rng.integers(1, 5))
            store = self._setup(rng, n_loc, feat, hidden, hidden)
            grid = rng.normal(size=(n_loc, feat))
            h = nc.constant(rng.normal(size=hidden))
            z, alpha = nc.mlp_attention(
                grid, h, store["w_v"], store["w_h"], store["b1"], store["w2"], store["b2"]
            )
            assert abs(alpha.data.sum() - 1.0) < 1e-9
            expect = np.zeros(feat)
            for i in range(n_loc):
                for j in range(feat):
                    expect[j] += alpha.data[i] * grid[i, j]
            assert np.max(np.abs(z.data - expect)) < 1e-10

    def test_single_location(self):
        rng = np.random.default_rng(9)
        store = self._setup(rng, 1, 4, 3, 3)
        grid = rng.normal(size=(1, 4))
        z, alpha = nc.mlp_attention(
            grid,
            nc.constant(rng.normal(size=3)),
            store["w_v"],
            store["w_h"],
            store["b1"],
            store["w2"],
            store["b2"],
        )
        assert np.allclose(alpha.data, [1.0])
        assert np.allclose(z.data, grid[0])

    def test_identical_rows_give_that_row(self):
        rng = np.random.default_rng(10)
        store = self._setup(rng, 5, 3, 2, 2)
        row = rng.normal(size=3)
        grid = np.tile(row, (5, 1))
        z, _ = nc.mlp_attention(
            grid,
            nc.constant(rng.normal(size=2)),
            store["w_v"],
            store["w_h"],
            store["b1"],
            store["w2"],
            store["b2"],
        )
        assert np.max(np.abs(z.data - row)) < 1e-12


def test_finite_guard_raises_instead_of_propagating():
    with pytest.raises(FloatingPointError):
        nc.constant([np.inf, 1.0])
