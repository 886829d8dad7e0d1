import decimal
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegpipe import nn
from eegpipe.errors import ConfigError, DataError, NumericError
from gradcheck import gradient_check

DATA = os.path.join(os.path.dirname(__file__), "data")


def small_model(seed=0, input_dim=3, hidden=4, T=5, classes=3):
    return nn.init_model(nn.ModelConfig(input_dim, hidden, T, classes, seed=seed))


def scalar_gru_oracle(p, xs):
    """Independent step-by-step GRU forward using plain Python floats."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    H, D = p.hidden_dim, p.input_dim
    W_z, W_r, W_h = np.split(p.W, 3)
    U_z, U_r, U_h = np.split(p.U, 3)
    b_z, b_r, b_h = np.split(p.b, 3)
    h = [0.0] * H
    hs = []
    for x in xs:
        z, r, hc, h_new = [0.0] * H, [0.0] * H, [0.0] * H, [0.0] * H
        for i in range(H):
            az = sum(W_z[i][j] * x[j] for j in range(D)) + sum(
                U_z[i][j] * h[j] for j in range(H)
            ) + b_z[i]
            ar = sum(W_r[i][j] * x[j] for j in range(D)) + sum(
                U_r[i][j] * h[j] for j in range(H)
            ) + b_r[i]
            z[i] = sig(az)
            r[i] = sig(ar)
        for i in range(H):
            ac = sum(W_h[i][j] * x[j] for j in range(D)) + sum(
                U_h[i][j] * (r[j] * h[j]) for j in range(H)
            ) + b_h[i]
            hc[i] = math.tanh(ac)
            h_new[i] = z[i] * h[i] + (1.0 - z[i]) * hc[i]
        h = h_new
        hs.append(list(h))
    return hs


def exact_sigmoid(v: float) -> decimal.Decimal:
    """1 / (1 + e^-v) in 60-digit decimal arithmetic from the exact value of v."""
    with decimal.localcontext(decimal.Context(prec=60)):
        return 1 / (1 + (-decimal.Decimal(v)).exp())


def test_sigmoid_within_eps_of_exact_oracle():
    rng = np.random.default_rng(20)
    edges = [-800.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.3, 2.0, 40.0, 800.0]
    x = np.concatenate([edges, rng.normal(scale=5.0, size=2000), rng.uniform(-40, 40, 2000)])
    with np.errstate(over="raise", invalid="raise"):
        got = nn.sigmoid(np.append(x, np.nan))
    assert np.isnan(got[-1])
    got = got[:-1]
    eps = decimal.Decimal(np.finfo(float).eps)
    worst = max(abs(decimal.Decimal(g) - exact_sigmoid(v)) for v, g in zip(x.tolist(), got.tolist()))
    assert worst <= eps
    assert got[0] == 0.0 and got[len(edges) - 1] == 1.0
    # written in place, the same values
    buf = x.copy()
    assert nn.sigmoid(buf, out=buf) is buf and np.array_equal(buf, got)


def test_init_draws_gates_in_z_r_h_order():
    # one fused draw equals the per-gate draws W_z, W_r, W_h, then U_z, U_r, U_h
    cfg = nn.ModelConfig(3, 4, 5, 2, seed=17)
    m = nn.init_model(cfg)
    rng = np.random.default_rng(17)
    kw, ku = 1.0 / np.sqrt(3), 1.0 / np.sqrt(4)
    W = [rng.uniform(-kw, kw, (4, 3)) for _ in nn.GATES]
    U = [rng.uniform(-ku, ku, (4, 4)) for _ in nn.GATES]
    assert np.array_equal(m.gru.W, np.vstack(W))
    assert np.array_equal(m.gru.U, np.vstack(U))
    keys = [k for k, _ in m.gru.gate_blocks()]
    assert keys == ["W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h"]


def zero_gru(p):
    return nn.GruParams(*(np.zeros_like(arr) for _, arr in p.items()))


def cell_step(p, x_t, h_prev):
    """One feature-major gru_cell_forward step from input frames x_t [B, d]
    and states h_prev [B, H]; returns (h_t, z, r, h_cand), each [B, H]."""
    B, H = h_prev.shape
    H2 = 2 * H
    # the biased projection as gru_forward forms it, [W | b] @ [x_t; 1]
    x1 = np.hstack([x_t, np.ones((B, 1))])
    a = np.hstack([p.W, p.b[:, None]]) @ x1.T
    zr = np.empty((H2, B))
    rh, h_cand, diff, h_t = (np.empty((H, B)) for _ in range(4))
    step = (a[:H2], a[H2:], np.ascontiguousarray(h_prev.T), zr, zr[:H], zr[H:], rh, h_cand, diff,
            h_t)
    assert nn.gru_cell_forward(p.U[:H2], p.U[H2:], step) is h_t
    return h_t.T, zr[:H].T, zr[H:].T, h_cand.T


class TestGruCell:
    def test_zero_params(self):
        p = zero_gru(small_model().gru)
        x = np.array([[1.0, -2.0, 0.5]])
        h, z, r, hc = cell_step(p, x, np.zeros((1, 4)))
        assert np.all(z == 0.5) and np.all(r == 0.5)
        assert np.all(hc == 0.0) and np.all(h == 0.0)

    def test_update_gate_saturated_preserves_past(self):
        m = small_model(seed=3)
        m.gru.b[:4] = 50.0  # z block -> 1
        h_prev = np.array([[0.3, -0.8, 0.1, 0.9]])
        h, *_ = cell_step(m.gru, np.array([[1.0, 2.0, 3.0]]), h_prev)
        assert np.max(np.abs(h - h_prev)) < 1e-6

    def test_matches_scalar_oracle(self):
        m = nn.init_model(nn.ModelConfig(1, 2, 3, 2, seed=42))
        xs = np.array([[0.7], [-0.3], [1.2]])
        hs, _ = nn.gru_forward(m.gru, xs[:, None])
        want = scalar_gru_oracle(m.gru, xs.tolist())
        assert np.max(np.abs(hs[:, 0] - np.array(want))) < 1e-12

    def test_shape_mismatch(self):
        m = small_model()
        with pytest.raises(DataError, match="shape"):
            nn.gru_forward(m.gru, np.zeros((1, 1, 7)))


class TestGruForward:
    def test_single_step_equals_cell(self):
        m = small_model(seed=1)
        x = np.random.default_rng(0).normal(size=(1, 1, 3))
        hs, _ = nn.gru_forward(m.gru, x)
        h_cell, *_ = cell_step(m.gru, x[0], np.zeros((1, 4)))
        assert np.array_equal(hs[0], h_cell)

    def test_zero_params_zero_states(self):
        p = zero_gru(small_model().gru)
        hs, _ = nn.gru_forward(p, np.random.default_rng(1).normal(size=(6, 1, 3)))
        assert np.all(hs == 0.0)

    def test_order_sensitivity(self):
        m = small_model(seed=5)
        xs = np.array([[[1.0, 0.0, 0.0]], [[0.0, 2.0, 0.0]]])
        h_fwd, _ = nn.gru_forward(m.gru, xs)
        h_rev, _ = nn.gru_forward(m.gru, xs[::-1])
        assert np.max(np.abs(h_fwd[-1] - h_rev[-1])) > 1e-6

    def test_empty_sequence(self):
        m = small_model()
        with pytest.raises(DataError, match="empty"):
            nn.gru_forward(m.gru, np.zeros((0, 1, 3)))

    def test_gate_ranges_and_hidden_bounds(self):
        m = small_model(seed=9)
        xs = np.random.default_rng(4).normal(size=(20, 1, 3)) * 5
        hs, cache = nn.gru_forward(m.gru, xs)
        z, r, hc = cache.zr[:, :4], cache.zr[:, 4:], cache.h_cand
        assert np.all((z > 0) & (z < 1))
        assert np.all((r > 0) & (r < 1))
        assert np.all((hc > -1) & (hc < 1))
        assert np.all((hs > -1) & (hs < 1))

    def test_batched_matches_single(self):
        m = small_model(seed=2)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 6, 3))  # [B, T, d]
        hs_b, _ = nn.gru_forward(m.gru, X.swapaxes(0, 1))
        for b in range(4):
            hs_1, _ = nn.gru_forward(m.gru, X[b][:, None])
            assert np.max(np.abs(hs_b[:, b, :] - hs_1[:, 0])) < 1e-14


def reference_gru_forward(p, xs, proj=None):
    """Per-step GRU forward over xs [T, B, d], feature-major ([H, B] states),
    each step projecting its own input frame unless the biased projections
    proj [T, 3H, B] (W @ x_t + b) are given.

    Returns (hs [T, H, B], per-step caches (x_t [B, d], then h_prev, z, r
    and h_cand, each [H, B])).
    """
    H2 = 2 * p.hidden_dim
    h = np.zeros((p.hidden_dim, xs.shape[1]))
    hs, caches = [], []
    for t, x_t in enumerate(xs):
        a = p.W @ x_t.T + p.b[:, None] if proj is None else proj[t]
        zr = nn.sigmoid(p.U[:H2] @ h + a[:H2])
        z, r = np.split(zr, 2, axis=0)
        h_cand = np.tanh(p.U[H2:] @ (r * h) + a[H2:])
        caches.append((x_t, h, z, r, h_cand))
        h = h_cand + z * (h - h_cand)
        hs.append(h)
    return np.array(hs), caches


def reference_gru_backward(p, caches, grad_hs):
    """Per-step feature-major BPTT that accumulates the parameter gradients
    inside the time loop; grad_hs is [T, H, B].

    Returns ((dW, dU, db), grad_xs [T, B, input_dim]).
    """
    H2 = 2 * p.hidden_dim
    dW, dU, db = np.zeros_like(p.W), np.zeros_like(p.U), np.zeros_like(p.b)
    grad_xs = np.empty((len(caches), grad_hs.shape[2], p.input_dim))
    carry = np.zeros_like(grad_hs[0])
    for t in range(len(caches) - 1, -1, -1):
        x_t, h_prev, z, r, h_cand = caches[t]
        dh = grad_hs[t] + carry
        da_c = dh * (1.0 - z) * (1.0 - h_cand * h_cand)
        ds = p.U[H2:].T @ da_c
        da = np.concatenate(
            [dh * (h_prev - h_cand) * z * (1.0 - z), ds * h_prev * r * (1.0 - r), da_c], axis=0
        )
        dW += da @ x_t
        dU[:H2] += da[:H2] @ h_prev.T
        dU[H2:] += da_c @ (r * h_prev).T
        db += da.sum(axis=1)
        carry = dh * z + ds * r + p.U[:H2].T @ da[:H2]
        grad_xs[t] = (p.W.T @ da).T
    return (dW, dU, db), grad_xs


def assert_close_to(got, want, rel):
    """Max-abs difference within rel times the largest magnitude of want (exact if want is 0)."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


class TestKernelMatchesPerStepReference:
    @settings(max_examples=150, deadline=None)
    @given(T=st.integers(1, 6), B=st.integers(1, 5), d=st.integers(1, 4), H=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_forward_and_backward(self, T, B, d, H, seed):
        rng = np.random.default_rng(seed)
        p = nn.init_model(nn.ModelConfig(d, H, T, 2, seed=seed)).gru
        p.b[:] = rng.normal(size=3 * H)
        xs = rng.normal(size=(T, B, d)) * 2.0
        hs, cache = nn.gru_forward(p, xs)
        # the hoisted projection is one stacked matmul over all T steps, with
        # the bias as a last input column of ones; it may round differently
        # from a per-step W @ x_t + b, but only within the error bound of a
        # (d+1)-term dot product
        per_step = np.array([p.W @ x_t.T + p.b[:, None] for x_t in xs])
        terms = np.abs(p.W) @ np.abs(xs).transpose(0, 2, 1) + np.abs(p.b)[:, None]
        assert np.all(np.abs(cache.a - per_step) <= (d + 1) * np.finfo(float).eps * terms)
        # given the same biased projections, every step is bit-identical
        want_hs, caches = reference_gru_forward(p, xs, cache.a)
        assert np.array_equal(hs, want_hs.transpose(0, 2, 1))
        assert np.array_equal(cache.zr, np.array([np.vstack(c[2:4]) for c in caches]))
        assert np.array_equal(cache.h_cand, np.array([c[4] for c in caches]))
        grad_hs = rng.normal(size=(T, B, H))
        grads, da = nn.gru_backward(p, cache, grad_hs)
        grad_xs = da @ p.W
        want, want_xs = reference_gru_backward(p, caches, grad_hs.transpose(0, 2, 1))
        for got, ref in zip((grads.W, grads.U, grads.b, grad_xs), (*want, want_xs)):
            assert_close_to(got, ref, 1e-12)

    def test_writes_into_given_gradient_arrays(self):
        m = small_model(seed=4)
        xs = np.random.default_rng(2).normal(size=(5, 3, 3))
        _, cache = nn.gru_forward(m.gru, xs)
        grad_hs = np.random.default_rng(3).normal(size=(5, 3, 4))
        fresh, _ = nn.gru_backward(m.gru, cache, grad_hs)
        out = zero_gru(m.gru)
        got, _ = nn.gru_backward(m.gru, cache, grad_hs, out)
        assert got is out
        for (name, a), (_, b) in zip(fresh.items(), out.items()):
            assert np.array_equal(a, b), name


def model_step(model, X, y, workspaces):
    """Logits and the flat gradient of one forward and backward pass."""
    logits, cache = nn.model_forward(model, X, workspaces)
    _, grad_logits = nn.softmax_cross_entropy_batch(logits, y)
    grads = nn.FlatParams((name, np.zeros_like(a)) for name, a in model.param_items())
    nn.model_backward(model, cache, grad_logits / len(y), out=grads.model(model.config))
    return logits.copy(), grads.vector


class TestWorkspace:
    def test_reused_workspaces_equal_fresh_ones_bit_for_bit(self):
        m = small_model(seed=16)
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(20, 5, 3)), rng.integers(0, 3, 20)
        Xv, yv = rng.normal(size=(9, 5, 3)), rng.integers(0, 3, 9)
        workspaces = {}
        for epoch in range(2):
            perm = rng.permutation(20)
            for start in range(0, 20, 6):  # batches of 6, 6, 6 and 2
                sel = perm[start : start + 6]
                got = model_step(m, X[sel], y[sel], workspaces)
                want = model_step(m, X[sel], y[sel], None)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert nn.evaluate_model(m, Xv, yv, workspaces) == nn.evaluate_model(m, Xv, yv)
            m.gru.U *= 1.1  # new parameters, same workspaces
        assert sorted(workspaces) == [(5, 4, 3, 2), (5, 4, 3, 6), (5, 4, 3, 9)]

    def test_no_buffer_is_shared_across_shapes(self):
        m = small_model(seed=17)
        workspaces = {}
        for B in (1, 2, 6):
            model_step(m, np.ones((B, 5, 3)), np.zeros(B, dtype=int), workspaces)
        buffers = [[a for a in vars(ws).values() if isinstance(a, np.ndarray)]
                   for ws in workspaces.values()]
        assert len(buffers) == 3 and all(len(b) >= 20 for b in buffers)
        for i, own in enumerate(buffers):
            for other in buffers[i + 1 :]:
                assert not any(np.shares_memory(a, b) for a in own for b in other)

    def test_forward_only_workspace_holds_no_backward_buffers(self):
        m = small_model(seed=19)
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(7, 5, 3)), rng.integers(0, 3, 7)
        workspaces = {}
        nn.evaluate_model(m, X, y, workspaces)
        (ws,) = workspaces.values()
        forward = {name for name, a in vars(ws).items() if isinstance(a, np.ndarray)}
        assert ws.backward_steps is None
        assert forward == {"x", "x_steps", "x_cols", "Wb", "a", "hs", "zr", "rh", "h_cand",
                           "diff"}
        # its first backward pass builds the rest, and matches a fresh workspace
        got = model_step(m, X, y, workspaces)
        want = model_step(m, X, y, None)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert ws.backward_steps is not None and hasattr(ws, "da")
        assert nn.evaluate_model(m, X, y, workspaces) == nn.evaluate_model(m, X, y)

    def test_dense_head_reads_and_returns_the_state_layout_without_copies(self):
        m = small_model(seed=18)
        logits, (ws, v) = nn.model_forward(m, np.ones((2, 5, 3)), {})
        assert v.shape == (2, 20) and np.shares_memory(v, ws.hs)
        _, _, dv = nn.dense_backward(m.dense, v, np.ones_like(logits))
        grad_hs = nn.unflatten(dv, 5, 4)
        assert grad_hs.transpose(0, 2, 1).flags.c_contiguous  # feature-major, as gru_backward reads it


class TestGruBackward:
    def test_zero_upstream_gives_zero_grads(self):
        m = small_model(seed=7)
        xs = np.random.default_rng(0).normal(size=(5, 1, 3))
        _, caches = nn.gru_forward(m.gru, xs)
        grads, da = nn.gru_backward(m.gru, caches, np.zeros((5, 1, 4)))
        for _, arr in grads.items():
            assert np.all(arr == 0.0)
        assert da.shape == (5, 1, 12) and np.all(da == 0.0)
        assert (da @ m.gru.W).shape == xs.shape

    def test_input_gradients_match_finite_differences(self):
        m = small_model(seed=11)
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(4, 1, 3))
        w = rng.normal(size=(4, 1, 4))  # fixed projection defines a scalar loss

        def loss(x):
            hs, _ = nn.gru_forward(m.gru, x)
            return float(np.sum(hs * w))

        _, caches = nn.gru_forward(m.gru, xs)
        _, da = nn.gru_backward(m.gru, caches, w)
        grad_xs = da @ m.gru.W
        eps = 1e-6
        for t in range(4):
            for j in range(3):
                xp, xm = xs.copy(), xs.copy()
                xp[t, 0, j] += eps
                xm[t, 0, j] -= eps
                num = (loss(xp) - loss(xm)) / (2 * eps)
                assert abs(num - grad_xs[t, 0, j]) < 1e-7

    def test_length_mismatch(self):
        m = small_model()
        _, caches = nn.gru_forward(m.gru, np.zeros((3, 1, 3)))
        with pytest.raises(DataError, match="length"):
            nn.gru_backward(m.gru, caches, np.zeros((2, 1, 4)))


class TestFlatten:
    def test_concatenates_in_time_order(self):
        assert nn.flatten(np.array([[[1.0, 2.0]], [[3.0, 4.0]]])).tolist() == [[1, 2, 3, 4]]

    def test_single_step_identity(self):
        v = np.array([[[5.0, 6.0, 7.0]]])
        assert nn.flatten(v).tolist() == [[5.0, 6.0, 7.0]]

    def test_roundtrip(self):
        hs = np.random.default_rng(0).normal(size=(4, 1, 3))
        assert np.array_equal(nn.unflatten(nn.flatten(hs), 4, 3), hs)

    def test_batched_roundtrip(self):
        hs = np.random.default_rng(1).normal(size=(4, 2, 3))
        assert np.array_equal(nn.unflatten(nn.flatten(hs), 4, 3), hs)


class TestDense:
    def test_identity_weights(self):
        p = nn.DenseParams(W=np.eye(3), b=np.zeros(3))
        v = np.array([[1.5, -2.0, 0.25]])
        assert np.array_equal(nn.dense_forward(p, v), v)

    def test_bias_gradient_equals_upstream(self):
        p = nn.DenseParams(W=np.random.default_rng(0).normal(size=(3, 5)), b=np.zeros(3))
        g = np.array([0.2, -0.5, 0.9])
        _, db, _ = nn.dense_backward(p, np.random.default_rng(1).normal(size=(1, 5)), g[None])
        assert np.array_equal(db, g)

    def test_finite_difference_match(self):
        rng = np.random.default_rng(6)
        p = nn.DenseParams(W=rng.normal(size=(4, 6)), b=rng.normal(size=4))
        v = rng.normal(size=(1, 6))
        g = rng.normal(size=(1, 4))
        dW, db, dv = nn.dense_backward(p, v, g)

        def loss():
            return float(np.sum(g * nn.dense_forward(p, v)))

        eps = 1e-6
        for arr, grad in ((p.W, dW), (p.b, db)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                assert abs(num - gflat[i]) / max(abs(num), 1e-8) < 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = nn.softmax_cross_entropy_batch(np.zeros((1, 3)), [1])
        assert loss[0] == pytest.approx(math.log(3), abs=1e-12)

    def test_saturated_correct_class(self):
        logits = np.array([[1e6, 0.0, 0.0]])
        loss, grad = nn.softmax_cross_entropy_batch(logits, [0])
        assert loss[0] < 1e-9
        assert np.max(np.abs(grad)) < 1e-9

    def test_gradient_sums_to_zero(self):
        logits = np.random.default_rng(0).normal(size=(1, 5))
        _, grad = nn.softmax_cross_entropy_batch(logits, [2])
        assert abs(grad.sum()) < 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        losses, grads = nn.softmax_cross_entropy_batch(logits, labels)
        for i in range(6):
            l1, g1 = nn.softmax_cross_entropy_batch(logits[i : i + 1], labels[i : i + 1])
            assert losses[i] == pytest.approx(l1[0], abs=1e-12)
            assert np.max(np.abs(grads[i] - g1[0])) < 1e-12
            # scalar recomputation: log-sum-exp minus the true logit
            row = logits[i].tolist()
            want = math.log(sum(math.exp(v) for v in row)) - row[labels[i]]
            assert losses[i] == pytest.approx(want, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            nn.softmax_cross_entropy_batch(np.zeros((1, 3)), [5])


def flat(**arrays):
    return nn.FlatParams((name, np.asarray(a, dtype=float)) for name, a in arrays.items())


class TestOptimizers:
    def setup_method(self):
        self.cfg = nn.TrainConfig(learning_rate=0.01)
        self.params = flat(w=[1.0, -2.0])

    def test_zero_gradient_no_change(self):
        before = self.params.vector.copy()
        nn.adam_step(self.params, flat(w=np.zeros(2)), {}, 1, self.cfg)
        assert np.array_equal(self.params.vector, before)

    def test_first_step_bounded_by_lr(self):
        grads = flat(w=[3.7, -0.01])
        before = self.params.vector.copy()
        nn.adam_step(self.params, grads, {}, 1, self.cfg)
        delta = self.params.vector - before
        assert np.all(np.abs(delta) <= self.cfg.learning_rate * (1 + 1e-6))
        assert np.all(np.sign(delta) == -np.sign(grads.vector))

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            p = flat(w=[1.0, -2.0])
            state = {}
            rng = np.random.default_rng(5)
            for t in range(1, 20):
                nn.adam_step(p, flat(w=rng.normal(size=2)), state, t, self.cfg)
            runs.append(p.arrays["w"])
        assert np.array_equal(runs[0], runs[1])

    def test_non_finite_gradient_aborts_with_name(self):
        with pytest.raises(NumericError, match="'w'"):
            nn.adam_step(self.params, flat(w=[np.nan, 0.0]), {}, 1, self.cfg)

    @pytest.mark.parametrize("step", [nn.adam_step, nn.sgd_step])
    def test_non_finite_gradient_names_first_offending_array(self, step):
        m = small_model(seed=2)
        params = nn.FlatParams(m.param_items())
        grads = nn.FlatParams((name, np.zeros_like(a)) for name, a in m.param_items())
        grads.arrays["gru.U"][3, 1] = np.inf
        grads.arrays["dense.W"][0, 0] = np.nan
        before = params.vector.copy()
        with pytest.raises(NumericError, match="'gru.U'"):
            step(params, grads, {}, 1, self.cfg)
        assert np.array_equal(params.vector, before)  # nothing was updated

    def test_sgd_step(self):
        nn.sgd_step(self.params, flat(w=[1.0, 1.0]), {}, 1, self.cfg)
        assert np.allclose(self.params.arrays["w"], [0.99, -2.01])

    def test_flat_adam_is_bit_identical_to_per_array_adam(self):
        # 200 steps on three arrays of different shapes and gradient scales
        rng = np.random.default_rng(11)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 3)}
        ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = nn.FlatParams(ref.items())
        state, ref_state = {}, {}
        cfg = nn.TrainConfig(learning_rate=0.003, beta1=0.8, beta2=0.95, epsilon=1e-7)
        for t in range(1, 201):
            g = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4)
                 for name, shape in shapes.items()}
            textbook_adam(ref, g, ref_state, t, cfg)
            nn.adam_step(params, nn.FlatParams(g.items()), state, t, cfg)
            for name in shapes:
                assert np.array_equal(params.arrays[name], ref[name]), (t, name)

    def test_flat_params_locate(self):
        p = flat(a=np.zeros((2, 3)), b=np.zeros(1), c=np.zeros(4))
        assert p.vector.shape == (11,)
        assert [p.locate(i) for i in (0, 5, 6, 7, 10)] == [
            ("a", 0), ("a", 5), ("b", 0), ("c", 0), ("c", 3)]
        p.vector[6] = 9.0
        assert p.arrays["b"][0] == 9.0  # the arrays are views


def textbook_adam(params, grads, state, t, cfg):
    """Adam as a separate update per named array (Kingma and Ba 2015, Algorithm 1)."""
    for name, p in params.items():
        g = grads[name]
        m, v = state.setdefault(name, (np.zeros_like(p), np.zeros_like(p)))
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def xor_sequence_dataset(n_per_pattern=50, noise=0.05, seed=0):
    """T=2 sequences: step t one-hot encodes bit t; label is XOR."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for a in (0, 1):
        for b in (0, 1):
            for _ in range(n_per_pattern):
                seq = np.array(
                    [[1.0 - a, float(a)], [1.0 - b, float(b)]]
                ) + rng.normal(0, noise, size=(2, 2))
                X.append(seq)
                y.append(a ^ b)
    return np.array(X), np.array(y)


def test_xor_is_representable_by_construction():
    # oracle run: a brute-force random search over tiny GRU models finds a
    # parameter setting that separates the 4 canonical patterns, so the
    # training target below is attainable
    X = np.array(
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]],
         [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]
    )
    y = np.array([0, 1, 1, 0])
    found = False
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = nn.init_model(nn.ModelConfig(2, 4, 2, 2, seed=seed))
        for _, arr in m.param_items():
            arr[...] = rng.normal(0, 8.0, size=arr.shape)
        if np.array_equal(nn.predict_batch(m, X), y):
            found = True
            break
    assert found, "no random tiny GRU separates XOR; task may be ill-posed"


class TestTraining:
    def test_zero_learning_rate_keeps_initial_params(self):
        X, y = xor_sequence_dataset(5)
        cfg = nn.ModelConfig(2, 4, 2, 2, seed=1)
        initial = nn.init_model(cfg)
        tcfg = nn.TrainConfig(learning_rate=0.0, max_epochs=8, patience=3, seed=0)
        model, history = nn.train(cfg, (X, y), (X, y), tcfg)
        for (n1, a1), (n2, a2) in zip(model.param_items(), initial.param_items()):
            assert np.array_equal(a1, a2), n1
        assert len(set(history.val_loss)) == 1

    def test_xor_reaches_full_train_accuracy(self):
        X, y = xor_sequence_dataset(50, seed=3)
        cfg = nn.ModelConfig(2, 8, 2, 2, seed=0)
        tcfg = nn.TrainConfig(learning_rate=0.02, max_epochs=200, patience=200,
                              batch_size=32, seed=0)
        model, history = nn.train(cfg, (X, y), (X, y), tcfg)
        assert max(history.train_acc) == 1.0
        # all four canonical inputs classified correctly
        canon = np.array(
            [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]],
             [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]
        )
        assert nn.predict_batch(model, canon).tolist() == [0, 1, 1, 0]

    def test_early_stopping_restores_best_epoch(self):
        X, y = xor_sequence_dataset(10, seed=1)
        Xv, yv = xor_sequence_dataset(10, seed=2)
        cfg = nn.ModelConfig(2, 4, 2, 2, seed=4)
        tcfg = nn.TrainConfig(learning_rate=0.05, max_epochs=60, patience=5, seed=1)
        model, history = nn.train(cfg, (X, y), (Xv, yv), tcfg)
        final_loss, _ = nn.evaluate_model(model, Xv, yv)
        assert final_loss == pytest.approx(min(history.val_loss), abs=1e-12)

    def test_history_determinism(self):
        X, y = xor_sequence_dataset(10)
        cfg = nn.ModelConfig(2, 4, 2, 2, seed=2)
        tcfg = nn.TrainConfig(learning_rate=0.01, max_epochs=10, patience=10, seed=3)
        _, h1 = nn.train(cfg, (X, y), (X, y), tcfg)
        _, h2 = nn.train(cfg, (X, y), (X, y), tcfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_shape_validation(self):
        X, y = xor_sequence_dataset(5)
        cfg = nn.ModelConfig(3, 4, 2, 2, seed=0)
        with pytest.raises(DataError, match="shape"):
            nn.train(cfg, (X, y), (X, y), nn.TrainConfig())


def test_train_calls_adam_step_once_per_batch(monkeypatch):
    # the step is looked up in the module at call time, so a wrapper sees every step
    calls = []
    step = nn.adam_step

    def counted(params, grads, state, t, cfg):
        calls.append(t)
        return step(params, grads, state, t, cfg)

    monkeypatch.setattr(nn, "adam_step", counted)
    X, y = xor_sequence_dataset(5)  # 20 examples
    cfg = nn.ModelConfig(2, 4, 2, 2, seed=1)
    tcfg = nn.TrainConfig(batch_size=6, max_epochs=3, patience=3, seed=0)
    result = nn.train(cfg, (X, y), (X, y), tcfg)
    model, history = result
    assert len(result) == 2 and isinstance(model, nn.Model) and len(history) == 3
    assert calls == list(range(1, 3 * math.ceil(20 / 6) + 1))


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("max_epochs", 0), ("max_epochs", -1), ("patience", 0),
    ("patience", -1), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
])
def test_train_config_rejects(field, value):
    with pytest.raises(ConfigError, match=field):
        nn.TrainConfig(**{field: value})


class TestPredict:
    def test_probabilities_sum_to_one(self):
        # the probabilities the loss implies (gradient plus one-hot) lie on
        # the simplex, and the prediction is their argmax and the logits'
        m = small_model(seed=6)
        xs = np.random.default_rng(0).normal(size=(4, 5, 3))
        logits, _ = nn.model_forward(m, xs)
        labels = np.array([0, 1, 2, 0])
        _, grads = nn.softmax_cross_entropy_batch(logits, labels)
        probs = grads + np.eye(3)[labels]
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
        preds = nn.predict_batch(m, xs)
        assert np.array_equal(preds, probs.argmax(axis=1))
        assert np.array_equal(preds, logits.argmax(axis=1))

    # a gap that a softmax rounds away, and an exact tie, which goes to the
    # lowest class id
    @pytest.mark.parametrize("bias", [[0.0, 1e-17], [0.0, 2.0, 2.0]])
    def test_near_tie_goes_to_the_larger_logit(self, bias):
        m = small_model(seed=6, classes=len(bias))
        m.dense.W[:] = 0.0
        m.dense.b[:] = bias
        xs = np.random.default_rng(0).normal(size=(3, 5, 3))
        logits, _ = nn.model_forward(m, xs)
        assert logits.argmax(axis=1).tolist() == [1, 1, 1]
        assert nn.predict_batch(m, xs).tolist() == [1, 1, 1]
        _, acc = nn.evaluate_model(m, xs, np.ones(3, dtype=int))
        assert acc == 1.0

    def test_non_finite_logits_are_numeric_error(self):
        m = small_model(seed=8)
        m.dense.b[1] = np.nan
        with pytest.raises(NumericError, match="logits"):
            nn.predict_batch(m, np.zeros((2, 5, 3)))

    def test_overflow_is_numeric_error(self):
        m = small_model(seed=8)
        m.gru.W[:] = 1e308
        with pytest.raises(NumericError, match="overflow"):
            nn.predict_batch(m, np.ones((2, 5, 3)))

    def test_logit_shift_invariance(self):
        m = small_model(seed=8)
        xs = np.random.default_rng(1).normal(size=(4, 5, 3))
        y = np.array([0, 1, 2, 1])
        pred1, (loss1, acc1) = nn.predict_batch(m, xs), nn.evaluate_model(m, xs, y)
        m.dense.b += 13.7  # constant shift of all logits
        pred2, (loss2, acc2) = nn.predict_batch(m, xs), nn.evaluate_model(m, xs, y)
        assert np.array_equal(pred1, pred2)
        assert acc1 == acc2
        assert abs(loss1 - loss2) < 1e-12


class TestGradientCheck:
    def test_small_model_passes(self):
        m = small_model(seed=13)
        xs = np.random.default_rng(2).normal(size=(1, 5, 3))
        err, path = gradient_check(m, xs, [1])
        assert err < 1e-4
        assert path  # worst offender is named

    def test_halving_eps_is_sane(self):
        m = small_model(seed=14)
        xs = np.random.default_rng(3).normal(size=(1, 5, 3))
        e1, _ = gradient_check(m, xs, [0], eps=1e-4)
        e2, _ = gradient_check(m, xs, [0], eps=5e-5)
        assert e2 < max(4.0 * e1, 1e-6)

    def test_saturated_case_both_gradients_vanish(self):
        m = small_model(seed=15)
        m.dense.b[:] = 0.0
        m.dense.b[2] = 60.0  # loss for label 2 is ~0, all grads ~0
        xs = np.zeros((1, 5, 3))
        err, _ = gradient_check(m, xs, [2])
        logits, cache = nn.model_forward(m, xs)
        loss, grad = nn.softmax_cross_entropy_batch(logits, [2])
        assert loss[0] < 1e-8
        gru_g, dense_g = nn.model_backward(m, cache, grad)
        assert all(np.max(np.abs(a)) < 1e-8 for _, a in gru_g.items())

    def test_eps_range_enforced(self):
        m = small_model()
        with pytest.raises(ConfigError):
            gradient_check(m, np.zeros((1, 5, 3)), [0], eps=1e-2)


class TestPersistence:
    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        from eegpipe import dsp

        m = small_model(seed=21)
        norm = dsp.fit_normalization(np.random.default_rng(0).normal(size=(10, 15)))
        path = str(tmp_path / "ck.json")
        nn.save_checkpoint(path, m, ["A", "B", "C"], norm)
        m2, names, norm2 = nn.load_checkpoint(path)
        assert names == ["A", "B", "C"]
        for (n1, a1), (n2, a2) in zip(m.param_items(), m2.param_items()):
            assert np.array_equal(a1, a2), n1
        assert np.array_equal(norm.mean, norm2.mean)
        assert np.array_equal(norm.std, norm2.std)
        # re-saving reproduces the file byte for byte
        path2 = str(tmp_path / "ck2.json")
        nn.save_checkpoint(path2, m2, names, norm2)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_reads_checkpoint_written_before_gate_fusion(self, tmp_path):
        # checkpoint_v1.json was written by the per-gate implementation
        # (ModelConfig(2, 3, 2, 2, seed=0), biases and normalization set from
        # default_rng(7)); the probabilities are the softmax of its logits
        path = os.path.join(DATA, "checkpoint_v1.json")
        model, names, norm = nn.load_checkpoint(path)
        assert names == ["CALM", "TENSE"] and norm.n_features == 4
        ref = json.load(open(os.path.join(DATA, "checkpoint_v1_probs.json")))
        logits, _ = nn.model_forward(model, np.array(ref["input"]))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        assert np.max(np.abs(probs - np.array(ref["probs"]))) < 1e-12
        assert np.array_equal(nn.predict_batch(model, np.array(ref["input"])),
                              np.argmax(ref["probs"], axis=1))
        out = str(tmp_path / "resaved.json")
        nn.save_checkpoint(out, model, names, norm)
        assert open(out, "rb").read() == open(path, "rb").read()

    def test_history_roundtrip(self, tmp_path):
        h = nn.TrainHistory(
            train_loss=[1.0, 0.5], train_acc=[0.5, 0.75],
            val_loss=[1.1, 0.6], val_acc=[0.4, 0.7],
        )
        path = str(tmp_path / "h.csv")
        nn.save_history(h, path)
        back = nn.load_history(path)
        assert back.train_loss == h.train_loss
        assert back.val_acc == h.val_acc


def test_dataset_to_sequences():
    X = np.arange(24, dtype=float).reshape(2, 12)
    seqs = nn.dataset_to_sequences(X, 4)
    assert seqs.shape == (2, 4, 3)
    assert seqs[0, 1].tolist() == [3.0, 4.0, 5.0]
    with pytest.raises(ConfigError, match="divisible"):
        nn.dataset_to_sequences(X, 5)
    with pytest.raises(ConfigError, match="sequence length"):
        nn.dataset_to_sequences(X, 0)
