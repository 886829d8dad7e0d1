import json
import math
import os

import numpy as np
import pytest

from eegpipe import nn
from eegpipe.errors import ConfigError, DataError, NumericError

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


def test_sigmoid_matches_two_sided_formula():
    x = np.array([-800.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.3, 2.0, 40.0, 800.0, np.nan])
    neg = x < 0
    want = np.where(neg, np.exp(np.minimum(x, 0)) / (1.0 + np.exp(np.minimum(x, 0))),
                    1.0 / (1.0 + np.exp(-np.maximum(x, 0))))
    want[np.isnan(x)] = np.nan
    with np.errstate(over="raise", invalid="raise"):
        got = nn.sigmoid(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert got[0] == 0.0 and got[-2] == 1.0


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


class TestGruCell:
    def test_zero_params(self):
        p = nn.GruParams.zeros_like(small_model().gru)
        x = np.array([[1.0, -2.0, 0.5]])
        h, cache = nn.gru_cell_forward(p, x, np.zeros((1, 4)))
        _, _, z, r, hc = cache
        assert np.all(z == 0.5) and np.all(r == 0.5)
        assert np.all(hc == 0.0) and np.all(h == 0.0)

    def test_update_gate_saturated_preserves_past(self):
        m = small_model(seed=3)
        m.gru.b[:4] = 50.0  # z block -> 1
        h_prev = np.array([[0.3, -0.8, 0.1, 0.9]])
        h, _ = nn.gru_cell_forward(m.gru, np.array([[1.0, 2.0, 3.0]]), h_prev)
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
            nn.gru_cell_forward(m.gru, np.zeros((1, 7)), np.zeros((1, 4)))


class TestGruForward:
    def test_single_step_equals_cell(self):
        m = small_model(seed=1)
        x = np.random.default_rng(0).normal(size=(1, 1, 3))
        hs, _ = nn.gru_forward(m.gru, x)
        h_cell, _ = nn.gru_cell_forward(m.gru, x[0], np.zeros((1, 4)))
        assert np.array_equal(hs[0], h_cell)

    def test_zero_params_zero_states(self):
        p = nn.GruParams.zeros_like(small_model().gru)
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
        hs, caches = nn.gru_forward(m.gru, xs)
        for _, _, z, r, hc in caches:
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


class TestGruBackward:
    def test_zero_upstream_gives_zero_grads(self):
        m = small_model(seed=7)
        xs = np.random.default_rng(0).normal(size=(5, 1, 3))
        _, caches = nn.gru_forward(m.gru, xs)
        grads, grad_xs = nn.gru_backward(m.gru, caches, np.zeros((5, 1, 4)))
        for _, arr in grads.items():
            assert np.all(arr == 0.0)
        assert grad_xs.shape == xs.shape

    def test_input_gradients_match_finite_differences(self):
        m = small_model(seed=11)
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(4, 1, 3))
        w = rng.normal(size=(4, 1, 4))  # fixed projection defines a scalar loss

        def loss(x):
            hs, _ = nn.gru_forward(m.gru, x)
            return float(np.sum(hs * w))

        _, caches = nn.gru_forward(m.gru, xs)
        _, grad_xs = nn.gru_backward(m.gru, caches, w)
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


class TestOptimizers:
    def setup_method(self):
        self.cfg = nn.TrainConfig(learning_rate=0.01)
        self.params = {"w": np.array([1.0, -2.0])}

    def test_zero_gradient_no_change(self):
        before = self.params["w"].copy()
        nn.adam_step(self.params, {"w": np.zeros(2)}, {}, 1, self.cfg)
        assert np.array_equal(self.params["w"], before)

    def test_first_step_bounded_by_lr(self):
        grads = {"w": np.array([3.7, -0.01])}
        before = self.params["w"].copy()
        nn.adam_step(self.params, grads, {}, 1, self.cfg)
        delta = self.params["w"] - before
        assert np.all(np.abs(delta) <= self.cfg.learning_rate * (1 + 1e-6))
        assert np.all(np.sign(delta) == -np.sign(grads["w"]))

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            p = {"w": np.array([1.0, -2.0])}
            state = {}
            rng = np.random.default_rng(5)
            for t in range(1, 20):
                nn.adam_step(p, {"w": rng.normal(size=2)}, state, t, self.cfg)
            runs.append(p["w"])
        assert np.array_equal(runs[0], runs[1])

    def test_non_finite_gradient_aborts_with_name(self):
        with pytest.raises(NumericError, match="'w'"):
            nn.adam_step(self.params, {"w": np.array([np.nan, 0.0])}, {}, 1, self.cfg)

    def test_sgd_step(self):
        nn.sgd_step(self.params, {"w": np.array([1.0, 1.0])}, {}, 1, self.cfg)
        assert np.allclose(self.params["w"], [0.99, -2.01])


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
        preds, _ = nn.predict_batch(m, X)
        if np.array_equal(preds, y):
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
        preds, probs = nn.predict_batch(model, canon)
        assert preds.tolist() == [0, 1, 1, 0]
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

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


class TestPredict:
    def test_probabilities_sum_to_one(self):
        m = small_model(seed=6)
        _, probs = nn.predict_batch(m, np.random.default_rng(0).normal(size=(4, 5, 3)))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    def test_logit_shift_invariance(self):
        m = small_model(seed=8)
        xs = np.random.default_rng(1).normal(size=(4, 5, 3))
        pred1, probs1 = nn.predict_batch(m, xs)
        m.dense.b += 13.7  # constant shift of all logits
        pred2, probs2 = nn.predict_batch(m, xs)
        assert np.array_equal(pred1, pred2)
        assert np.max(np.abs(probs1 - probs2)) < 1e-12


class TestGradientCheck:
    def test_small_model_passes(self):
        m = small_model(seed=13)
        xs = np.random.default_rng(2).normal(size=(1, 5, 3))
        err, path = nn.gradient_check(m, xs, [1])
        assert err < 1e-4
        assert path  # worst offender is named

    def test_halving_eps_is_sane(self):
        m = small_model(seed=14)
        xs = np.random.default_rng(3).normal(size=(1, 5, 3))
        e1, _ = nn.gradient_check(m, xs, [0], eps=1e-4)
        e2, _ = nn.gradient_check(m, xs, [0], eps=5e-5)
        assert e2 < max(4.0 * e1, 1e-6)

    def test_saturated_case_both_gradients_vanish(self):
        m = small_model(seed=15)
        m.dense.b[:] = 0.0
        m.dense.b[2] = 60.0  # loss for label 2 is ~0, all grads ~0
        xs = np.zeros((1, 5, 3))
        err, _ = nn.gradient_check(m, xs, [2])
        logits, cache = nn.model_forward(m, xs)
        loss, grad = nn.softmax_cross_entropy_batch(logits, [2])
        assert loss[0] < 1e-8
        gru_g, dense_g = nn.model_backward(m, cache, grad)
        assert all(np.max(np.abs(a)) < 1e-8 for _, a in gru_g.items())

    def test_eps_range_enforced(self):
        m = small_model()
        with pytest.raises(ConfigError):
            nn.gradient_check(m, np.zeros((1, 5, 3)), [0], eps=1e-2)


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
        # default_rng(7)); the probabilities are its predict_batch output
        path = os.path.join(DATA, "checkpoint_v1.json")
        model, names, norm = nn.load_checkpoint(path)
        assert names == ["CALM", "TENSE"] and norm.n_features == 4
        ref = json.load(open(os.path.join(DATA, "checkpoint_v1_probs.json")))
        _, probs = nn.predict_batch(model, np.array(ref["input"]))
        assert np.max(np.abs(probs - np.array(ref["probs"]))) < 1e-12
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
