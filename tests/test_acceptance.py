"""Acceptance suite: one test per release criterion, one printed verdict each.

Criterion 8 needs an externally supplied featured CSV and is skipped unless
the EEGPIPE_REAL_FEATURES environment variable points at one.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from eegpipe import baselines, dataio, dsp, evaluation, nn
from eegpipe.cli import main
from gradcheck import gradient_check


def verdict(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def run(*argv):
    return main(list(argv))


# --- shared end-to-end synthetic run (criteria 4, 5, 7) ---------------------


def run_chain(root):
    """synth -> featurize -> split -> train -> evaluate -> compare, seed 1."""
    raw = os.path.join(root, "raw")
    feats = os.path.join(root, "features.csv")
    splits = os.path.join(root, "splits")
    rundir = os.path.join(root, "run")
    evald = os.path.join(root, "eval")
    cmp_dir = os.path.join(root, "cmp")
    t0 = time.monotonic()
    assert run("synth", "--per-class", "100", "--seed", "1", "--out", raw) == 0
    assert run("featurize", "--seed", "1",
               "--manifest", os.path.join(raw, "manifest.csv"), "--out", feats) == 0
    assert run("split", "--seed", "1", "--input", feats,
               "--fractions", "0.6,0.2,0.2", "--out", splits) == 0
    assert run("train", "--seed", "1",
               "--train", os.path.join(splits, "train.csv"),
               "--val", os.path.join(splits, "val.csv"), "--out", rundir) == 0
    assert run("evaluate", "--seed", "1",
               "--checkpoint", os.path.join(rundir, "checkpoint.json"),
               "--test", os.path.join(splits, "test.csv"), "--out", evald) == 0
    elapsed = time.monotonic() - t0
    assert run("compare", "--seed", "1", "--input", feats, "--out", cmp_dir) == 0
    return {
        "elapsed": elapsed,
        "metrics": os.path.join(evald, "metrics.json"),
        "history": os.path.join(rundir, "history.csv"),
        "cmp": cmp_dir,
    }


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    return run_chain(str(tmp_path_factory.mktemp("accept")))


# --- criterion 1: gradient-check suite ---------------------------------------


def test_criterion_1_gradient_check():
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(123)
    for seed in range(10):
        model = nn.init_model(nn.ModelConfig(3, 4, 5, 3, seed=seed))
        xs = rng.normal(size=(5, 3))
        label = int(rng.integers(0, 3))
        err, _ = gradient_check(model, xs[None], [label], eps=1e-5)
        assert err < 1e-4, f"seed {seed}: relative error {err}"
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    verdict(1, worst < 1e-4 and elapsed < 10.0,
            f"10-seed BPTT gradient check, max rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: GRU forward oracle -----------------------------------------


def test_criterion_2_gru_scalar_oracle():
    model = nn.init_model(nn.ModelConfig(1, 2, 3, 2, seed=7))
    W_z, W_r, W_h = np.split(model.gru.W, 3)  # gate blocks in [z, r, h] order
    U_z, U_r, U_h = np.split(model.gru.U, 3)
    b_z, b_r, b_h = np.split(model.gru.b, 3)
    xs = [[0.4], [-1.1], [0.9]]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0, 0.0]
    want = []
    for x in xs:
        z = [sig(W_z[i][0] * x[0] + sum(U_z[i][j] * h[j] for j in range(2))
                 + b_z[i]) for i in range(2)]
        r = [sig(W_r[i][0] * x[0] + sum(U_r[i][j] * h[j] for j in range(2))
                 + b_r[i]) for i in range(2)]
        hc = [math.tanh(W_h[i][0] * x[0]
                        + sum(U_h[i][j] * (r[j] * h[j]) for j in range(2))
                        + b_h[i]) for i in range(2)]
        h = [z[i] * h[i] + (1.0 - z[i]) * hc[i] for i in range(2)]
        want.append(list(h))
    hs, _ = nn.gru_forward(model.gru, np.array(xs)[:, None], nn.GruScratch(), False)
    err = float(np.max(np.abs(hs[:, 0] - np.array(want))))
    verdict(2, err < 1e-12, f"forward pass vs scalar recomputation, max abs err {err:.2e}")


# --- criterion 3: DSP oracles -------------------------------------------------


def analytic_bandpass_magnitude(f, low, high, fs, order):
    n = order // 2
    wl = 2 * fs * np.tan(np.pi * low / fs)
    wh = 2 * fs * np.tan(np.pi * high / fs)
    w0 = np.sqrt(wl * wh)
    bw = wh - wl
    W = 2 * fs * np.tan(np.pi * np.asarray(f, dtype=float) / fs)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (W**2 - w0**2) / (W * bw)
    x = np.where(W == 0, np.inf, x)
    return 1.0 / np.sqrt(1.0 + x ** (2 * n))


def sos_magnitude(coeffs, f, fs):
    z = np.exp(2j * np.pi * np.asarray(f, dtype=float) / fs)
    h = np.ones_like(z)
    for b0, b1, b2, a1, a2 in coeffs.sections:
        h *= (b0 + b1 / z + b2 / z**2) / (1 + a1 / z + a2 / z**2)
    return np.abs(h)


def test_criterion_3_dsp_oracles():
    low, high, fs, order = 0.5, 45.0, 256.0, 4
    coeffs = dsp.design_butterworth_bandpass(low, high, fs, order)

    probe = np.linspace(0.1, fs / 2 - 0.1, 100)
    mag_err = float(np.max(np.abs(
        sos_magnitude(coeffs, probe, fs) - analytic_bandpass_magnitude(probe, low, high, fs, order)
    )))
    assert mag_err < 1e-6

    dc = float(sos_magnitude(coeffs, np.array([0.0]), fs)[0])
    assert dc == 0.0

    cut_err = float(np.max(np.abs(
        sos_magnitude(coeffs, np.array([low, high]), fs) - 1.0 / math.sqrt(2.0)
    )))
    assert cut_err < 1e-3

    # single-segment Welch satisfies Parseval exactly for its Hann window w:
    # sum(P) * df = sum((x w)^2) / sum(w^2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=256)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(256) / 256)
    psd = dsp.welch_psd(x, fs, segment_len=256, overlap_fraction=0.0)
    df = psd.freqs_hz[1] - psd.freqs_hz[0]
    windowed = float(np.sum((x * w) ** 2) / np.sum(w * w))
    parseval_rel = abs(float(np.sum(psd.power) * df) - windowed) / windowed
    assert parseval_rel < 1e-9

    freqs = np.arange(4, dtype=float)
    assert dsp.spectral_entropy(dsp.Psd(freqs, np.array([0.0, 3.0, 0.0, 0.0]))) == 0.0
    assert dsp.spectral_entropy(dsp.Psd(freqs, np.array([1.0, 1.0, 0.0, 0.0]))) == 0.5
    assert dsp.spectral_entropy(dsp.Psd(freqs, np.ones(4))) == 1.0

    verdict(3, True,
            f"filter magnitude err {mag_err:.2e}, |H(0)|=0, cutoff err {cut_err:.2e}, "
            f"Parseval rel {parseval_rel:.2e}, entropy closed forms exact")


# --- criterion 4: synthetic end-to-end ---------------------------------------


def test_criterion_4_end_to_end(synthetic_run):
    acc = json.loads(Path(synthetic_run["metrics"]).read_text())["accuracy"]
    elapsed = synthetic_run["elapsed"]
    verdict(4, acc >= 0.95 and elapsed < 60.0,
            f"synthetic test accuracy {acc:.4f}, pipeline {elapsed:.1f}s")


# --- criterion 5: baseline sanity ---------------------------------------------


def brute_force_best_split(X, y, n_classes):
    n = len(y)
    parent = n - sum(np.sum(y == c) ** 2 for c in range(n_classes)) / n
    best = None
    for j in range(X.shape[1]):
        vals = np.unique(X[:, j])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, j] <= thr
            score = 0.0
            for side in (mask, ~mask):
                ns = int(side.sum())
                if ns:
                    score += ns - sum(
                        np.sum(y[side] == c) ** 2 for c in range(n_classes)
                    ) / ns
            if score < parent and (best is None or score < best[2]):
                best = (j, thr, score)
    return best


def test_criterion_5_baseline_sanity(synthetic_run):
    cmp = Path(synthetic_run["cmp"])
    forest_acc = json.loads((cmp / "metrics_random_forest.json").read_text())["accuracy"]
    boost_acc = json.loads((cmp / "metrics_gradient_boosting.json").read_text())["accuracy"]
    assert forest_acc >= 0.95
    assert boost_acc >= 0.95

    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(10, 51))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 4))
        X = rng.normal(size=(n, d)).round(2)
        y = rng.integers(0, k, size=n)
        want = brute_force_best_split(X, y, k)
        got = baselines.best_gini_split(X, y, k, None)
        if want is None:
            assert got is None, f"trial {trial}"
        else:
            assert got == want, f"trial {trial}"

    verdict(5, True,
            f"forest acc {forest_acc:.4f}, boosting acc {boost_acc:.4f}, "
            f"split finder exact on 20 random datasets")


# --- criterion 6: evaluation invariants ---------------------------------------


def test_criterion_6_evaluation_invariants():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 3, size=200)
    preds = rng.integers(0, 3, size=200)
    names = ["a", "b", "c"]
    cm = evaluation.confusion(preds, truth, names)
    assert cm.total == 200  # conservation
    assert cm.counts.sum(axis=1).tolist() == [int(np.sum(truth == c)) for c in range(3)]

    perm = np.array([1, 2, 0])
    rep = evaluation.metrics(cm)
    rep_p = evaluation.metrics(evaluation.confusion(perm[preds], perm[truth], names))
    inv = np.argsort(perm)
    assert rep_p.accuracy == rep.accuracy
    assert np.array_equal(rep_p.precision, rep.precision[inv])
    assert np.array_equal(rep_p.recall, rep.recall[inv])

    rep2 = evaluation.metrics(
        evaluation.ConfusionMatrix(np.array([[1, 1], [0, 2]]), ["a", "b"])
    )
    assert rep2.f1[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert rep2.f1[1] == pytest.approx(0.8, abs=1e-15)

    verdict(6, True, "conservation, permutation equivariance, closed-form F1 all exact")


# --- criterion 7: determinism --------------------------------------------------


def test_criterion_7_determinism(synthetic_run, tmp_path):
    second = run_chain(str(tmp_path))
    hist_same = (
        Path(synthetic_run["history"]).read_bytes() == Path(second["history"]).read_bytes()
    )
    table_same = all(
        Path(synthetic_run["cmp"], name).read_bytes()
        == Path(second["cmp"], name).read_bytes()
        for name in ("comparison.csv", "comparison.txt")
    )
    verdict(7, hist_same and table_same,
            "repeat run with seed 1 gives bit-identical history and comparison table")


# --- criterion 8: real-dataset reproduction (optional) -------------------------


@pytest.mark.skipif(
    "EEGPIPE_REAL_FEATURES" not in os.environ,
    reason="set EEGPIPE_REAL_FEATURES to a featured CSV to run the reproduction tier",
)
def test_criterion_8_real_dataset(tmp_path):
    feats = os.environ["EEGPIPE_REAL_FEATURES"]
    out = str(tmp_path / "cmp")
    assert run("compare", "--seed", "1", "--input", feats, "--out", out) == 0

    def acc(name):
        return json.loads(Path(out, f"metrics_{name}.json").read_text())["accuracy"]

    gru, forest, boost, logit = (
        acc("gru"), acc("random_forest"), acc("gradient_boosting"), acc("logistic")
    )
    ok = (gru >= 0.90 and forest >= 0.93 and boost >= 0.93
          and forest >= logit and boost >= logit)
    verdict(8, ok,
            f"real data: gru {gru:.4f}, forest {forest:.4f}, boosting {boost:.4f}, "
            f"logistic {logit:.4f}")
