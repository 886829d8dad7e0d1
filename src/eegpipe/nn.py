"""GRU sequence classifier with exact manual gradients.

Architecture: input -> GRU over T steps -> flatten of the full hidden
sequence -> dense softmax head. Forward, backward (BPTT), optimizers,
the training loop, and a finite-difference gradient checker all live
here. Every routine takes a batch: a single example is a batch of one
(`x[None]`). Everything is float64 and deterministic per seed.

Gating convention: h_t = z ⊙ h_prev + (1 − z) ⊙ h̃, i.e. z → 1 preserves
the previous hidden state. The three gates are stored fused, as blocks of
H rows in the order [z, r, h] (update, reset, candidate) in W, U and b;
checkpoints keep one JSON key per gate block (W_z, W_r, ..., b_h).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, NumericError, PipelineError

CHECKPOINT_VERSION = 1
GATES = ("z", "r", "h")  # order of the H-row gate blocks in GruParams


def sigmoid(x, out=None):
    """Logistic function as 0.5 * tanh(0.5 * x) + 0.5, written into `out`
    when given (which may be x itself).

    It cannot overflow, it gives exactly 0 and 1 far out in the tails, and
    its absolute error is within eps of the exact 1 / (1 + e^-x). Below
    about x = -37 it returns 0 rather than the tiny true value.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


@dataclass
class GruParams:
    """All trainable weights of one GRU layer, gate blocks stacked as [z, r, h]."""

    W: np.ndarray  # [3H, input_dim]
    U: np.ndarray  # [3H, H]
    b: np.ndarray  # [3H]

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    def items(self):
        yield "W", self.W
        yield "U", self.U
        yield "b", self.b

    def gate_blocks(self):
        """(checkpoint key, H-row block) pairs: W_z, W_r, W_h, U_z, ..., b_h."""
        H = self.hidden_dim
        for name, arr in self.items():
            for k, gate in enumerate(GATES):
                yield f"{name}_{gate}", arr[k * H : (k + 1) * H]


@dataclass
class DenseParams:
    """Dense softmax head over the flattened hidden sequence."""

    W: np.ndarray  # [classes, flat_dim]
    b: np.ndarray  # [classes]

    def items(self):
        yield "W", self.W
        yield "b", self.b


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dim: int
    sequence_length: int
    n_classes: int
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "sequence_length", "n_classes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 150
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        for name in ("batch_size", "max_epochs", "patience"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1/beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)

    def __len__(self):
        return len(self.train_loss)


@dataclass
class Model:
    config: ModelConfig
    gru: GruParams
    dense: DenseParams

    def param_items(self):
        for name, arr in self.gru.items():
            yield f"gru.{name}", arr
        for name, arr in self.dense.items():
            yield f"dense.{name}", arr


def init_model(cfg: ModelConfig) -> Model:
    """Seeded uniform(-k, k) initialization with k = 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(cfg.seed)
    d, h = cfg.input_dim, cfg.hidden_dim
    kw, ku = 1.0 / np.sqrt(d), 1.0 / np.sqrt(h)
    gru = GruParams(
        W=rng.uniform(-kw, kw, (3 * h, d)),
        U=rng.uniform(-ku, ku, (3 * h, h)),
        b=np.zeros(3 * h),
    )
    flat = h * cfg.sequence_length
    kd = 1.0 / np.sqrt(flat)
    dense = DenseParams(
        W=rng.uniform(-kd, kd, (cfg.n_classes, flat)), b=np.zeros(cfg.n_classes)
    )
    return Model(cfg, gru, dense)


class GruCache(NamedTuple):
    """What gru_forward keeps for gru_backward, stacked over time."""

    x: np.ndarray  # [T*B, input_dim], the input frames in time-major row order
    hs: np.ndarray  # [T+1, B, H], hs[0] = 0 and hs[t+1] the state after step t
    zr: np.ndarray  # [T, B, 2H], update and reset gates
    h_cand: np.ndarray  # [T, B, H], candidate states


def gru_cell_forward(p: GruParams, a_t, h_prev, zr, h_cand, h_t):
    """One GRU step for a batch, written into preallocated arrays.

    a_t [B, 3H] is the step's biased input projection x_t @ W.T + b for
    all three gates and h_prev [B, H] the previous state. The update and
    reset gates go to zr [B, 2H], the candidate state to h_cand [B, H] and
    the new state to h_t [B, H], which is returned.
    """
    H = p.hidden_dim
    H2 = 2 * H
    np.matmul(h_prev, p.U[:H2].T, out=zr)
    zr += a_t[:, :H2]
    sigmoid(zr, out=zr)
    np.multiply(zr[:, H:], h_prev, out=h_t)  # r * h_prev, h_t as scratch
    np.matmul(h_t, p.U[H2:].T, out=h_cand)
    h_cand += a_t[:, H2:]
    np.tanh(h_cand, out=h_cand)
    # z * h_prev + (1 - z) * h_cand, as h_cand + z * (h_prev - h_cand)
    np.subtract(h_prev, h_cand, out=h_t)
    h_t *= zr[:, :H]
    h_t += h_cand
    return h_t


def gru_forward(p: GruParams, xs):
    """Run the recurrence from h0 = 0 over xs [T, batch, input_dim].

    Time is the leading axis. The biased input projection x @ W.T + b of
    all T steps is formed before the loop; each step adds only the
    recurrent part. Returns (hs [T, batch, H], GruCache) with hs[t] the
    hidden state after step t.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3:
        raise DataError(f"gru_forward expects [T, batch, d], got {xs.ndim}-D")
    T, B, d = xs.shape
    if T < 1:
        raise DataError("empty input sequence")
    if d != p.input_dim:
        raise DataError(f"shape mismatch: input {xs.shape} for params with {p.input_dim} inputs")
    H = p.hidden_dim
    x = xs.reshape(T * B, d)
    a = x @ p.W.T
    a += p.b
    a = a.reshape(T, B, 3 * H)
    hs = np.empty((T + 1, B, H))
    hs[0] = 0.0
    zr = np.empty((T, B, 2 * H))
    h_cand = np.empty((T, B, H))
    for t in range(T):
        gru_cell_forward(p, a[t], hs[t], zr[t], h_cand[t], hs[t + 1])
    return hs[1:], GruCache(x, hs, zr, h_cand)


def gru_backward(p: GruParams, cache: GruCache, grad_hs, out: GruParams | None = None):
    """Exact BPTT through the recurrence.

    grad_hs[t] ([T, batch, H]) is the loss gradient flowing into hs[t]
    from above. Only the state gradient and the three gate gradients are
    carried through the time loop, in preallocated buffers; the parameter
    gradients are one matmul or sum each over all T*batch rows afterwards.
    Returns (parameter gradients summed over time and batch, written into
    `out` when given, and da [T, batch, 3H], the gradient w.r.t. each
    step's gate pre-activations in [z, r, h] order). The gradients w.r.t.
    the input frames, if wanted, are da @ W.
    """
    T, B, H = cache.h_cand.shape
    if grad_hs.shape[0] != T:
        raise DataError(f"grad_hs length {grad_hs.shape[0]} != cache length {T}")
    H2 = 2 * H
    h_prev, h_cand = cache.hs[:-1], cache.h_cand
    z, r = cache.zr[..., :H], cache.zr[..., H:]
    # d(h_t)/d(pre-activation) of the z, candidate and r gates, for all steps
    # (the r factor is the gradient w.r.t. r * h_prev, not h_t)
    slope = cache.zr * (1.0 - cache.zr)  # sigmoid' of z and r
    f_z = (h_prev - h_cand) * slope[..., :H]
    f_c = (1.0 - z) * (1.0 - h_cand * h_cand)
    f_r = h_prev * slope[..., H:]
    U_zr, U_c = p.U[:H2], p.U[H2:]
    da = np.empty((T, B, 3 * H))  # pre-activation gradients in [z, r, h] order
    da_z, da_r, da_zr, da_c = da[..., :H], da[..., H:H2], da[..., :H2], da[..., H2:]
    dh, ds, term = (np.empty((B, H)) for _ in range(3))
    carry = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        np.add(grad_hs[t], carry, out=dh)
        np.multiply(dh, f_c[t], out=da_c[t])
        np.matmul(da_c[t], U_c, out=ds)  # gradient into r * h_prev
        np.multiply(dh, f_z[t], out=da_z[t])
        np.multiply(ds, f_r[t], out=da_r[t])
        if t:
            # carry = dh * z + ds * r + da_zr @ U_zr, summed left to right
            np.multiply(dh, z[t], out=carry)
            np.multiply(ds, r[t], out=term)
            carry += term
            np.matmul(da_zr[t], U_zr, out=term)
            carry += term
    flat = da.reshape(T * B, 3 * H)
    if out is None:
        out = GruParams(np.empty_like(p.W), np.empty_like(p.U), np.empty_like(p.b))
    np.matmul(flat.T, cache.x, out=out.W)
    np.matmul(flat[:, :H2].T, h_prev.reshape(T * B, H), out=out.U[:H2])
    np.matmul(flat[:, H2:].T, (r * h_prev).reshape(T * B, H), out=out.U[H2:])
    flat.sum(axis=0, out=out.b)
    return out, da


def flatten(hs):
    """Concatenate each example's hidden sequence in time order.

    [T, B, H] -> [B, T*H]; unflatten recovers the input exactly.
    """
    return hs.swapaxes(0, 1).reshape(hs.shape[1], -1)


def unflatten(v, T: int, hidden: int):
    """Inverse of flatten: [B, T*H] -> [T, B, H]."""
    return v.reshape(v.shape[0], T, hidden).swapaxes(0, 1)


def dense_forward(p: DenseParams, v):
    """Logits [B, classes] of the flattened hidden sequences v [B, flat_dim]."""
    if v.shape[1] != p.W.shape[1]:
        raise DataError(f"dense input dim {v.shape[1]} != weight dim {p.W.shape[1]}")
    return v @ p.W.T + p.b


def dense_backward(p: DenseParams, v, grad_logits, out: DenseParams | None = None):
    """Gradients of the affine map, summed over the batch: returns (dW, db, dv).

    dW and db are written into `out` when given.
    """
    if out is None:
        out = DenseParams(np.empty_like(p.W), np.empty_like(p.b))
    np.matmul(grad_logits.T, v, out=out.W)
    grad_logits.sum(axis=0, out=out.b)
    return out.W, out.b, grad_logits @ p.W


def softmax(logits):
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_batch(logits, labels):
    """Numerically stable per-example losses and gradients for [batch, classes].

    grads = softmax(logits) - one_hot(labels); each row sums to 0.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(labels) and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise DataError(f"label out of range for {logits.shape[1]} classes")
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    losses = log_z[:, 0] - shifted[rows, labels]
    grads = np.exp(shifted - log_z)
    grads[rows, labels] -= 1.0
    return losses, grads


def model_forward(model: Model, xs_batch):
    """Full forward pass for a [batch, T, input_dim] array.

    Returns (logits [batch, classes], cache for model_backward).
    """
    x = np.asarray(xs_batch, dtype=float)
    if x.ndim != 3:
        raise DataError("model_forward expects [batch, T, input_dim]")
    hs, gru_cache = gru_forward(model.gru, x.swapaxes(0, 1))  # [T, B, H]
    v = flatten(hs)
    logits = dense_forward(model.dense, v)
    return logits, (gru_cache, v)


def model_backward(model: Model, cache, grad_logits, out: Model | None = None):
    """Full backward pass; returns (gru grads, dense grads) summed over the batch.

    With `out`, a Model-shaped set of arrays, the gradients are written there.
    """
    gru_cache, v = cache
    dW, db, dv = dense_backward(model.dense, v, grad_logits, out and out.dense)
    T, _, H = gru_cache.h_cand.shape
    gru_grads, _ = gru_backward(model.gru, gru_cache, unflatten(dv, T, H), out and out.gru)
    return gru_grads, DenseParams(W=dW, b=db)


def predict_batch(model: Model, X):
    """Classify [batch, T, input_dim]; ties go to the lowest class id."""
    logits, _ = model_forward(model, X)
    probs = softmax(logits)
    return np.argmax(probs, axis=1), probs


# ---------------------------------------------------------------------------
# optimizers


class FlatParams:
    """Named arrays that are views into one float64 vector.

    Built from (name, array) pairs, whose values it copies in order:
    `vector` is the buffer and `arrays[name]` the view shaped like the
    named array, so an update of `vector` updates every array at once.
    """

    def __init__(self, items):
        items = [(name, np.asarray(arr, dtype=float)) for name, arr in items]
        self.vector = np.concatenate([arr.reshape(-1) for _, arr in items])
        self.names = [name for name, _ in items]
        self.ends = np.cumsum([arr.size for _, arr in items])
        self.arrays = {name: self.vector[end - arr.size : end].reshape(arr.shape)
                       for (name, arr), end in zip(items, self.ends)}

    def locate(self, i: int) -> tuple[str, int]:
        """(name, flat index within that array) of entry i of `vector`."""
        k = int(np.searchsorted(self.ends, i, side="right"))
        return self.names[k], i - int(self.ends[k - 1] if k else 0)

    def model(self, config: ModelConfig) -> Model:
        """A Model over these arrays, named as Model.param_items names them."""
        a = self.arrays
        return Model(config, GruParams(a["gru.W"], a["gru.U"], a["gru.b"]),
                     DenseParams(a["dense.W"], a["dense.b"]))


def _require_finite(grads: FlatParams) -> None:
    finite = np.isfinite(grads.vector)
    if not finite.all():
        name, _ = grads.locate(int(np.argmin(finite)))
        raise NumericError(f"non-finite gradient for parameter {name!r}")


def adam_step(params: FlatParams, grads: FlatParams, state: dict, t: int, cfg: TrainConfig) -> None:
    """One Adam update with bias correction, in place on the whole parameter vector.

    `state` holds the moment vectors m and v and two scratch vectors; it
    starts empty. The operations are those of the textbook per-array
    update, in the same order.
    """
    _require_finite(grads)
    g = grads.vector
    if not state:
        state.update((k, np.zeros_like(g)) for k in ("m", "v", "step", "denom"))
    m, v, step, denom = state["m"], state["v"], state["step"], state["denom"]
    m *= cfg.beta1
    np.multiply(g, 1.0 - cfg.beta1, out=step)
    m += step
    v *= cfg.beta2
    np.multiply(g, 1.0 - cfg.beta2, out=step)
    step *= g
    v += step
    np.divide(m, 1.0 - cfg.beta1**t, out=step)  # m_hat
    step *= cfg.learning_rate
    np.divide(v, 1.0 - cfg.beta2**t, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += cfg.epsilon
    step /= denom
    params.vector -= step


def sgd_step(params: FlatParams, grads: FlatParams, state: dict, t: int, cfg: TrainConfig) -> None:
    """Plain gradient descent step; state and t kept for API symmetry."""
    _require_finite(grads)
    params.vector -= cfg.learning_rate * grads.vector


# ---------------------------------------------------------------------------
# training


def evaluate_model(model: Model, X, y) -> tuple[float, float]:
    """Mean loss and accuracy over a [n, T, d] set, fixed summation order."""
    logits, _ = model_forward(model, X)
    losses, _ = softmax_cross_entropy_batch(logits, y)
    preds = np.argmax(softmax(logits), axis=1)
    return float(np.mean(losses)), float(np.mean(preds == np.asarray(y)))


def _flat_copy(model: Model) -> tuple[FlatParams, Model, FlatParams, Model]:
    """A copy of model's parameters and a zeroed gradient of the same layout,
    each as one flat vector and as a Model over views into it."""
    params = FlatParams(model.param_items())
    grads = FlatParams((name, np.zeros_like(arr)) for name, arr in model.param_items())
    return params, params.model(model.config), grads, grads.model(model.config)


def train(
    model_cfg: ModelConfig,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
) -> tuple[Model, TrainHistory]:
    """Mini-batch training with seeded shuffling and early stopping.

    Stops once validation loss has not improved for `patience` epochs
    and restores the parameters of the best validation epoch. The
    parameters, their gradient and the optimizer moments are each one
    flat vector.
    """
    X_tr, y_tr = np.asarray(train_data[0], dtype=float), np.asarray(train_data[1], dtype=int)
    X_va, y_va = np.asarray(val_data[0], dtype=float), np.asarray(val_data[1], dtype=int)
    for X, y in ((X_tr, y_tr), (X_va, y_va)):
        if X.ndim != 3 or X.shape[1] != model_cfg.sequence_length or X.shape[2] != model_cfg.input_dim:
            raise DataError(
                f"data shape {X.shape} does not match model (T={model_cfg.sequence_length}, "
                f"d={model_cfg.input_dim})"
            )
        if len(y) and (y.min() < 0 or y.max() >= model_cfg.n_classes):
            raise DataError("label out of range for model n_classes")

    params, model, grads, grad_model = _flat_copy(init_model(model_cfg))
    opt_state: dict = {}
    step_fn = adam_step if cfg.optimizer == "adam" else sgd_step
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_loss = np.inf
    best = params.vector.copy()
    wait = 0
    t = 0
    n = len(y_tr)
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            xb, yb = X_tr[sel], y_tr[sel]
            logits, cache = model_forward(model, xb)
            losses, grad_logits = softmax_cross_entropy_batch(logits, yb)
            batch_loss = float(losses.sum())
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            loss_sum += batch_loss
            correct += int((logits.argmax(axis=1) == yb).sum())
            model_backward(model, cache, grad_logits / len(sel), out=grad_model)
            t += 1
            step_fn(params, grads, opt_state, t, cfg)
        val_loss, val_acc = evaluate_model(model, X_va, y_va)
        history.train_loss.append(loss_sum / n)
        history.train_acc.append(correct / n)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        if val_loss < best_loss:
            best_loss = val_loss
            np.copyto(best, params.vector)
            wait = 0
        else:
            wait += 1
            if wait >= cfg.patience:
                break
    params.vector[...] = best
    return model, history


def gradient_check(model: Model, X, labels, eps: float = 1e-5):
    """Central-difference check of the gradient of the mean loss over a
    [batch, T, input_dim] array, on a copy of model's parameters.

    Returns (max relative error, path of the worst scalar parameter).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigError("eps must lie in [1e-7, 1e-3]")
    params, work, grads, grad_model = _flat_copy(model)

    def loss_fn():
        logits, cache = model_forward(work, X)
        losses, grad = softmax_cross_entropy_batch(logits, labels)
        return float(np.mean(losses)), cache, grad / len(losses)

    _, cache, grad_logits = loss_fn()
    model_backward(work, cache, grad_logits, out=grad_model)
    theta, analytic = params.vector, grads.vector
    worst = 0.0
    worst_path = ""
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        lp, _, _ = loss_fn()
        theta[i] = orig - eps
        lm, _, _ = loss_fn()
        theta[i] = orig
        numeric = (lp - lm) / (2.0 * eps)
        denom = max(abs(numeric), abs(analytic[i]), 1e-8)
        rel = abs(numeric - analytic[i]) / denom
        if rel > worst:
            worst = rel
            worst_path = "{}[{}]".format(*params.locate(i))
    return worst, worst_path


# ---------------------------------------------------------------------------
# persistence


def dataset_to_sequences(features: np.ndarray, seq_len: int) -> np.ndarray:
    """Reshape a [n, n_features] matrix into [n, seq_len, n_features/seq_len]."""
    if seq_len < 1:
        raise ConfigError(f"sequence length must be >= 1, got {seq_len}")
    X = np.asarray(features, dtype=float)
    n, f = X.shape
    if f % seq_len:
        raise ConfigError(f"{f} features not divisible by sequence length {seq_len}")
    return X.reshape(n, seq_len, f // seq_len)


def save_checkpoint(path: str, model: Model, class_names: list[str], normalization=None) -> None:
    """Versioned JSON checkpoint; float repr keeps the roundtrip bit-exact.

    The GRU is written as one key per gate block (W_z, W_r, W_h, U_z, ...).
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": {
            "input_dim": model.config.input_dim,
            "hidden_dim": model.config.hidden_dim,
            "sequence_length": model.config.sequence_length,
            "n_classes": model.config.n_classes,
            "seed": model.config.seed,
        },
        "class_names": list(class_names),
        "normalization": normalization.to_dict() if normalization is not None else None,
        "gru": {n: a.tolist() for n, a in model.gru.gate_blocks()},
        "dense": {n: a.tolist() for n, a in model.dense.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _array(section: dict, key: str, shape: tuple) -> np.ndarray:
    arr = np.asarray(section[key], dtype=float)
    if arr.shape != shape:
        raise DataError(f"{key} has shape {arr.shape}, model_config implies {shape}")
    return arr


def load_checkpoint(path: str):
    """Returns (model, class_names, normalization or None).

    Anything but a well-formed version-1 checkpoint is a DataError.
    """
    from .dsp import NormalizationParams

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {doc.get('format_version')}")
    try:
        cfg = ModelConfig(**doc["model_config"])
        H, C = cfg.hidden_dim, cfg.n_classes
        gru = GruParams(*(
            np.concatenate([_array(doc["gru"], f"{name}_{gate}", shape) for gate in GATES])
            for name, shape in (("W", (H, cfg.input_dim)), ("U", (H, H)), ("b", (H,)))
        ))
        dense = DenseParams(
            _array(doc["dense"], "W", (C, H * cfg.sequence_length)), _array(doc["dense"], "b", (C,))
        )
        class_names = doc["class_names"]
        if not (isinstance(class_names, list) and len(class_names) == C
                and all(isinstance(n, str) for n in class_names)):
            raise DataError(f"class_names must list {C} strings")
        norm = NormalizationParams.from_dict(doc["normalization"]) if doc.get("normalization") else None
        if norm is not None and norm.n_features != cfg.input_dim * cfg.sequence_length:
            raise DataError(f"normalization covers {norm.n_features} features, the model "
                            f"{cfg.input_dim * cfg.sequence_length}")
    except KeyError as exc:
        raise DataError(f"checkpoint {path} lacks key {exc}") from None
    except (TypeError, ValueError, PipelineError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    return Model(cfg, gru, dense), class_names, norm


_HISTORY_COLUMNS = ("train_loss", "train_acc", "val_loss", "val_acc")


def save_history(history: TrainHistory, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *_HISTORY_COLUMNS])
        rows = zip(*(getattr(history, col) for col in _HISTORY_COLUMNS))
        for epoch, row in enumerate(rows, start=1):
            writer.writerow([epoch, *map(repr, row)])


def load_history(path: str) -> TrainHistory:
    """Read a history CSV; a missing file, column or number is a DataError."""
    hist = TrainHistory()
    line = 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line, row in enumerate(csv.DictReader(fh), start=2):
                for col in _HISTORY_COLUMNS:
                    getattr(hist, col).append(float(row[col]))
    except OSError as exc:
        raise DataError(f"cannot read history {path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"history {path} has no {exc} column") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"history {path}: unparsable value on line {line}: {exc}") from None
    return hist
