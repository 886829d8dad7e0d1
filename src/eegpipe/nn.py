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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, PipelineError

CHECKPOINT_VERSION = 1
GATES = ("z", "r", "h")  # order of the H-row gate blocks in GruParams


def sigmoid(x):
    """Logistic function; exp only ever sees non-positive arguments."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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

    @classmethod
    def zeros_like(cls, other: "GruParams") -> "GruParams":
        return cls(**{name: np.zeros_like(arr) for name, arr in other.items()})


@dataclass
class DenseParams:
    """Dense softmax head over the flattened hidden sequence."""

    W: np.ndarray  # [classes, flat_dim]
    b: np.ndarray  # [classes]

    def items(self):
        yield "W", self.W
        yield "b", self.b

    @classmethod
    def zeros_like(cls, other: "DenseParams") -> "DenseParams":
        return cls(W=np.zeros_like(other.W), b=np.zeros_like(other.b))


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
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
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


def gru_cell_forward(p: GruParams, x_t, h_prev):
    """One GRU step for a batch: x_t [B, input_dim], h_prev [B, H].

    Returns (h_t, cache); the cache holds (x_t, h_prev, z, r, h_cand)
    for the backward pass.
    """
    if x_t.shape[1] != p.input_dim or h_prev.shape[1] != p.hidden_dim:
        raise DataError(
            f"shape mismatch: x {x_t.shape}, h {h_prev.shape} for params "
            f"({p.hidden_dim} hidden, {p.input_dim} input)"
        )
    H2 = 2 * p.hidden_dim
    a = x_t @ p.W.T  # input part of all three gates
    zr = sigmoid(a[:, :H2] + h_prev @ p.U[:H2].T + p.b[:H2])
    z, r = np.split(zr, 2, axis=1)
    h_cand = np.tanh(a[:, H2:] + (r * h_prev) @ p.U[H2:].T + p.b[H2:])
    h_t = z * h_prev + (1.0 - z) * h_cand
    return h_t, (x_t, h_prev, z, r, h_cand)


def gru_forward(p: GruParams, xs):
    """Run the recurrence from h0 = 0 over xs [T, batch, input_dim].

    Time is the leading axis. Returns (hs [T, batch, H], caches) with
    hs[t] the hidden state after step t.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3:
        raise DataError(f"gru_forward expects [T, batch, d], got {xs.ndim}-D")
    T, B = xs.shape[:2]
    if T < 1:
        raise DataError("empty input sequence")
    h = np.zeros((B, p.hidden_dim))
    hs = np.empty((T, B, p.hidden_dim))
    caches = []
    for t in range(T):
        h, cache = gru_cell_forward(p, xs[t], h)
        hs[t] = h
        caches.append(cache)
    return hs, caches


def gru_backward(p: GruParams, caches, grad_hs):
    """Exact BPTT through the recurrence.

    grad_hs[t] ([T, batch, H]) is the loss gradient flowing into hs[t]
    from above. Returns (parameter gradients summed over time and batch,
    gradients w.r.t. each input frame [T, batch, input_dim]).
    """
    T = len(caches)
    if grad_hs.shape[0] != T:
        raise DataError(f"grad_hs length {grad_hs.shape[0]} != cache length {T}")
    H2 = 2 * p.hidden_dim
    grads = GruParams.zeros_like(p)
    grad_xs = np.empty((T, grad_hs.shape[1], p.input_dim))
    carry = np.zeros_like(grad_hs[0])
    for t in range(T - 1, -1, -1):
        x_t, h_prev, z, r, h_cand = caches[t]
        dh = grad_hs[t] + carry
        # pre-activation gradients of the three gates, [B, 3H] in [z, r, h] order
        da_c = dh * (1.0 - z) * (1.0 - h_cand * h_cand)
        ds = da_c @ p.U[H2:]  # gradient into r * h_prev
        da = np.concatenate(
            [dh * (h_prev - h_cand) * z * (1.0 - z), ds * h_prev * r * (1.0 - r), da_c], axis=1
        )
        grads.W += da.T @ x_t
        grads.U[:H2] += da[:, :H2].T @ h_prev
        grads.U[H2:] += da_c.T @ (r * h_prev)
        grads.b += da.sum(axis=0)
        carry = dh * z + ds * r + da[:, :H2] @ p.U[:H2]
        grad_xs[t] = da @ p.W
    return grads, grad_xs


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


def dense_backward(p: DenseParams, v, grad_logits):
    """Gradients of the affine map, summed over the batch: returns (dW, db, dv)."""
    return grad_logits.T @ v, grad_logits.sum(axis=0), grad_logits @ p.W


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
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
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
    hs, caches = gru_forward(model.gru, x.swapaxes(0, 1))  # [T, B, H]
    v = flatten(hs)
    logits = dense_forward(model.dense, v)
    return logits, (caches, v, hs.shape)


def model_backward(model: Model, cache, grad_logits):
    """Full backward pass; returns (gru grads, dense grads) summed over the batch."""
    caches, v, hs_shape = cache
    dW, db, dv = dense_backward(model.dense, v, grad_logits)
    grad_hs = unflatten(dv, hs_shape[0], hs_shape[2])
    gru_grads, _ = gru_backward(model.gru, caches, grad_hs)
    return gru_grads, DenseParams(W=dW, b=db)


def predict_batch(model: Model, X):
    """Classify [batch, T, input_dim]; ties go to the lowest class id."""
    logits, _ = model_forward(model, X)
    probs = softmax(logits)
    return np.argmax(probs, axis=1), probs


# ---------------------------------------------------------------------------
# optimizers


def _grad_tree(gru_grads: GruParams, dense_grads: DenseParams) -> dict[str, np.ndarray]:
    tree = {f"gru.{n}": a for n, a in gru_grads.items()}
    tree.update({f"dense.{n}": a for n, a in dense_grads.items()})
    return tree


def adam_step(params: dict, grads: dict, state: dict, t: int, cfg: TrainConfig) -> None:
    """One Adam update with bias correction; mutates params and state in place."""
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state:
            state[name] = (np.zeros_like(p), np.zeros_like(p))
        m, v = state[name]
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def sgd_step(params: dict, grads: dict, state: dict, t: int, cfg: TrainConfig) -> None:
    """Plain gradient descent step; state and t kept for API symmetry."""
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        p -= cfg.learning_rate * g


# ---------------------------------------------------------------------------
# training


def evaluate_model(model: Model, X, y) -> tuple[float, float]:
    """Mean loss and accuracy over a [n, T, d] set, fixed summation order."""
    logits, _ = model_forward(model, X)
    losses, _ = softmax_cross_entropy_batch(logits, y)
    preds = np.argmax(softmax(logits), axis=1)
    return float(np.mean(losses)), float(np.mean(preds == np.asarray(y)))


def train(
    model_cfg: ModelConfig,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
) -> tuple[Model, TrainHistory]:
    """Mini-batch training with seeded shuffling and early stopping.

    Stops once validation loss has not improved for `patience` epochs
    and restores the parameters of the best validation epoch.
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

    model = init_model(model_cfg)
    params = dict(model.param_items())
    opt_state: dict = {}
    step_fn = adam_step if cfg.optimizer == "adam" else sgd_step
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_loss = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
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
            batch_loss = float(np.mean(losses))
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            loss_sum += float(np.sum(losses))
            correct += int(np.sum(np.argmax(logits, axis=1) == yb))
            gru_g, dense_g = model_backward(model, cache, grad_logits / len(sel))
            t += 1
            step_fn(params, _grad_tree(gru_g, dense_g), opt_state, t, cfg)
        val_loss, val_acc = evaluate_model(model, X_va, y_va)
        history.train_loss.append(loss_sum / n)
        history.train_acc.append(correct / n)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            wait = 0
        else:
            wait += 1
            if wait >= cfg.patience:
                break
    for k, v in params.items():
        v[...] = best_params[k]
    return model, history


def gradient_check(model: Model, X, labels, eps: float = 1e-5):
    """Central-difference check of the gradient of the mean loss over a
    [batch, T, input_dim] array.

    Returns (max relative error, path of the worst scalar parameter).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigError("eps must lie in [1e-7, 1e-3]")

    def loss_fn():
        logits, cache = model_forward(model, X)
        losses, grad = softmax_cross_entropy_batch(logits, labels)
        return float(np.mean(losses)), cache, grad / len(losses)

    loss, cache, grad_logits = loss_fn()
    gru_g, dense_g = model_backward(model, cache, grad_logits)
    analytic = _grad_tree(gru_g, dense_g)
    worst = 0.0
    worst_path = ""
    for name, arr in model.param_items():
        flat = arr.reshape(-1)
        g_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _, _ = loss_fn()
            flat[i] = orig - eps
            lm, _, _ = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            denom = max(abs(numeric), abs(g_flat[i]), 1e-8)
            rel = abs(numeric - g_flat[i]) / denom
            if rel > worst:
                worst = rel
                worst_path = f"{name}[{i}]"
    return worst, worst_path


# ---------------------------------------------------------------------------
# persistence


def dataset_to_sequences(features: np.ndarray, seq_len: int) -> np.ndarray:
    """Reshape a [n, n_features] matrix into [n, seq_len, n_features/seq_len]."""
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
