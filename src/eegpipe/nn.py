"""GRU sequence classifier with exact manual gradients.

Architecture: input -> GRU over T steps -> flatten of the full hidden
sequence -> dense softmax head. Forward, backward (BPTT), optimizers and
the training loop all live here. Every routine takes a batch: a single
example is a batch of one (`x[None]`). Everything is float64 and
deterministic per seed.

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


class GruWorkspace:
    """The buffers of one GRU forward and backward pass for one shape: T steps,
    H hidden units, d inputs and a batch of B, with the per-step views into
    them built once.

    Time-stacked state is feature-major, [H, B] per step, so that each gate
    block is a contiguous row slice:
    - x [T*B, d+1] holds the input frames, row t*B + b for example b at
      step t, and a last column of ones, so that the bias rides in the
      input projection and its gradient in dW's matrix product; Wb [3H, d+1]
      holds [W | b];
    - a [T, 3H, B] the biased input projections W @ x_t + b;
    - hs [T+1, H, B] the states, hs[0] = 0 and hs[t+1] the state after step
      t; zr [T, 2H, B] the update and reset gates; rh [T, H, B] r * h_prev;
      h_cand [T, H, B] the candidate states and diff [T, H, B] h_prev - h_cand;
    - da_steps [T, 3H, B] the gate pre-activation gradients, copied after the
      time loop into da [3H, T*B] (column t*B + b), so that each weight
      gradient is one matrix product over all T*B columns.

    gru_forward fills the forward buffers and returns the workspace as its
    cache; gru_backward reads them and fills the backward ones, which its
    first call on the workspace builds, so a workspace that only ever runs
    forward (validation, prediction) holds none. Each call overwrites what
    the last call on the same workspace left, so a cache, and the arrays
    and views returned with it, are valid only until the next call on that
    workspace.
    """

    def __init__(self, T: int, H: int, d: int, B: int):
        H2 = 2 * H
        self.shape = (T, H, d, B)
        self.x = np.empty((T * B, d + 1))
        self.x[:, d] = 1.0
        self.x_steps = self.x[:, :d].reshape(T, B, d)
        self.x_cols = self.x.reshape(T, B, d + 1).transpose(0, 2, 1)  # [d+1, B] per step
        self.Wb = np.empty((3 * H, d + 1))
        self.a = np.empty((T, 3 * H, B))
        self.hs = np.zeros((T + 1, H, B))
        self.zr = np.empty((T, H2, B))
        self.rh, self.h_cand, self.diff = (np.empty((T, H, B)) for _ in range(3))
        a, hs, zr = self.a, self.hs, self.zr
        self.forward_steps = [
            (a[t, :H2], a[t, H2:], hs[t], zr[t], zr[t, :H], zr[t, H:], self.rh[t],
             self.h_cand[t], self.diff[t], hs[t + 1])
            for t in range(T)
        ]
        self.backward_steps = None  # with the backward buffers, by add_backward_buffers

    def add_backward_buffers(self) -> None:
        """Build the buffers and per-step views that gru_backward writes."""
        T, H, d, B = self.shape
        H2 = 2 * H
        # d(h_t)/d(pre-activation) of the z, candidate and r gates (the r
        # factor is the gradient w.r.t. r * h_prev, not h_t); slope is
        # sigmoid' of z and r
        self.slope = np.empty((T, H2, B))
        self.f_z, self.f_c, self.f_r = (np.empty((T, H, B)) for _ in range(3))
        self.da_steps = np.empty((T, 3 * H, B))
        self.da = np.empty((3 * H, T * B))
        self.dWb = np.empty((3 * H, d + 1))
        self.rows = np.empty((T * B, H))  # row-layout copy of h_prev, then of r * h_prev
        self.dh, self.ds, self.term, self.carry = (np.empty((H, B)) for _ in range(4))
        zr, da = self.zr, self.da_steps
        self.backward_steps = [
            (self.f_z[t], self.f_c[t], self.f_r[t], zr[t, :H], zr[t, H:],
             da[t, :H], da[t, H:H2], da[t, :H2], da[t, H2:])
            for t in range(T)
        ]


def gru_cell_forward(U_zr, U_c, step):
    """One GRU step for a batch, feature-major, written into preallocated arrays.

    U_zr [2H, H] and U_c [H, H] are the recurrent weights of the update and
    reset gates and of the candidate. `step` is one entry of
    GruWorkspace.forward_steps: the step's biased input projections a_zr
    [2H, B] and a_c [H, B], the previous state h_prev [H, B], and the
    arrays written here: the gates zr [2H, B] with their z and r halves,
    rh = r * h_prev, the candidate state h_cand, diff = h_prev - h_cand and
    the new state h_t, each [H, B]; h_t is returned.
    """
    a_zr, a_c, h_prev, zr, z, r, rh, h_cand, diff, h_t = step
    np.matmul(U_zr, h_prev, out=zr)
    zr += a_zr
    sigmoid(zr, out=zr)
    np.multiply(r, h_prev, out=rh)
    np.matmul(U_c, rh, out=h_cand)
    h_cand += a_c
    np.tanh(h_cand, out=h_cand)
    # z * h_prev + (1 - z) * h_cand, as h_cand + z * (h_prev - h_cand)
    np.subtract(h_prev, h_cand, out=diff)
    np.multiply(diff, z, out=h_t)
    h_t += h_cand
    return h_t


def gru_forward(p: GruParams, xs, workspaces: dict | None = None):
    """Run the recurrence from h0 = 0 over xs [T, batch, input_dim].

    Time is the leading axis. The biased input projection W @ x_t + b of
    all T steps is formed before the loop; each step adds only the
    recurrent part. The work runs in the GruWorkspace that `workspaces`
    maps this shape (T, H, d, batch) to, built and added on first use, or
    in a fresh one when `workspaces` is None. Returns (hs [T, batch, H],
    cache) with hs[t] the hidden state after step t, a view into the cache,
    which is the GruWorkspace and valid only until its next use.
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
    if workspaces is None:
        workspaces = {}
    ws = workspaces.get((T, H, d, B))
    if ws is None:
        ws = workspaces[T, H, d, B] = GruWorkspace(T, H, d, B)
    np.copyto(ws.x_steps, xs)
    np.copyto(ws.Wb[:, :d], p.W)
    np.copyto(ws.Wb[:, d], p.b)
    np.matmul(ws.Wb, ws.x_cols, out=ws.a)
    U_zr, U_c = p.U[: 2 * H], p.U[2 * H :]
    for step in ws.forward_steps:
        gru_cell_forward(U_zr, U_c, step)
    return ws.hs[1:].transpose(0, 2, 1), ws


def gru_backward(p: GruParams, cache: GruWorkspace, grad_hs, out: GruParams | None = None):
    """Exact BPTT through the recurrence.

    grad_hs[t] ([T, batch, H]) is the loss gradient flowing into hs[t]
    from above. It is read through its [T, H, batch] transpose, which is
    contiguous when it comes from dense_backward through model_backward.
    Only the state gradient and the three gate gradients are carried
    through the time loop, in the workspace's buffers; the parameter
    gradients are one matrix product each over all T*batch columns
    afterwards (dW with db). Returns (parameter gradients summed over time
    and batch, written into `out` when given, and da [T, batch, 3H], the
    gradient w.r.t. each step's gate pre-activations in [z, r, h] order, a
    view into the workspace). The gradients w.r.t. the input frames, if
    wanted, are da @ W.
    """
    ws = cache
    T, H, d, B = ws.shape
    if grad_hs.shape != (T, B, H):
        raise DataError(f"grad_hs of shape {grad_hs.shape} for a cache of length {T}, "
                        f"batch {B} and {H} hidden units")
    if ws.backward_steps is None:
        ws.add_backward_buffers()
    H2 = 2 * H
    h_prev, slope, f_z, f_c, f_r = ws.hs[:-1], ws.slope, ws.f_z, ws.f_c, ws.f_r
    np.subtract(1.0, ws.zr, out=slope)
    slope *= ws.zr
    np.multiply(ws.diff, slope[:, :H], out=f_z)
    np.subtract(1.0, ws.zr[:, :H], out=f_r)  # 1 - z, f_r as scratch
    np.multiply(ws.h_cand, ws.h_cand, out=f_c)
    np.subtract(1.0, f_c, out=f_c)
    f_c *= f_r
    np.multiply(h_prev, slope[:, H:], out=f_r)
    U_zr_T, U_c_T = p.U[:H2].T, p.U[H2:].T
    grad = grad_hs.transpose(0, 2, 1)
    dh, ds, term, carry = ws.dh, ws.ds, ws.term, ws.carry
    carry[...] = 0.0
    for t in range(T - 1, -1, -1):
        f_z_t, f_c_t, f_r_t, z, r, da_z, da_r, da_zr, da_c = ws.backward_steps[t]
        np.add(grad[t], carry, out=dh)
        np.multiply(dh, f_c_t, out=da_c)
        np.matmul(U_c_T, da_c, out=ds)  # gradient into r * h_prev
        np.multiply(dh, f_z_t, out=da_z)
        np.multiply(ds, f_r_t, out=da_r)
        if t:
            # carry = dh * z + ds * r + U_zr.T @ da_zr, summed left to right
            np.multiply(dh, z, out=carry)
            np.multiply(ds, r, out=term)
            carry += term
            np.matmul(U_zr_T, da_zr, out=term)
            carry += term
    if out is None:
        out = GruParams(np.empty_like(p.W), np.empty_like(p.U), np.empty_like(p.b))
    da, rows, rows_steps = ws.da, ws.rows, ws.rows.reshape(T, B, H)
    np.copyto(da.reshape(3 * H, T, B), ws.da_steps.transpose(1, 0, 2))
    np.matmul(da, ws.x, out=ws.dWb)
    np.copyto(out.W, ws.dWb[:, :d])
    np.copyto(out.b, ws.dWb[:, d])
    np.copyto(rows_steps, h_prev.transpose(0, 2, 1))
    np.matmul(da[:H2], rows, out=out.U[:H2])
    np.copyto(rows_steps, ws.rh.transpose(0, 2, 1))
    np.matmul(da[H2:], rows, out=out.U[H2:])
    return out, ws.da_steps.transpose(0, 2, 1)


def flatten(hs):
    """Concatenate each example's hidden sequence in time order.

    [T, B, H] -> [B, T*H]; unflatten recovers the input exactly. Both are
    views, not copies, when the data are laid out [T, H, B], as
    gru_forward's states and dense_backward's input gradient are.
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

    dW and db are written into `out` when given. dv [B, flat_dim] is the
    transpose of W.T @ grad_logits.T, laid out [flat_dim, B] like the
    GRU's states.
    """
    if out is None:
        out = DenseParams(np.empty_like(p.W), np.empty_like(p.b))
    np.matmul(grad_logits.T, v, out=out.W)
    grad_logits.sum(axis=0, out=out.b)
    return out.W, out.b, (p.W.T @ grad_logits.T).T


def softmax_cross_entropy_batch(logits, labels):
    """Numerically stable per-example losses and gradients for [batch, classes].

    The only softmax in the package: grads are the softmax probabilities
    of the logits minus the one-hot labels, so each row sums to 0.
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


def model_forward(model: Model, xs_batch, workspaces: dict | None = None):
    """Full forward pass for a [batch, T, input_dim] array, in the GRU
    workspace that `workspaces` maps its shape to (see gru_forward).

    Returns (logits [batch, classes], cache for model_backward); the cache
    is valid until that workspace is used again.
    """
    x = np.asarray(xs_batch, dtype=float)
    if x.ndim != 3:
        raise DataError("model_forward expects [batch, T, input_dim]")
    hs, gru_cache = gru_forward(model.gru, x.swapaxes(0, 1), workspaces)  # [T, B, H]
    v = flatten(hs)
    logits = dense_forward(model.dense, v)
    return logits, (gru_cache, v)


def model_backward(model: Model, cache, grad_logits, out: Model | None = None):
    """Full backward pass; returns (gru grads, dense grads) summed over the batch.

    With `out`, a Model-shaped set of arrays, the gradients are written there.
    """
    gru_cache, v = cache
    dW, db, dv = dense_backward(model.dense, v, grad_logits, out and out.dense)
    T, H, _, _ = gru_cache.shape
    gru_grads, _ = gru_backward(model.gru, gru_cache, unflatten(dv, T, H), out and out.gru)
    return gru_grads, DenseParams(W=dW, b=db)


def predict_batch(model: Model, X):
    """Class ids of [batch, T, input_dim]: the argmax of the logits, ties to
    the lowest class id.

    Floating-point overflow or invalid operations in the forward pass, and
    non-finite logits, are a NumericError: such a model predicts nothing.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            logits, _ = model_forward(model, X)
    except FloatingPointError as exc:
        raise NumericError(f"the model's forward pass failed: {exc}") from None
    if not np.isfinite(logits).all():
        raise NumericError("the model's logits are not finite")
    return logits.argmax(axis=1)


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


def evaluate_model(model: Model, X, y, workspaces: dict | None = None) -> tuple[float, float]:
    """Mean loss and accuracy over a [n, T, d] set, fixed summation order;
    a prediction is the argmax of the logits, as in predict_batch. The
    forward pass runs in `workspaces` as model_forward's does.
    """
    logits, _ = model_forward(model, X, workspaces)
    losses, _ = softmax_cross_entropy_batch(logits, y)
    return float(np.mean(losses)), float(np.mean(logits.argmax(axis=1) == np.asarray(y)))


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
    flat vector. One GRU workspace per batch shape (the full batch, the
    last partial batch and the validation set) serves the whole run.
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
    workspaces: dict = {}
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
            logits, cache = model_forward(model, xb, workspaces)
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
        val_loss, val_acc = evaluate_model(model, X_va, y_va, workspaces)
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
    if not np.isfinite(arr).all():
        raise DataError(f"{key} holds a non-finite value")
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
    """Read a history CSV; a missing file, column or number, or a number
    that is not finite and so has no place on a curve, is a DataError."""
    hist = TrainHistory()
    line = 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line, row in enumerate(csv.DictReader(fh), start=2):
                for col in _HISTORY_COLUMNS:
                    value = float(row[col])
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite {col} {row[col]!r}")
                    getattr(hist, col).append(value)
    except OSError as exc:
        raise DataError(f"cannot read history {path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"history {path} has no {exc} column") from None
    except (TypeError, ValueError, csv.Error) as exc:
        raise DataError(f"history {path}: unparsable value on line {line}: {exc}") from None
    return hist
