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
from dataclasses import dataclass

import numpy as np

from . import dataio
from .errors import ConfigError, DataError, NumericError, PipelineError

CHECKPOINT_VERSION = 2
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma and Ba's settings
GATES = ("z", "r", "h")  # order of the H-row gate blocks in GruParams
# ufuncs take `out` positionally here: numpy spends 0.1-0.4 us a call parsing out=


def sigmoid(x, out):
    """Logistic function as 0.5 * tanh(0.5 * x) + 0.5, written into `out`
    (which may be x itself) and returned.

    It cannot overflow, it gives exactly 0 and 1 far out in the tails, and
    its absolute error is within eps of the exact 1 / (1 + e^-x). Below
    about x = -37 it returns 0 rather than the tiny true value.
    """
    out = np.multiply(x, 0.5, out)
    np.tanh(out, out)
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
    seed: int


@dataclass
class TrainConfig:
    optimizer: str
    learning_rate: float
    batch_size: int
    max_epochs: int
    patience: int
    seed: int


@dataclass
class TrainHistory:
    train_loss: list[float]
    train_acc: list[float]
    val_loss: list[float]
    val_acc: list[float]

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


_ALIGN = 8  # float64s in 64 bytes, the boundary every workspace buffer starts on


def _padded(n: int) -> int:
    """n float64s rounded up to a whole number of 64-byte lines."""
    return -(-n // _ALIGN) * _ALIGN


class GruWorkspace:
    """The buffers of one GRU forward pass, and of the backward pass that
    reads it, for one shape: T steps, H hidden units, d inputs and a batch
    of B, with the per-step views into them built once.

    Time-stacked state is feature-major, [H, B] per step, so that each gate
    block is a contiguous row slice:
    - x [T*B, d+1] holds the input frames, row t*B + b for example b at
      step t, and a last column of ones, so that the bias rides in the
      input projection and its gradient in dW's matrix product; Wb [3H, d+1]
      holds [W | b];
    - hs [T+1, H, B] the states, hs[0] = 0 and hs[t+1] the state after step
      t, which the dense head reads;
    - a [S, 3H, B] the biased input projections W @ x_t + b, zr [S, 2H, B]
      the update and reset gates, rh [S, H, B] r * h_prev, h_cand [S, H, B]
      the candidate states and diff [S, H, B] h_prev - h_cand.

    A workspace for backward (training) keeps all S = T steps of that
    scratch, which gru_backward reads, and its own buffers: the gate
    pre-activation gradients da_steps [T, 3H, B], copied after the time
    loop into da [3H, T*B] (column t*B + b), so that each weight gradient
    is one matrix product over all T*B columns. A forward-only workspace
    (validation, prediction) keeps S = 1 step, which every step overwrites,
    and no backward buffers.

    The buffers are views into a GruScratch's one buffer, carved in the
    order of _buffers, each on a 64-byte boundary; workspaces of other
    shapes overwrite them. So no pass reads a value that the constructor
    left: the values read without being written by the pass, the ones
    column of x and hs[0] = 0, and in a workspace for backward rh[0] = 0
    and da_r at step 0 = 0 (the first step reads only h0 = 0, so neither is
    written), are written by reset(), which GruScratch calls whenever the
    workspace takes the buffer from another shape.
    """

    @staticmethod
    def _buffers(T: int, H: int, d: int, B: int, backward: bool):
        """(name, shape) of each buffer, in the order they are carved."""
        S = T if backward else 1  # steps of scratch kept
        out = [("x", (T * B, d + 1)), ("Wb", (3 * H, d + 1)), ("a", (S, 3 * H, B)),
               ("hs", (T + 1, H, B)), ("zr", (S, 2 * H, B)), ("rh", (S, H, B)),
               ("h_cand", (S, H, B)), ("diff", (S, H, B))]
        if backward:
            # slope is sigmoid' of z and r; f_z, f_c and f_r are d(h_t)/d(pre-
            # activation) of the z, candidate and r gates (the r factor is the
            # gradient w.r.t. r * h_prev, not h_t); rows is a row-layout copy of
            # h_prev, then of r * h_prev
            out += [("slope", (T, 2 * H, B)), ("f_z", (T, H, B)), ("f_c", (T, H, B)),
                    ("f_r", (T, H, B)), ("da_steps", (T, 3 * H, B)), ("da", (3 * H, T * B)),
                    ("dWb", (3 * H, d + 1)), ("rows", (T * B, H)), ("dh", (H, B)),
                    ("ds", (H, B)), ("term", (H, B)), ("carry", (H, B))]
        return out

    @staticmethod
    def floats(T: int, H: int, d: int, B: int, backward: bool) -> int:
        """The float64s a buffer needs to hold this shape's workspace: every
        buffer padded to 64 bytes, and room to move the first onto a
        64-byte boundary."""
        return _ALIGN - 1 + sum(_padded(math.prod(shape))
                                for _, shape in GruWorkspace._buffers(T, H, d, B, backward))

    def __init__(self, T: int, H: int, d: int, B: int, backward: bool, buffer: np.ndarray):
        """Views into `buffer`, a float64 vector of at least floats(...)
        elements; their values are unset until reset()."""
        H2 = 2 * H
        self.shape = (T, H, d, B)
        self.backward = backward
        at = -(buffer.ctypes.data // buffer.itemsize) % _ALIGN  # the first 64-byte boundary
        for name, shape in self._buffers(T, H, d, B, backward):
            size = math.prod(shape)
            setattr(self, name, buffer[at : at + size].reshape(shape))
            at += _padded(size)
        self.x_steps = self.x[:, :d].reshape(T, B, d)
        self.x_cols = self.x.reshape(T, B, d + 1).transpose(0, 2, 1)  # [d+1, B] per step
        a, hs, zr = self.a, self.hs, self.zr
        S = len(a)
        self.forward_steps = []
        for t in range(T):
            k = t % S  # the step's own scratch, or the one step kept
            self.forward_steps.append(
                (a[k, :H2], a[k, H2:], hs[t], zr[k], zr[k, :H], zr[k, H:], self.rh[k],
                 self.h_cand[k], self.diff[k], hs[t + 1]))
        if backward:
            da = self.da_steps
            self.backward_steps = [
                (self.f_z[t], self.f_c[t], self.f_r[t], zr[t, :H], zr[t, H:],
                 da[t, :H], da[t, H:H2], da[t, :H2], da[t, H2:])
                for t in range(T)
            ]

    def reset(self) -> None:
        """Write the values the passes read but never write: the ones
        column of x, hs[0] = 0, and for backward rh[0] = 0 and da_r at
        step 0 = 0."""
        T, H, d, B = self.shape
        self.x[:, d] = 1.0
        self.hs[0] = 0.0
        if self.backward:
            self.rh[0] = 0.0
            self.da_steps[0, H : 2 * H] = 0.0


class GruScratch:
    """The one float64 buffer that every GruWorkspace of a run is carved
    from, so that the run holds the largest workspace it needs rather than
    the sum of them.

    Each shape and kind, (T, H, d, B, backward), gets its views built once
    and cached. A request larger than the buffer replaces the buffer and
    drops every cached workspace. Workspaces of different shapes overlap,
    so a forward pass of any shape overwrites what a pass of another left:
    a cache returned by gru_forward, and the arrays returned with it, are
    valid only until the next forward pass on the same GruScratch.
    """

    def __init__(self):
        self.buffer = np.empty(0)
        self._workspaces: dict = {}
        self._last = None  # the shape and kind that used the buffer last

    def workspace(self, T: int, H: int, d: int, B: int, backward: bool) -> GruWorkspace:
        """The workspace of this shape and kind, its constant values
        written again if another shape used the buffer since it did."""
        key = (T, H, d, B, backward)
        ws = self._workspaces.get(key)
        if ws is None:
            need = GruWorkspace.floats(*key)
            if need > self.buffer.size:
                # drop the old buffer's views, then the buffer, before the new one is made
                self._workspaces.clear()
                self.buffer = None
                self.buffer = np.empty(need)
            ws = self._workspaces[key] = GruWorkspace(*key, self.buffer)
        if self._last != key:
            ws.reset()
            self._last = key
        return ws


def gru_cell_forward(U_zr, U_c, step):
    """One GRU step after the first for a batch, feature-major, written into
    preallocated arrays.

    U_zr [2H, H] and U_c [H, H] are the recurrent weights of the update and
    reset gates and of the candidate. `step` is one entry of
    GruWorkspace.forward_steps: the step's biased input projections a_zr
    [2H, B] and a_c [H, B], the previous state h_prev [H, B], and the
    arrays written here: the gates zr [2H, B] with their z and r halves,
    rh = r * h_prev, the candidate state h_cand, diff = h_prev - h_cand and
    the new state h_t, each [H, B]; h_t is returned.
    """
    a_zr, a_c, h_prev, zr, z, r, rh, h_cand, diff, h_t = step
    np.matmul(U_zr, h_prev, zr)
    zr += a_zr
    sigmoid(zr, out=zr)
    np.multiply(r, h_prev, rh)
    np.matmul(U_c, rh, h_cand)
    h_cand += a_c
    np.tanh(h_cand, h_cand)
    # z * h_prev + (1 - z) * h_cand, as h_cand + z * (h_prev - h_cand)
    np.subtract(h_prev, h_cand, diff)
    np.multiply(diff, z, h_t)
    h_t += h_cand
    return h_t


def gru_forward(p: GruParams, xs, scratch: GruScratch, backward: bool):
    """Run the recurrence from h0 = 0 over xs [T, batch, input_dim].

    Time is the leading axis. The work runs in the GruWorkspace of this
    shape and kind, (T, H, d, batch, backward), carved from `scratch`;
    only a workspace built for backward can be passed to gru_backward.
    Such a workspace forms the biased input projection W @ x_t + b of all
    T steps in one product before the loop; a forward-only one forms each
    step's in its one step of scratch. The first step reads only h0 = 0,
    so it has no recurrent products and runs here; each later step is one
    gru_cell_forward. Returns (hs [T, batch, H], cache) with hs[t] the
    hidden state after step t, a view into the cache, which is the
    GruWorkspace and valid only until the next forward pass of any shape
    on `scratch`.
    """
    T, B, d = xs.shape
    H = p.hidden_dim
    ws = scratch.workspace(T, H, d, B, backward)
    np.copyto(ws.x_steps, xs)
    np.copyto(ws.Wb[:, :d], p.W)
    np.copyto(ws.Wb[:, d], p.b)
    if backward:
        np.matmul(ws.Wb, ws.x_cols, ws.a)
    U_zr, U_c = p.U[: 2 * H], p.U[2 * H :]
    for t, step in enumerate(ws.forward_steps):
        if not backward:
            np.matmul(ws.Wb, ws.x_cols[t], ws.a[0])
        if t:
            gru_cell_forward(U_zr, U_c, step)
        else:  # gru_cell_forward at h_prev = 0: no recurrent part, and rh stays 0
            a_zr, a_c, h_prev, zr, z, _, _, h_cand, diff, h_t = step
            sigmoid(a_zr, out=zr)
            np.tanh(a_c, h_cand)
            np.subtract(h_prev, h_cand, diff)
            np.multiply(diff, z, h_t)
            h_t += h_cand
    return ws.hs[1:].transpose(0, 2, 1), ws


def gru_backward(p: GruParams, cache: GruWorkspace, grad_hs, out: GruParams):
    """Exact BPTT through the recurrence, from a forward pass in a workspace
    built for backward.

    grad_hs[t] ([T, batch, H]) is the loss gradient flowing into hs[t]
    from above. It is read through its [T, H, batch] transpose, which is
    contiguous when it comes from dense_backward through model_backward.
    Only the state gradient and the three gate gradients are carried
    through the time loop, in the workspace's buffers; the parameter
    gradients are one matrix product each over all T*batch columns
    afterwards (dW with db), summed over time and batch and written into
    `out`. Returns da [T, batch, 3H], the gradient w.r.t. each step's gate
    pre-activations in [z, r, h] order, a view into the workspace. The
    gradients w.r.t. the input frames, if wanted, are da @ W.
    """
    ws = cache
    T, H, d, B = ws.shape
    H2 = 2 * H
    h_prev, slope, f_z, f_c, f_r = ws.hs[:-1], ws.slope, ws.f_z, ws.f_c, ws.f_r
    np.subtract(1.0, ws.zr, slope)
    slope *= ws.zr
    np.multiply(ws.diff, slope[:, :H], f_z)
    np.subtract(1.0, ws.zr[:, :H], f_r)  # 1 - z, f_r as scratch
    np.multiply(ws.h_cand, ws.h_cand, f_c)
    np.subtract(1.0, f_c, f_c)
    f_c *= f_r
    np.multiply(h_prev, slope[:, H:], f_r)
    U_zr_T, U_c_T = p.U[:H2].T, p.U[H2:].T
    grad = grad_hs.transpose(0, 2, 1)
    dh, ds, term, carry = ws.dh, ws.ds, ws.term, ws.carry
    carry[...] = 0.0
    for t in range(T - 1, -1, -1):
        f_z_t, f_c_t, f_r_t, z, r, da_z, da_r, da_zr, da_c = ws.backward_steps[t]
        np.add(grad[t], carry, dh)
        np.multiply(dh, f_c_t, da_c)
        np.multiply(dh, f_z_t, da_z)
        if t:  # at t = 0, h_prev = 0: da_r stays 0 and nothing flows further back
            np.matmul(U_c_T, da_c, ds)  # gradient into r * h_prev
            np.multiply(ds, f_r_t, da_r)
            # carry = dh * z + ds * r + U_zr.T @ da_zr, summed left to right
            np.multiply(dh, z, carry)
            np.multiply(ds, r, term)
            carry += term
            np.matmul(U_zr_T, da_zr, term)
            carry += term
    da, rows, rows_steps = ws.da, ws.rows, ws.rows.reshape(T, B, H)
    np.copyto(da.reshape(3 * H, T, B), ws.da_steps.transpose(1, 0, 2))
    np.matmul(da, ws.x, ws.dWb)
    np.copyto(out.W, ws.dWb[:, :d])
    np.copyto(out.b, ws.dWb[:, d])
    np.copyto(rows_steps, h_prev.transpose(0, 2, 1))
    np.matmul(da[:H2], rows, out.U[:H2])
    np.copyto(rows_steps, ws.rh.transpose(0, 2, 1))
    np.matmul(da[H2:], rows, out.U[H2:])
    return ws.da_steps.transpose(0, 2, 1)


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
    return v @ p.W.T + p.b


def dense_backward(p: DenseParams, v, grad_logits, out: DenseParams):
    """Gradients of the affine map, summed over the batch: dW and db are
    written into `out`, and dv [B, flat_dim] is returned, the transpose of
    W.T @ grad_logits.T, laid out [flat_dim, B] like the GRU's states.
    """
    np.matmul(grad_logits.T, v, out.W)
    grad_logits.sum(axis=0, out=out.b)
    return (p.W.T @ grad_logits.T).T


def softmax_cross_entropy_batch(logits, labels):
    """Numerically stable per-example losses and gradients for [batch, classes].

    The only softmax in the package: grads are the softmax probabilities
    of the logits minus the one-hot labels, so each row sums to 0.
    """
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    losses = log_z[:, 0] - shifted[rows, labels]
    grads = np.exp(shifted - log_z)
    grads[rows, labels] -= 1.0
    return losses, grads


def model_forward(model: Model, xs_batch, scratch: GruScratch, backward: bool):
    """Full forward pass for a [batch, T, input_dim] array, in the GRU
    workspace of its shape and kind carved from `scratch` (see
    gru_forward): `backward` says whether model_backward will read it.

    Returns (logits [batch, classes], cache for model_backward); the cache
    is valid until the next forward pass on `scratch`.
    """
    xs = xs_batch.swapaxes(0, 1)  # [T, B, d]
    hs, gru_cache = gru_forward(model.gru, xs, scratch, backward)  # [T, B, H]
    v = flatten(hs)
    logits = dense_forward(model.dense, v)
    return logits, (gru_cache, v)


def model_backward(model: Model, cache, grad_logits, out: Model) -> None:
    """Full backward pass: the parameter gradients, summed over the batch,
    are written into `out`, a Model-shaped set of arrays."""
    gru_cache, v = cache
    dv = dense_backward(model.dense, v, grad_logits, out.dense)
    T, H, _, _ = gru_cache.shape
    gru_backward(model.gru, gru_cache, unflatten(dv, T, H), out.gru)


def predict_batch(model: Model, X):
    """Class ids of [batch, T, input_dim]: the argmax of the logits, ties to
    the lowest class id.

    The weights and X are finite (load_checkpoint or train's traps, and
    apply_normalization, see to that), so only an overflow or invalid
    operation in the forward pass can spoil the logits. That traps as a
    NumericError: such a model predicts nothing.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            logits, _ = model_forward(model, X, GruScratch(), False)
    except FloatingPointError as exc:
        raise NumericError(f"the model's forward pass failed: {exc}") from None
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
        ends = np.cumsum([arr.size for _, arr in items])
        self.arrays = {name: self.vector[end - arr.size : end].reshape(arr.shape)
                       for (name, arr), end in zip(items, ends)}

    def model(self, config: ModelConfig) -> Model:
        """A Model over these arrays, named as Model.param_items names them."""
        a = self.arrays
        return Model(config, GruParams(a["gru.W"], a["gru.U"], a["gru.b"]),
                     DenseParams(a["dense.W"], a["dense.b"]))


def adam_step(params: FlatParams, grads: FlatParams, state: dict, t: int, cfg: TrainConfig) -> None:
    """One Adam update with bias correction, in place on the whole parameter vector.

    `state` holds the moment vectors m and v and two scratch vectors; it
    starts empty. The operations are those of the textbook per-array
    update, in the same order.
    """
    g = grads.vector
    if not state:
        state.update((k, np.zeros_like(g)) for k in ("m", "v", "step", "denom"))
    m, v, step, denom = state["m"], state["v"], state["step"], state["denom"]
    m *= _ADAM_BETA1
    np.multiply(g, 1.0 - _ADAM_BETA1, step)
    m += step
    v *= _ADAM_BETA2
    np.multiply(g, 1.0 - _ADAM_BETA2, step)
    step *= g
    v += step
    np.divide(m, 1.0 - _ADAM_BETA1**t, step)  # m_hat
    step *= cfg.learning_rate
    np.divide(v, 1.0 - _ADAM_BETA2**t, denom)  # v_hat
    np.sqrt(denom, denom)
    denom += _ADAM_EPSILON
    step /= denom
    params.vector -= step


def sgd_step(params: FlatParams, grads: FlatParams, state: dict, t: int, cfg: TrainConfig) -> None:
    """Plain gradient descent step; state and t kept for API symmetry."""
    params.vector -= cfg.learning_rate * grads.vector


# ---------------------------------------------------------------------------
# training


def evaluate_model(model: Model, X, y, scratch: GruScratch) -> tuple[float, float]:
    """Mean loss and accuracy over a [n, T, d] set, fixed summation order;
    a prediction is the argmax of the logits, as in predict_batch. The
    forward pass runs in a forward-only workspace carved from `scratch`,
    as model_forward's does, so it ends the validity of any earlier cache
    on `scratch`.
    """
    logits, _ = model_forward(model, X, scratch, False)
    losses, _ = softmax_cross_entropy_batch(logits, y)
    return float(np.mean(losses)), float(np.mean(logits.argmax(axis=1) == y))


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
    flat vector. One GruScratch serves the whole run, so it holds only the
    largest of its GRU workspaces: one built for backward for the full
    batch and for the last partial batch, and a forward-only one, with one
    step of scratch, for the validation set. They share one buffer, which
    the order here makes safe: each batch runs forward, backward and its
    step before the next forward pass, and the validation pass runs after
    the epoch's last step.

    The features are finite (the CSV reader and apply_normalization check
    them), and every step runs under raised floating-point traps, so a value
    that is not finite raises at once as "training diverged: ..."; no loss,
    gradient or parameter is checked again.
    """
    (X_tr, y_tr), (X_va, y_va) = train_data, val_data
    params, model, grads, grad_model = _flat_copy(init_model(model_cfg))
    opt_state: dict = {}
    scratch = GruScratch()
    step_fn = adam_step if cfg.optimizer == "adam" else sgd_step
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory([], [], [], [])
    best_loss = np.inf
    best = params.vector.copy()
    wait = 0
    t = 0
    n = len(y_tr)
    epoch = batch = 0
    try:
        # an overflow or invalid operation anywhere in a step is divergence,
        # as predict_batch would find it, and not a warning before the error
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(cfg.max_epochs):
                perm = rng.permutation(n)
                loss_sum = np.float64(0.0)  # a numpy sum, so that its overflow traps too
                correct = 0
                for batch, start in enumerate(range(0, n, cfg.batch_size)):
                    sel = perm[start : start + cfg.batch_size]
                    xb, yb = X_tr[sel], y_tr[sel]
                    logits, cache = model_forward(model, xb, scratch, True)
                    losses, grad_logits = softmax_cross_entropy_batch(logits, yb)
                    loss_sum += losses.sum()
                    correct += int((logits.argmax(axis=1) == yb).sum())
                    model_backward(model, cache, grad_logits / len(sel), out=grad_model)
                    t += 1
                    step_fn(params, grads, opt_state, t, cfg)
                batch = None  # the validation pass
                val_loss, val_acc = evaluate_model(model, X_va, y_va, scratch)
                history.train_loss.append(float(loss_sum / n))
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
    except FloatingPointError as exc:
        where = "validation" if batch is None else f"batch {batch}"
        raise NumericError(f"training diverged: {exc} at epoch {epoch}, {where}") from None
    params.vector[...] = best
    return model, history


# ---------------------------------------------------------------------------
# persistence


def dataset_to_sequences(features: np.ndarray, seq_len: int) -> np.ndarray:
    """Reshape a [n, n_features] matrix into [n, seq_len, n_features/seq_len]."""
    n, f = features.shape
    if f % seq_len:
        raise ConfigError(f"{f} features not divisible by sequence length {seq_len}")
    return features.reshape(n, seq_len, f // seq_len)


def save_checkpoint(path: str, model: Model, class_names: list[str], feature_names: list[str],
                    normalization) -> None:
    """Versioned JSON checkpoint; float repr keeps the roundtrip bit-exact.

    The GRU is written as one key per gate block (W_z, W_r, W_h, U_z, ...),
    next to the names of the feature columns the model reads, in order, and
    the NormalizationParams fitted on the model's training split.
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
        "feature_names": list(feature_names),
        "normalization": normalization.to_dict(),
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
    """Returns (model, class_names, feature_names, normalization).

    Anything but a well-formed version-2 checkpoint is a DataError, such as
    one without the normalization its model was trained on, or one of
    version 1, which holds no feature names.
    """
    from .dsp import NormalizationParams

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {doc.get('format_version')}")
    for key in ("model_config", "gru", "dense", "normalization"):
        if not isinstance(doc.get(key, {}), dict):
            raise DataError(f"checkpoint {path}: {key} is not a JSON object")
    try:
        cfg = ModelConfig(**doc["model_config"])
        for name in ("input_dim", "hidden_dim", "sequence_length", "n_classes"):
            value = getattr(cfg, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise DataError(f"model_config's {name} must be an integer >= 1, got {value!r}")
        H, C = cfg.hidden_dim, cfg.n_classes
        gru = GruParams(*(
            np.concatenate([_array(doc["gru"], f"{name}_{gate}", shape) for gate in GATES])
            for name, shape in (("W", (H, cfg.input_dim)), ("U", (H, H)), ("b", (H,)))
        ))
        dense = DenseParams(
            _array(doc["dense"], "W", (C, H * cfg.sequence_length)), _array(doc["dense"], "b", (C,))
        )
        n_features = cfg.input_dim * cfg.sequence_length
        for key, count in (("class_names", C), ("feature_names", n_features)):
            names = doc[key]
            if not (isinstance(names, list) and len(names) == count
                    and all(isinstance(n, str) for n in names) and len(set(names)) == count):
                raise DataError(f"{key} must list {count} distinct strings")
        norm = NormalizationParams.from_dict(doc["normalization"])
        if len(norm.lo) != n_features:
            raise DataError(f"normalization covers {len(norm.lo)} features, the model "
                            f"{n_features}")
    except KeyError as exc:
        raise DataError(f"checkpoint {path} lacks key {exc}") from None
    except (TypeError, ValueError, PipelineError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from None
    return Model(cfg, gru, dense), doc["class_names"], doc["feature_names"], norm


_HISTORY_COLUMNS = ("train_loss", "train_acc", "val_loss", "val_acc")


def save_history(history: TrainHistory, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *_HISTORY_COLUMNS])
        rows = zip(*(getattr(history, col) for col in _HISTORY_COLUMNS))
        for epoch, row in enumerate(rows, start=1):
            writer.writerow([epoch, *map(repr, row)])


def load_history(path: str) -> TrainHistory:
    """Read a history CSV (dataio._read_numeric_csv): unique column names,
    the four of _HISTORY_COLUMNS among them, and a finite number, which has
    a place on a curve, in every cell."""
    names, values, _ = dataio._read_numeric_csv(
        path, dataio._unique_columns_with(*_HISTORY_COLUMNS))
    return TrainHistory(*(values[:, names.index(col)].tolist() for col in _HISTORY_COLUMNS))
