"""Central-difference check of the GRU classifier's exact BPTT gradients,
the oracle shared by acceptance criterion 1 and tests/test_nn.py."""

import numpy as np

from eegpipe import nn
from eegpipe.errors import ConfigError


def gradient_check(model: nn.Model, X, labels, eps: float = 1e-5):
    """Central-difference check of the gradient of the mean loss over a
    [batch, T, input_dim] array, on a copy of model's parameters.

    Returns (max relative error, path of the worst scalar parameter).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigError("eps must lie in [1e-7, 1e-3]")
    params = nn.FlatParams(model.param_items())
    grads = nn.FlatParams((name, np.zeros_like(arr)) for name, arr in model.param_items())
    work, grad_model = params.model(model.config), grads.model(model.config)

    def loss_fn():
        logits, cache = nn.model_forward(work, X, nn.GruScratch(), True)
        losses, grad = nn.softmax_cross_entropy_batch(logits, labels)
        return float(np.mean(losses)), cache, grad / len(losses)

    _, cache, grad_logits = loss_fn()
    nn.model_backward(work, cache, grad_logits, out=grad_model)
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
            worst_path = _path(params, i)
    return worst, worst_path


def _path(params: nn.FlatParams, i: int) -> str:
    """The path name[k] of entry i of params.vector, which is entry k of the
    named array."""
    for name, arr in params.arrays.items():
        if i < arr.size:
            return f"{name}[{i}]"
        i -= arr.size
    raise IndexError("entry outside the parameter vector")
