"""The rule that lets training and fitting skip finiteness checks of their
own: features are finite where they enter (the CSV reader and
apply_normalization check them), and nn.train's steps run under raised
floating-point traps. So, on normalized features of any finite scale,
fit_logistic returns finite weights, and nn.train returns a finite model
and history or stops with a NumericError."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eegpipe import baselines, dsp, nn
from eegpipe.errors import NumericError


@st.composite
def raw_columns(draw):
    """An [n, d] matrix whose columns are constant, of one scale, or of
    scales that differ entry by entry, with magnitudes from 1e-300 to 1e300,
    and labels of 2 or 3 classes."""
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["constant", "one_scale", "any_scale"]))
        size = 1 if kind == "constant" else n
        mantissas = draw(st.lists(st.floats(1.0, 9.99), min_size=size, max_size=size))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
        exponents = (draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n))
                     if kind == "any_scale" else [draw(st.integers(-300, 300))] * size)
        column = [s * m * 10.0**e for s, m, e in zip(signs, mantissas, exponents)]
        columns.append(column * n if kind == "constant" else column)
    k = draw(st.integers(2, 3))
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return np.array(columns).T, y, k


def normalized(X, mode):
    """apply_normalization(fit_normalization(X, mode)), or no example when
    the normalization itself refuses X."""
    try:
        return dsp.apply_normalization(X, dsp.fit_normalization(X, mode))
    except NumericError:
        assume(False)


@pytest.mark.filterwarnings("ignore:.*constant feature column")
@settings(max_examples=40, deadline=None)
@given(raw_columns(), st.sampled_from(["zscore", "minmax"]))
def test_fit_logistic_on_normalized_features_is_finite(problem, mode):
    X, y, k = problem
    model = baselines.fit_logistic(normalized(X, mode), y, k)
    assert np.isfinite(model.W).all() and np.isfinite(model.b).all()


@pytest.mark.filterwarnings("ignore:.*constant feature column")
@settings(max_examples=60, deadline=None)
@given(raw_columns(), st.sampled_from(["zscore", "minmax"]), st.floats(-6.0, 6.0),
       st.sampled_from(["adam", "sgd"]), st.integers(0, 2**32 - 1))
def test_train_on_normalized_features_is_finite_or_diverges(problem, mode, lr_exponent,
                                                             optimizer, seed):
    X, y, k = problem
    T = X.shape[1]  # one feature a step
    seqs = nn.dataset_to_sequences(normalized(X, mode), T)
    cfg = nn.TrainConfig(optimizer=optimizer, learning_rate=10.0**lr_exponent, batch_size=4,
                         max_epochs=3, patience=3, seed=seed)
    try:
        model, history = nn.train(nn.ModelConfig(1, 3, T, k, seed=seed), (seqs, y), (seqs, y),
                                  cfg)
    except NumericError as exc:
        assert str(exc).startswith("training diverged: ")
        return
    assert all(np.isfinite(arr).all() for _, arr in model.param_items())
    assert np.isfinite([history.train_loss, history.train_acc, history.val_loss,
                        history.val_acc]).all()
