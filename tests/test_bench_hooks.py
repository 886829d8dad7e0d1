"""The benchmark tracer's counters hang on named eegpipe functions: a rename
there silently drops a per-layer metric, so each name is checked here."""

import collections
import importlib
import json
import math
import os
import types

import numpy as np

from eegpipe import nn

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    """tracer.py as a module, compiled from its source so no bytecode is written."""
    module = types.ModuleType("bench_tracer")
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


def test_every_count_hook_names_a_traced_public_function():
    tracer = load_tracer()
    layers = {name.split(".")[0] for name in tracer.COUNT_HOOKS}
    modules = {layer: importlib.import_module(f"eegpipe.{layer}") for layer in layers}
    traced = {name for _, _, name in tracer.traced_functions(modules)}
    missing = sorted(set(tracer.COUNT_HOOKS) - traced)
    assert not missing, f"tracer hooks name no public eegpipe function: {missing}"


BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
SPAN_STATS = ("calls", "self_s", "total_s")


def test_every_per_layer_span_metric_names_a_traced_function():
    # a metric <layer>.<function>.<calls|self_s|total_s> of a function the
    # tracer does not wrap would silently read 0
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    metrics = [name for name in names
               if name.count(".") == 2 and name.rsplit(".", 1)[1] in SPAN_STATS]
    assert metrics
    tracer = load_tracer()
    layers = {name.split(".")[0] for name in metrics}
    modules = {layer: importlib.import_module(f"eegpipe.{layer}") for layer in layers}
    traced = {name for _, _, name in tracer.traced_functions(modules)}
    missing = [name for name in metrics if name.rsplit(".", 1)[0] not in traced]
    assert not missing, f"per-layer metrics name no traced eegpipe function: {missing}"


def test_train_call_census(monkeypatch):
    # the counts the benchmark's nn metrics read: one cell and one sigmoid
    # per step of every forward pass, one dense backward per batch, one
    # validation pass per epoch
    calls = collections.Counter()
    for name in ("gru_cell_forward", "sigmoid", "model_forward", "dense_backward",
                 "gru_backward", "evaluate_model"):
        fn = getattr(nn, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nn, name, counted)
    rng = np.random.default_rng(0)
    T, n, n_val, batch, epochs = 3, 20, 7, 6, 2
    X, y = rng.normal(size=(n, T, 2)), rng.integers(0, 2, n)
    Xv, yv = rng.normal(size=(n_val, T, 2)), rng.integers(0, 2, n_val)
    cfg = nn.ModelConfig(2, 4, T, 2, seed=1)
    tcfg = nn.TrainConfig(batch_size=batch, max_epochs=epochs, patience=epochs, seed=0)
    _, history = nn.train(cfg, (X, y), (Xv, yv), tcfg)
    batches = epochs * math.ceil(n / batch)
    assert len(history) == epochs
    assert calls == {
        "gru_cell_forward": T * (batches + epochs), "sigmoid": T * (batches + epochs),
        "model_forward": batches + epochs, "dense_backward": batches,
        "gru_backward": batches, "evaluate_model": epochs,
    }
