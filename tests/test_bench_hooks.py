"""The benchmark tracer's counters hang on named eegpipe functions: a rename
there silently drops a per-layer metric, so each name is checked here, and
so is what each counter reads."""

import collections
import csv
import importlib
import json
import math
import os
import re
import types

import numpy as np

from conftest import train_config
from eegpipe import baselines, cli, dataio, dsp, nn

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


def test_each_count_hook_reads_what_it_claims(tmp_path, monkeypatch, capsys):
    # synth and featurize at 1 CPU, so every call is in this process; a low
    # threshold rejects some of the 3 windows of each recording
    monkeypatch.setattr(dataio, "_usable_cpus", lambda: 1)
    raw, n_recordings, n_ch, n = str(tmp_path / "raw"), 12, 4, 512
    tracer = load_tracer()
    with tracer.Tracer({"cli": cli, "dataio": dataio, "dsp": dsp}) as traced:
        assert cli.main(["synth", "--per-class", "4", "--window-len", str(n), "--seed", "1",
                         "--out", raw]) == 0
        assert cli.main(["featurize", "--manifest", os.path.join(raw, "manifest.csv"),
                         "--window-len", "256", "--hop", "128", "--threshold", "6",
                         "--out", str(tmp_path / "features.csv")]) == 0
    with open(os.path.join(raw, "manifest.csv"), newline="", encoding="utf-8") as fh:
        files = [row["file"] for row in csv.DictReader(fh)]
    assert len(files) == n_recordings
    raw_bytes = sum(os.path.getsize(os.path.join(raw, f)) for f in files)
    rejected, attempted = map(int, re.search(r"rejected (\d+) of (\d+) epochs",
                                             capsys.readouterr().out).groups())
    assert 0 < rejected < attempted == 3 * n_recordings
    # filtfilt pads each end by 3x the order (4) and filters forward and back
    padded = n_recordings * n_ch * (n + 2 * 3 * 4)
    assert traced.counts == {
        "dataio.raw_bytes_written": raw_bytes, "dataio.raw_bytes_read": raw_bytes,
        "dsp.samples_filtered": 2 * padded,
        "dsp.reject_artifacts.attempted": attempted,
        "dsp.reject_artifacts.kept": attempted - rejected,
    }


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
    # the counts the benchmark's nn metrics read: one sigmoid per step of
    # every forward pass and one cell per step after the first (gru_forward
    # runs the first step, from the zero state, itself), one dense backward
    # per batch, one validation pass per epoch
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
    tcfg = train_config(batch_size=batch, max_epochs=epochs, patience=epochs)
    _, history = nn.train(cfg, (X, y), (Xv, yv), tcfg)
    batches = epochs * math.ceil(n / batch)
    assert len(history) == epochs
    assert calls == {
        "gru_cell_forward": (T - 1) * (batches + epochs), "sigmoid": T * (batches + epochs),
        "model_forward": batches + epochs, "dense_backward": batches,
        "gru_backward": batches, "evaluate_model": epochs,
    }


def nodes_that_search(tree, X, max_depth):
    """How many nodes of a fitted tree were below max_depth with at least
    2 rows, and how many of those split, from the rows of X that reach each
    node."""
    searched = split = 0
    stack = [(0, np.arange(len(X)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if depth < max_depth and len(rows) >= 2:
            searched += 1
        if tree.left[node] >= 0:
            split += 1
            go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
            stack += [(tree.left[node], rows[go_left], depth + 1),
                      (tree.right[node], rows[~go_left], depth + 1)]
    return searched, split


def test_boosting_split_census(monkeypatch):
    # best_mse_split.calls and found_ratio read one call per node that reaches
    # the split search, returning a split exactly where the tree has one
    results = []
    best_mse_split = baselines.best_mse_split

    def counted(*args, **kwargs):
        results.append(best_mse_split(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(baselines, "best_mse_split", counted)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4)).round(1)
    y = (X[:, 0] + X[:, 1] ** 2 > 0.5).astype(int) + (X[:, 2] > 0.8)
    max_depth = 3
    model = baselines.fit_boosting(X, y, 3, n_rounds=4, max_depth=max_depth, learning_rate=0.1)
    counts = [nodes_that_search(tree, X, max_depth)
              for per_class in model.trees for tree in per_class]
    searched, found = map(sum, zip(*counts))
    assert found > len(counts)  # deeper than stumps
    assert len(results) == searched
    assert sum(r is not None for r in results) == found
