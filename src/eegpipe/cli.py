"""Command-line pipeline: synth -> featurize -> split -> train -> evaluate
-> compare -> report.

Exit codes are a stable contract: 0 success, 1 usage/config error,
2 data error, 3 numeric failure. One global seed derives every
component seed as the first four bytes of sha256("<seed>:<component>"),
so a whole run is reproducible from a single integer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, baselines, dataio, dsp, evaluation, nn
from .errors import ConfigError, DataError, NumericError, PipelineError


def derive_seed(global_seed: int, component: str) -> int:
    digest = hashlib.sha256(f"{global_seed}:{component}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of exiting, so usage errors map to code 1."""

    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# settings: one row per tunable, shared by the parser and the config file.
# A converter takes a flag's string or a JSON value and returns the setting,
# or raises ValueError; it accepts its own output.


def _integer(value) -> int:
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except (ValueError, OverflowError):
        raise ValueError(f"expected a number, got {value!r}") from None


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _fractions(value) -> tuple[float, float, float]:
    """Train/val/test fractions: "0.6,0.2,0.2" or a list of three numbers."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)):
        raise ValueError(f"expected three comma-separated numbers, got {value!r}")
    fractions = tuple(_real(v) for v in parts)
    if len(fractions) != 3:
        raise ValueError(f"needs exactly three comma-separated values, got {value!r}")
    return fractions


class Setting(NamedTuple):
    """One tunable: its config-file key (also the argparse dest), its flag
    (None: config file only), converter, default in each command that reads
    it, and domain. A default of None means the command derives the value.
    The domain is (test, words), or None: any converted value passes, or the
    library checks it before any file is read (TrainConfig, SplitSpec, synth)."""

    key: str
    flag: str | None
    convert: Callable[[object], object]
    defaults: dict[str, object]
    domain: tuple[Callable[[object], bool], str] | None = None


_FEATURE = dsp.FeatureConfig()
_GRU = ("train", "compare")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "positive and finite")

SETTINGS = {s.key: s for s in [
    Setting("per_class", "--per-class", _integer, {"synth": 100}),
    # epoch length in samples; featurize keeps each recording whole if unset
    Setting("window_len", "--window-len", _integer, {"synth": 256, "featurize": None},
            _AT_LEAST_1),
    Setting("fs", "--fs", _real, {"synth": dataio.DEFAULT_SAMPLE_RATE_HZ}),
    # the window length if unset
    Setting("hop", "--hop", _integer, {"featurize": None}, _AT_LEAST_1),
    Setting("filter_low_hz", "--filter-low", _real, {"featurize": _FEATURE.filter_low_hz},
            _POSITIVE_FINITE),
    Setting("filter_high_hz", "--filter-high", _real, {"featurize": _FEATURE.filter_high_hz},
            _POSITIVE_FINITE),
    Setting("filter_order", "--filter-order", _integer, {"featurize": _FEATURE.filter_order},
            (lambda v: v in (2, 4, 6, 8), "one of 2, 4, 6, 8")),
    Setting("artifact_threshold_uv", "--threshold", _real,
            {"featurize": _FEATURE.artifact_threshold_uv}, (lambda v: v > 0, "> 0")),
    Setting("welch_segment_len", None, _integer, {"featurize": _FEATURE.welch_segment_len},
            (lambda v: v >= 2 and v & (v - 1) == 0, "a power of two >= 2")),
    Setting("welch_overlap", None, _real, {"featurize": _FEATURE.welch_overlap},
            (lambda v: 0 <= v < 1, "in [0, 1)")),
    Setting("fractions", "--fractions", _fractions,
            dict.fromkeys(("split", "compare"), (0.6, 0.2, 0.2))),
    Setting("label_column", "--label-column", _text,
            dict.fromkeys(("split", "train", "evaluate", "compare"), "label")),
    Setting("hidden", "--hidden", _integer, dict.fromkeys(_GRU, 32), _AT_LEAST_1),
    Setting("seq_len", "--seq-len", _integer, dict.fromkeys(_GRU, 4), _AT_LEAST_1),
    Setting("lr", "--lr", _real, dict.fromkeys(_GRU, 1e-3)),
    Setting("batch_size", "--batch-size", _integer, dict.fromkeys(_GRU, 32)),
    Setting("epochs", "--epochs", _integer, dict.fromkeys(_GRU, 150)),
    Setting("patience", "--patience", _integer, dict.fromkeys(_GRU, 10)),
    Setting("optimizer", "--optimizer", _text, dict.fromkeys(_GRU, "adam")),
    Setting("normalization", "--norm", _text, dict.fromkeys(_GRU, "zscore"),
            (lambda v: v in ("zscore", "minmax"), "zscore or minmax")),
    Setting("n_trees", "--n-trees", _integer, {"compare": 100}, _AT_LEAST_1),
    Setting("forest_depth", None, _integer, {"compare": 12}, _AT_LEAST_0),
    Setting("boost_rounds", "--boost-rounds", _integer, {"compare": 100}, _AT_LEAST_0),
    Setting("boost_depth", None, _integer, {"compare": 3}, _AT_LEAST_0),
    Setting("boost_lr", None, _real, {"compare": 0.1},
            (lambda v: 0 <= v < math.inf, "finite and >= 0")),
]}


def _convert(setting: Setting, value, where: str):
    try:
        value = setting.convert(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if setting.domain is not None and not setting.domain[0](value):
        raise ConfigError(f"{where}: {setting.key} must be {setting.domain[1]}, got {value!r}")
    return value


def resolve_settings(command: str, flags: dict, config: dict) -> dict:
    """The settings `command` reads: flag > config file > default.

    Every config key must name a setting, and every flag and file value
    must pass its converter. A key that only another command reads is
    checked and then ignored, so one file can serve the whole chain.
    """
    for key in config:
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
    from_file = {key: _convert(SETTINGS[key], value, f"config key {key!r}")
                 for key, value in config.items()}
    resolved = {}
    for s in SETTINGS.values():
        if command not in s.defaults:
            continue
        if flags.get(s.key) is not None:
            resolved[s.key] = _convert(s, flags[s.key], s.flag)
        else:
            resolved[s.key] = from_file.get(s.key, s.defaults[command])
    return resolved


def _announce(name: str, settings: dict) -> None:
    line = " ".join(f"{k}={v}" for k, v in settings.items())
    print(f"[eegpipe {name}] {line}")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    # synth_generate checks per_class, window_len and fs before anything is printed or written
    data, labels = dataio.synth_generate(args.per_class, args.window_len, args.fs,
                                         derive_seed(args.seed, "synth"))
    _announce("synth", {"per_class": args.per_class, "window_len": args.window_len,
                        "fs": args.fs, "seed": args.seed})
    os.makedirs(args.out, exist_ok=True)
    manifest_rows = []
    for i, (x, label) in enumerate(zip(data, labels)):
        fname = f"epoch_{i:04d}.csv"
        rec = dataio.Recording(dataio.DEFAULT_CHANNELS, args.fs, x, label=int(label))
        dataio.save_recording_csv(rec, os.path.join(args.out, fname))
        manifest_rows.append(
            (fname, dataio.SYNTH_CLASS_NAMES[label], args.fs, ";".join(dataio.DEFAULT_CHANNELS))
        )
    manifest_path = os.path.join(args.out, "manifest.csv")
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("file,label,sample_rate_hz,channels\n")
        for fname, label, rate, channels in manifest_rows:
            fh.write(f"{fname},{label},{rate},{channels}\n")
    print(f"wrote {len(labels)} epoch files + manifest to {args.out}")
    return 0


# samples per extract_features call when featurize stacks short recordings:
# few enough that a block's copies and temporaries stay small
FEATURE_BLOCK_SAMPLES = 1 << 13


def _feature_blocks(windows, kept):
    """Group consecutive recordings, in order, into blocks for one
    extract_features call each: recordings with the same window shape share
    a block of at most FEATURE_BLOCK_SAMPLES kept samples, and a recording
    at or above the budget is a block of its own. Yields each block as a
    list of (window view, kept indices) pairs, so that no epochs are copied
    before their block is used."""
    block, size = [], 0
    for w, k in zip(windows, kept):
        n = len(k) * math.prod(w.shape[1:])
        if block and (w.shape[1:] != block[0][0].shape[1:] or size + n > FEATURE_BLOCK_SAMPLES
                      or max(size, n) >= FEATURE_BLOCK_SAMPLES):
            yield block
            block, size = [], 0
        block.append((w, k))
        size += n
    if block:
        yield block


def _kept_epochs(block):
    """A block's kept epochs as one array: a lone recording's w[k] as it is."""
    if len(block) == 1:
        w, k = block[0]
        return w[k]
    return np.concatenate([w[k] for w, k in block])


def cmd_featurize(args) -> int:
    fc = dsp.FeatureConfig(
        filter_low_hz=args.filter_low_hz,
        filter_high_hz=args.filter_high_hz,
        filter_order=args.filter_order,
        artifact_threshold_uv=args.artifact_threshold_uv,
        welch_segment_len=args.welch_segment_len,
        welch_overlap=args.welch_overlap,
    )
    if args.window_len is not None and args.window_len < fc.welch_segment_len:
        raise ConfigError(f"window_len {args.window_len} is shorter than "
                          f"welch_segment_len {fc.welch_segment_len}")
    if fc.filter_low_hz >= fc.filter_high_hz:
        raise ConfigError(f"filter_low_hz {fc.filter_low_hz} is not below "
                          f"filter_high_hz {fc.filter_high_hz}")
    _announce(
        "featurize",
        {"manifest": args.manifest, "band": f"{fc.filter_low_hz}-{fc.filter_high_hz}Hz",
         "order": fc.filter_order, "threshold_uv": fc.artifact_threshold_uv},
    )
    entries, fs = dataio.read_manifest(args.manifest)
    if not entries:
        raise DataError("manifest lists no recordings")
    # the band is checked against the manifest's rate before any recording is read
    coeffs = dsp.design_butterworth_bandpass(
        fc.filter_low_hz, fc.filter_high_hz, fs, fc.filter_order
    )
    data_dir = os.path.dirname(os.path.abspath(args.manifest))
    recordings, class_names = dataio.load_raw_recordings(data_dir, args.manifest)
    channel_names = recordings[0].channels
    filtered = {}
    for n in dict.fromkeys(rec.n_samples for rec in recordings):
        idx = [i for i, rec in enumerate(recordings) if rec.n_samples == n]
        filtered.update(zip(idx, dsp.filtfilt(coeffs, [recordings[i].data for i in idx])))
    windows = [dataio.window_recording(filtered[i], args.window_len, args.hop)
               for i in range(len(recordings))]
    threshold = fc.artifact_threshold_uv
    kept = [dsp.reject_artifacts(w, threshold)[0] for w in windows]
    n_epochs, n_kept = sum(map(len, windows)), sum(map(len, kept))
    print(f"rejected {n_epochs - n_kept} of {n_epochs} epochs (threshold {threshold} uV)")
    if not n_kept:
        raise DataError("all epochs rejected; nothing to featurize")
    features, row = None, 0
    for block in _feature_blocks(windows, kept):
        # the epochs are a temporary of the call, freed before the next block is
        # stacked, and the rows go straight into one matrix: small arrays kept
        # between the blocks' temporaries fragment the heap, which grew peak RSS
        fv = dsp.extract_features(_kept_epochs(block), fs, fc, channel_names)
        if features is None:
            features = np.empty((n_kept, len(fv.names)))
        features[row : row + len(fv.values)] = fv.values
        row += len(fv.values)
    ds = dataio.Dataset(features,
                        np.repeat([rec.label for rec in recordings], list(map(len, kept))),
                        class_names, fv.names)
    dataio.save_feature_csv(ds, args.out)
    print(f"wrote {ds.n_examples} x {ds.n_features} feature matrix to {args.out}")
    return 0


def cmd_split(args) -> int:
    spec = dataio.SplitSpec(*args.fractions, seed=derive_seed(args.seed, "split"),
                            stratified=not args.no_stratify)
    _announce("split", {"input": args.input, "fractions": args.fractions, "seed": args.seed})
    ds = dataio.load_feature_csv(args.input, args.label_column)
    train, val, test = dataio.stratified_split(ds, spec)
    dataio.write_split(train, val, test, spec, args.out)
    print(f"split {ds.n_examples} rows -> "
          f"{train.n_examples}/{val.n_examples}/{test.n_examples} in {args.out}")
    return 0


def _train_config(args) -> nn.TrainConfig:
    """The GRU training settings of train and compare, checked before any file is read."""
    return nn.TrainConfig(
        optimizer=args.optimizer,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=derive_seed(args.seed, "train"),
    )


def _train_gru(train_ds, val_ds, args, train_cfg: nn.TrainConfig):
    """Shared by cmd_train and cmd_compare: normalize, reshape, train.
    Returns the model, its history, the normalization and the normalized
    training features."""
    norm = dsp.fit_normalization(train_ds.features, args.normalization)
    X_tr = dsp.apply_normalization(train_ds.features, norm)
    seqs_tr, seqs_va = (nn.dataset_to_sequences(X, args.seq_len)
                        for X in (X_tr, dsp.apply_normalization(val_ds.features, norm)))
    model_cfg = nn.ModelConfig(
        input_dim=seqs_tr.shape[2],
        hidden_dim=args.hidden,
        sequence_length=args.seq_len,
        n_classes=len(train_ds.class_names),
        seed=derive_seed(args.seed, "init"),
    )
    model, history = nn.train(model_cfg, (seqs_tr, train_ds.labels), (seqs_va, val_ds.labels),
                              train_cfg)
    return model, history, norm, X_tr


def cmd_train(args) -> int:
    train_cfg = _train_config(args)
    _announce("train", {"train": args.train, "val": args.val, "seed": args.seed})
    train_ds = dataio.load_feature_csv(args.train, args.label_column)
    val_ds = dataio.relabel(dataio.load_feature_csv(args.val, args.label_column),
                            train_ds.class_names)
    model, history, norm, _ = _train_gru(train_ds, val_ds, args, train_cfg)
    best = int(np.argmin(history.val_loss))
    os.makedirs(args.out, exist_ok=True)
    nn.save_checkpoint(os.path.join(args.out, "checkpoint.json"), model, train_ds.class_names, norm)
    nn.save_history(history, os.path.join(args.out, "history.csv"))
    print(f"trained {len(history)} epochs; best val_loss={history.val_loss[best]:.6f} "
          f"val_acc={history.val_acc[best]:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    _announce("evaluate", {"checkpoint": args.checkpoint, "test": args.test})
    model, class_names, norm = nn.load_checkpoint(args.checkpoint)
    test_ds = dataio.relabel(dataio.load_feature_csv(args.test, args.label_column), class_names)
    expected = norm.n_features if norm is not None else model.config.input_dim * model.config.sequence_length
    if test_ds.n_features != expected:
        raise DataError(
            f"feature count mismatch: checkpoint expects {expected}, "
            f"test set has {test_ds.n_features}"
        )
    feats = dsp.apply_normalization(test_ds.features, norm) if norm is not None else test_ds.features
    X = nn.dataset_to_sequences(feats, model.config.sequence_length)
    preds = nn.predict_batch(model, X)
    cm = evaluation.confusion(preds, test_ds.labels, len(class_names), class_names)
    report = evaluation.metrics(cm)
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_confusion_csv(cm, os.path.join(args.out, "confusion.csv"))
    evaluation.write_metrics_json(report, class_names, os.path.join(args.out, "metrics.json"))
    print(f"test accuracy {report.accuracy:.4f} macro_f1 {report.macro_f1:.4f}")
    return 0


def cmd_compare(args) -> int:
    spec = dataio.SplitSpec(*args.fractions, seed=derive_seed(args.seed, "split"), stratified=True)
    train_cfg = _train_config(args)
    _announce("compare", {"input": args.input, "seed": args.seed})
    ds = dataio.load_feature_csv(args.input, args.label_column)
    train_ds, val_ds, test_ds = dataio.stratified_split(ds, spec)
    n_classes = len(ds.class_names)

    results = []

    model, history, norm, X_tr = _train_gru(train_ds, val_ds, args, train_cfg)
    X_te = dsp.apply_normalization(test_ds.features, norm)
    y_tr, y_te = train_ds.labels, test_ds.labels
    results.append(("gru", nn.predict_batch(model, nn.dataset_to_sequences(X_te, args.seq_len))))

    logit = baselines.fit_logistic(X_tr, y_tr, n_classes)
    results.append(("logistic", baselines.predict_logistic(logit, X_te)))

    svm = baselines.fit_linear_svm(X_tr, y_tr, n_classes, seed=derive_seed(args.seed, "svm"))
    results.append(("linear_svm", baselines.predict_svm(svm, X_te)))

    forest = baselines.fit_forest(
        X_tr, y_tr, n_classes,
        n_trees=args.n_trees,
        max_depth=args.forest_depth,
        seed=derive_seed(args.seed, "forest"),
    )
    results.append(("random_forest", baselines.predict_forest(forest, X_te)))

    boost = baselines.fit_boosting(
        X_tr, y_tr, n_classes,
        n_rounds=args.boost_rounds,
        max_depth=args.boost_depth,
        learning_rate=args.boost_lr,
    )
    results.append(("gradient_boosting", baselines.predict_boost(boost, X_te)))

    os.makedirs(args.out, exist_ok=True)
    reports = []
    for name, preds in results:
        cm = evaluation.confusion(preds, y_te, n_classes, ds.class_names)
        rep = evaluation.metrics(cm)
        reports.append((name, rep))
        evaluation.write_metrics_json(
            rep, ds.class_names, os.path.join(args.out, f"metrics_{name}.json")
        )
    text = evaluation.compare_report(reports, args.out)
    nn.save_history(history, os.path.join(args.out, "history.csv"))
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    _announce("report", {"history": args.history})
    history = nn.load_history(args.history)
    print("wrote " + evaluation.emit_curves(history, args.out))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="eegpipe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"eegpipe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, *required: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
        p.add_argument("--config", help="JSON config file; CLI flags take precedence")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--verbose", action="store_true")
        for flag in required:
            p.add_argument(flag, required=True)
        for row in SETTINGS.values():
            if row.flag is not None and name in row.defaults:
                default = row.defaults[name]
                p.add_argument(row.flag, dest=row.key,
                               help=None if default is None else f"default: {default}")
        return p

    command("synth", "generate synthetic raw epochs + manifest")
    command("featurize", "manifest -> filter -> reject -> features CSV", "--manifest")
    command("split", "featured CSV -> train/val/test CSVs + sidecar", "--input").add_argument(
        "--no-stratify", action="store_true")
    command("train", "train the GRU classifier", "--train", "--val")
    command("evaluate", "checkpoint + test CSV -> confusion + metrics", "--checkpoint", "--test")
    command("compare", "train GRU + baselines on one split, emit table", "--input")
    command("report", "history CSV -> curves.svg", "--history")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        vars(args).update(resolve_settings(args.command, vars(args), _load_config(args.config)))
        # looked up at call time, so a wrapper installed on the module is honoured
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
