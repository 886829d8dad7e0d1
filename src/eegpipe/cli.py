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
import os
import sys

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


def _resolve(args, config: dict, key: str, default):
    """Config precedence: CLI flag > config file > built-in default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _announce(name: str, settings: dict, verbose: bool) -> None:
    line = " ".join(f"{k}={v}" for k, v in settings.items())
    print(f"[eegpipe {name}] {line}")
    del verbose


def _feature_config(args, config: dict) -> dsp.FeatureConfig:
    fc = dsp.FeatureConfig()
    fc.filter_low_hz = float(_resolve(args, config, "filter_low_hz", fc.filter_low_hz))
    fc.filter_high_hz = float(_resolve(args, config, "filter_high_hz", fc.filter_high_hz))
    fc.filter_order = int(_resolve(args, config, "filter_order", fc.filter_order))
    fc.artifact_threshold_uv = float(
        _resolve(args, config, "artifact_threshold_uv", fc.artifact_threshold_uv)
    )
    fc.welch_segment_len = int(_resolve(args, config, "welch_segment_len", fc.welch_segment_len))
    fc.welch_overlap = float(_resolve(args, config, "welch_overlap", fc.welch_overlap))
    fc.normalization = str(_resolve(args, config, "normalization", fc.normalization))
    return fc


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    config = _load_config(args.config)
    per_class = int(_resolve(args, config, "per_class", 100))
    window_len = int(_resolve(args, config, "window_len", 256))
    fs = float(_resolve(args, config, "fs", dataio.DEFAULT_SAMPLE_RATE_HZ))
    seed = derive_seed(args.seed, "synth")
    if per_class < 1:
        raise ConfigError("--per-class must be >= 1")
    _announce("synth", {"per_class": per_class, "window_len": window_len, "fs": fs,
                        "seed": args.seed}, args.verbose)
    epochs = dataio.synth_generate(per_class, window_len, fs, seed)
    os.makedirs(args.out, exist_ok=True)
    manifest_rows = []
    for i, ep in enumerate(epochs):
        fname = f"epoch_{i:04d}.csv"
        rec = dataio.Recording(dataio.DEFAULT_CHANNELS, fs, ep.data, label=ep.label)
        dataio.save_recording_csv(rec, os.path.join(args.out, fname))
        manifest_rows.append(
            (fname, dataio.SYNTH_CLASS_NAMES[ep.label], fs, ";".join(dataio.DEFAULT_CHANNELS))
        )
    manifest_path = os.path.join(args.out, "manifest.csv")
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("file,label,sample_rate_hz,channels\n")
        for fname, label, rate, channels in manifest_rows:
            fh.write(f"{fname},{label},{rate},{channels}\n")
    print(f"wrote {len(epochs)} epoch files + manifest to {args.out}")
    return 0


def cmd_featurize(args) -> int:
    config = _load_config(args.config)
    fc = _feature_config(args, config)
    window_len = getattr(args, "window_len", None)
    hop = getattr(args, "hop", None)
    _announce(
        "featurize",
        {"manifest": args.manifest, "band": f"{fc.filter_low_hz}-{fc.filter_high_hz}Hz",
         "order": fc.filter_order, "threshold_uv": fc.artifact_threshold_uv},
        args.verbose,
    )
    data_dir = os.path.dirname(os.path.abspath(args.manifest))
    recordings, class_names = dataio.load_raw_recordings(data_dir, args.manifest)
    if not recordings:
        raise DataError("manifest lists no recordings")
    coeffs = dsp.design_butterworth_bandpass(
        fc.filter_low_hz, fc.filter_high_hz, recordings[0].sample_rate_hz, fc.filter_order
    )
    epochs, channel_names, fs = [], recordings[0].channels, recordings[0].sample_rate_hz
    for rec in recordings:
        filtered = np.vstack([dsp.filtfilt(coeffs, ch) for ch in rec.data])
        frec = dataio.Recording(rec.channels, rec.sample_rate_hz, filtered, rec.label)
        wl = window_len if window_len is not None else frec.n_samples
        epochs.extend(dataio.window_recording(frec, wl, hop if hop is not None else wl))
    if fc.artifact_threshold_uv <= 0:
        print("warning: artifact threshold <= 0 rejects every epoch", file=sys.stderr)
        kept, rejected = [], len(epochs)
    else:
        kept, rejected = dsp.reject_artifacts(epochs, fc.artifact_threshold_uv)
    print(f"rejected {rejected} of {len(epochs)} epochs (threshold {fc.artifact_threshold_uv} uV)")
    if not kept:
        raise DataError("all epochs rejected; nothing to featurize")
    feats = [dsp.extract_features(ep, fs, fc, channel_names) for ep in kept]
    ds = dataio.Dataset(
        np.vstack([f.values for f in feats]),
        np.array([ep.label for ep in kept]),
        class_names,
        feats[0].names,
    )
    dataio.save_feature_csv(ds, args.out)
    print(f"wrote {ds.n_examples} x {ds.n_features} feature matrix to {args.out}")
    return 0


def _parse_fractions(args, config: dict) -> tuple[float, float, float]:
    """Train/val/test fractions from --fractions or the config file."""
    raw = _resolve(args, config, "fractions", "0.6,0.2,0.2")
    try:
        fractions = tuple(float(v) for v in (raw.split(",") if isinstance(raw, str) else raw))
    except (TypeError, ValueError):
        raise ConfigError(f"bad --fractions value {raw!r}") from None
    if len(fractions) != 3:
        raise ConfigError("--fractions needs exactly three comma-separated values")
    return fractions


def cmd_split(args) -> int:
    config = _load_config(args.config)
    fractions = _parse_fractions(args, config)
    spec = dataio.SplitSpec(*fractions, seed=derive_seed(args.seed, "split"),
                            stratified=not args.no_stratify)
    _announce("split", {"input": args.input, "fractions": fractions, "seed": args.seed},
              args.verbose)
    ds = dataio.load_feature_csv(args.input, args.label_column)
    train, val, test = dataio.stratified_split(ds, spec)
    sidecar = dataio.write_split(train, val, test, spec, args.out)
    print(f"split {ds.n_examples} rows -> "
          f"{train.n_examples}/{val.n_examples}/{test.n_examples} in {args.out}")
    del sidecar
    return 0


def _train_gru(train_ds, val_ds, args, config, seed: int):
    """Shared by cmd_train and cmd_compare: normalize, reshape, train."""
    norm_mode = str(_resolve(args, config, "normalization", "zscore"))
    seq_len = int(_resolve(args, config, "seq_len", 4))
    hidden = int(_resolve(args, config, "hidden", 32))
    norm = dsp.fit_normalization(train_ds.features, norm_mode)
    X_tr = nn.dataset_to_sequences(dsp.apply_normalization(train_ds.features, norm), seq_len)
    X_va = nn.dataset_to_sequences(dsp.apply_normalization(val_ds.features, norm), seq_len)
    model_cfg = nn.ModelConfig(
        input_dim=X_tr.shape[2],
        hidden_dim=hidden,
        sequence_length=seq_len,
        n_classes=len(train_ds.class_names),
        seed=derive_seed(seed, "init"),
    )
    train_cfg = nn.TrainConfig(
        optimizer=str(_resolve(args, config, "optimizer", "adam")),
        learning_rate=float(_resolve(args, config, "lr", 1e-3)),
        batch_size=int(_resolve(args, config, "batch_size", 32)),
        max_epochs=int(_resolve(args, config, "epochs", 150)),
        patience=int(_resolve(args, config, "patience", 10)),
        seed=derive_seed(seed, "train"),
    )
    model, history = nn.train(model_cfg, (X_tr, train_ds.labels), (X_va, val_ds.labels), train_cfg)
    return model, history, norm, seq_len


def cmd_train(args) -> int:
    config = _load_config(args.config)
    _announce("train", {"train": args.train, "val": args.val, "seed": args.seed}, args.verbose)
    train_ds = dataio.load_feature_csv(args.train, args.label_column)
    val_ds = dataio.relabel(dataio.load_feature_csv(args.val, args.label_column),
                            train_ds.class_names)
    os.makedirs(args.out, exist_ok=True)
    model, history, norm, _ = _train_gru(train_ds, val_ds, args, config, args.seed)
    val_loss = history.val_loss[int(np.argmin(history.val_loss))] if len(history) else float("nan")
    val_acc = history.val_acc[int(np.argmin(history.val_loss))] if len(history) else float("nan")
    nn.save_checkpoint(os.path.join(args.out, "checkpoint.json"), model, train_ds.class_names, norm)
    nn.save_history(history, os.path.join(args.out, "history.csv"))
    print(f"trained {len(history)} epochs; best val_loss={val_loss:.6f} val_acc={val_acc:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    _announce("evaluate", {"checkpoint": args.checkpoint, "test": args.test}, args.verbose)
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
    preds, _ = nn.predict_batch(model, X)
    cm = evaluation.confusion(preds, test_ds.labels, len(class_names), class_names)
    report = evaluation.metrics(cm)
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_confusion_csv(cm, os.path.join(args.out, "confusion.csv"))
    evaluation.write_metrics_json(report, class_names, os.path.join(args.out, "metrics.json"))
    print(f"test accuracy {report.accuracy:.4f} macro_f1 {report.macro_f1:.4f}")
    return 0


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    fractions = _parse_fractions(args, config)
    _announce("compare", {"input": args.input, "seed": args.seed}, args.verbose)
    ds = dataio.load_feature_csv(args.input, args.label_column)
    spec = dataio.SplitSpec(*fractions, seed=derive_seed(args.seed, "split"), stratified=True)
    train_ds, val_ds, test_ds = dataio.stratified_split(ds, spec)
    n_classes = len(ds.class_names)

    results = []

    model, history, norm, seq_len = _train_gru(train_ds, val_ds, args, config, args.seed)
    X_tr = dsp.apply_normalization(train_ds.features, norm)
    X_te = dsp.apply_normalization(test_ds.features, norm)
    y_tr, y_te = train_ds.labels, test_ds.labels
    preds, _ = nn.predict_batch(model, nn.dataset_to_sequences(X_te, seq_len))
    results.append(("gru", preds))

    logit = baselines.fit_logistic(X_tr, y_tr, n_classes)
    results.append(("logistic", baselines.predict_logistic(logit, X_te)[0]))

    svm = baselines.fit_linear_svm(X_tr, y_tr, n_classes, seed=derive_seed(args.seed, "svm"))
    results.append(("linear_svm", baselines.predict_svm(svm, X_te)[0]))

    forest = baselines.fit_forest(
        X_tr, y_tr, n_classes,
        n_trees=int(_resolve(args, config, "n_trees", 100)),
        max_depth=int(_resolve(args, config, "forest_depth", 12)),
        seed=derive_seed(args.seed, "forest"),
    )
    results.append(("random_forest", baselines.predict_forest(forest, X_te)[0]))

    boost = baselines.fit_boosting(
        X_tr, y_tr, n_classes,
        n_rounds=int(_resolve(args, config, "boost_rounds", 100)),
        max_depth=int(_resolve(args, config, "boost_depth", 3)),
        learning_rate=float(_resolve(args, config, "boost_lr", 0.1)),
    )
    results.append(("gradient_boosting", baselines.predict_boost(boost, X_te)[0]))

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
    _announce("report", {"history": args.history}, args.verbose)
    history = nn.load_history(args.history)
    written = evaluation.emit_curves(history, args.out)
    print("wrote " + ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="eegpipe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"eegpipe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
        p.add_argument("--config", help="JSON config file; CLI flags take precedence")
        p.add_argument("--out", default=out_default, required=out_default is None,
                       help="output path")
        p.add_argument("--verbose", action="store_true")
        p.add_argument("--label-column", default="label")

    p = sub.add_parser("synth", help="generate synthetic raw epochs + manifest")
    common(p)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--window-len", dest="window_len", type=int)
    p.add_argument("--fs", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="manifest -> filter -> reject -> features CSV")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--window-len", dest="window_len", type=int,
                   help="epoch length in samples (default: whole recording)")
    p.add_argument("--hop", type=int)
    p.add_argument("--filter-low", dest="filter_low_hz", type=float)
    p.add_argument("--filter-high", dest="filter_high_hz", type=float)
    p.add_argument("--filter-order", dest="filter_order", type=int)
    p.add_argument("--threshold", dest="artifact_threshold_uv", type=float)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("split", help="featured CSV -> train/val/test CSVs + sidecar")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--fractions")
    p.add_argument("--no-stratify", action="store_true")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the GRU classifier")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--hidden", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--optimizer")
    p.add_argument("--norm", dest="normalization")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="checkpoint + test CSV -> confusion + metrics")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train GRU + baselines on one split, emit table")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--fractions")
    p.add_argument("--hidden", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--optimizer")
    p.add_argument("--norm", dest="normalization")
    p.add_argument("--n-trees", dest="n_trees", type=int)
    p.add_argument("--boost-rounds", dest="boost_rounds", type=int)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="history CSV -> curves.csv + curves.svg")
    common(p)
    p.add_argument("--history", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
