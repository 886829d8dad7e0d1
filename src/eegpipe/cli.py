"""Command-line pipeline: synth -> featurize -> split -> train -> evaluate
-> compare -> report.

Exit codes are a stable contract: 0 success, 1 usage/config error,
2 data error, 3 numeric failure. One global seed derives every
component seed as the first four bytes of sha256("<seed>:<component>"),
so a whole run is reproducible from a single integer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
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
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
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
    The domain is (test, words), or None: any converted value passes. The
    row is the setting's one default and one check; a command checks only
    how two of the settings it reads relate."""

    key: str
    flag: str | None
    convert: Callable[[object], object]
    defaults: dict[str, object]
    domain: tuple[Callable[[object], bool], str] | None = None


_GRU = ("train", "compare")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "positive and finite")
_FINITE_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")

SETTINGS = {s.key: s for s in [
    Setting("per_class", "--per-class", _integer, {"synth": 100}, _AT_LEAST_1),
    # epoch length in samples; featurize keeps each recording whole if unset
    Setting("window_len", "--window-len", _integer, {"synth": 256, "featurize": None},
            (lambda v: v >= 8, ">= 8")),
    Setting("fs", "--fs", _real, {"synth": 256.0}, _POSITIVE_FINITE),
    # the window length if unset
    Setting("hop", "--hop", _integer, {"featurize": None}, _AT_LEAST_1),
    Setting("filter_low_hz", "--filter-low", _real, {"featurize": 0.5}, _POSITIVE_FINITE),
    Setting("filter_high_hz", "--filter-high", _real, {"featurize": 45.0}, _POSITIVE_FINITE),
    Setting("filter_order", "--filter-order", _integer, {"featurize": 4},
            (lambda v: v in (2, 4, 6, 8), "one of 2, 4, 6, 8")),
    Setting("artifact_threshold_uv", "--threshold", _real, {"featurize": 100.0},
            (lambda v: v > 0, "> 0")),
    Setting("welch_segment_len", None, _integer, {"featurize": 256},
            (lambda v: v >= 2 and v & (v - 1) == 0, "a power of two >= 2")),
    Setting("welch_overlap", None, _real, {"featurize": 0.5}, (lambda v: 0 <= v < 1, "in [0, 1)")),
    Setting("fractions", "--fractions", _fractions,
            dict.fromkeys(("split", "compare"), (0.6, 0.2, 0.2)),
            (lambda v: all(0 < f < 1 for f in v) and abs(sum(v) - 1) <= 1e-9,
             "three numbers in (0, 1) that sum to 1")),
    Setting("label_column", "--label-column", _text,
            dict.fromkeys(("split", "train", "evaluate", "compare"), dataio.LABEL_COLUMN)),
    Setting("hidden", "--hidden", _integer, dict.fromkeys(_GRU, 32), _AT_LEAST_1),
    Setting("seq_len", "--seq-len", _integer, dict.fromkeys(_GRU, 4), _AT_LEAST_1),
    Setting("lr", "--lr", _real, dict.fromkeys(_GRU, 1e-3), _FINITE_NON_NEGATIVE),
    Setting("batch_size", "--batch-size", _integer, dict.fromkeys(_GRU, 32), _AT_LEAST_1),
    Setting("epochs", "--epochs", _integer, dict.fromkeys(_GRU, 150), _AT_LEAST_1),
    Setting("patience", "--patience", _integer, dict.fromkeys(_GRU, 10), _AT_LEAST_1),
    Setting("optimizer", "--optimizer", _text, dict.fromkeys(_GRU, "adam"),
            (lambda v: v in ("adam", "sgd"), "adam or sgd")),
    Setting("normalization", "--norm", _text, dict.fromkeys(_GRU, "zscore"),
            (lambda v: v in ("zscore", "minmax"), "zscore or minmax")),
    Setting("n_trees", "--n-trees", _integer, {"compare": 100}, _AT_LEAST_1),
    Setting("forest_depth", None, _integer, {"compare": 12}, _AT_LEAST_0),
    Setting("boost_rounds", "--boost-rounds", _integer, {"compare": 100}, _AT_LEAST_0),
    Setting("boost_depth", None, _integer, {"compare": 3}, _AT_LEAST_0),
    Setting("boost_lr", None, _real, {"compare": 0.1}, _FINITE_NON_NEGATIVE),
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
    must pass its converter and domain. A key that only another command reads is
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


# the models compare fits, in the order of its report
_COMPARED = ("gru", "logistic", "linear_svm", "random_forest", "gradient_boosting")
# the files each command writes under its --out directory, in the order it
# unpacks their paths: synth's epoch files follow its manifest, and
# featurize writes the file --out
_OUTPUT_NAMES = {
    "synth": ["manifest.csv"],
    "split": ["train.csv", "val.csv", "test.csv", "split.json"],
    "train": ["checkpoint.json", "history.csv"],
    "evaluate": ["confusion.csv", "metrics.json"],
    "compare": [*(f"metrics_{name}.json" for name in _COMPARED),
                "comparison.csv", "comparison.txt", "history.csv"],
    "report": ["curves.svg"],
}


def _output_paths(args) -> list[str]:
    if args.command == "featurize":
        return [args.out]
    names = _OUTPUT_NAMES[args.command]
    if args.command == "synth":
        names = names + [f"epoch_{i:04d}.csv"
                         for i in range(len(dataio.SYNTH_BANDS) * args.per_class)]
    return [os.path.join(args.out, name) for name in names]


@contextlib.contextmanager
def _outputs(args):
    """The one block in which a command writes: it makes the --out directory
    (featurize's --out is the file it writes) and yields the command's
    output paths (_output_paths). An OSError there, such as a directory
    where a file is wanted or a file where a directory is, is a bad --out, a
    ConfigError that names it. Inputs are read outside, so that an
    unreadable input stays a data error."""
    try:
        if args.command != "featurize":
            os.makedirs(args.out, exist_ok=True)
        yield _output_paths(args)
    except OSError as exc:
        raise ConfigError(f"cannot write output {args.out}: {exc}") from None


def _refuse_overwriting_inputs(args, inputs: list[str]) -> None:
    """An output of the command that is the same file as one of the inputs is
    a ConfigError that names both: the command would overwrite what it reads,
    and leave the next command a file of the wrong kind. main checks the
    config file and the input flags' files before the command runs, and
    featurize the recordings once it has read the manifest."""
    found = []
    for path in inputs:
        with contextlib.suppress(OSError):
            found.append((path, os.stat(path)))
    for out in _output_paths(args) if found else ():
        try:
            out_stat = os.stat(out)
        except OSError:
            continue
        for path, in_stat in found:
            if os.path.samestat(out_stat, in_stat):
                raise ConfigError(f"output {out} is the input {path}")


def _announce(name: str, settings: dict) -> None:
    line = " ".join(f"{k}={v}" for k, v in settings.items())
    print(f"[eegpipe {name}] {line}")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    labels = dataio._synth_labels(args.per_class)
    seed = derive_seed(args.seed, "synth")
    _announce("synth", {"per_class": args.per_class, "window_len": args.window_len,
                        "fs": args.fs, "seed": args.seed})
    channels = ";".join(dataio.DEFAULT_CHANNELS)
    with _outputs(args) as (manifest, *files):

        def write(share):
            # a share draws its own epochs, one at a time (synth_generate's, bit for bit)
            epochs = dataio._synth_epochs(args.per_class, args.window_len, args.fs, seed,
                                          share.start)
            for i, data in zip(share, epochs):
                rec = dataio.Recording(dataio.DEFAULT_CHANNELS, args.fs, data,
                                       label=int(labels[i]))
                dataio.save_recording_csv(rec, files[i])
            return []

        # the files are drawn, formatted and written in shares across the
        # usable CPUs; a child's OSError comes back to be raised here
        dataio._map_in_shares(write, range(len(labels)))
        dataio._write_manifest(manifest, [
            {"file": os.path.basename(path), "label": dataio.SYNTH_CLASS_NAMES[label],
             "sample_rate_hz": args.fs, "channels": channels}
            for path, label in zip(files, labels)])
    print(f"wrote {len(labels)} epoch files + manifest to {args.out}")
    return 0


# raw samples (over all channels) per featurize group: consecutive recordings
# of one shape are filtered, windowed and featurized together up to this many,
# few enough that a group's copies and temporaries stay small. A recording of
# at least this many samples is a group of its own. A group's kept epochs are
# featurized in blocks of up to this many samples (at least one epoch a block)
FEATURE_BLOCK_SAMPLES = 1 << 14


class _ShareFeaturizer:
    """featurize's work on one share of recordings, a group of them at a time:
    one call each of filtfilt, window_recording and reject_artifacts per
    group, and one call of extract_features per block of its kept epochs.
    An error is raised at once, so a share stops at its first bad group. A
    share sends the featurizer back: cmd_featurize joins every share's labels
    (an array per group) once, and writes the feature rows (an array per
    block) in order without joining them."""

    def __init__(self, coeffs, fc: dsp.FeatureConfig, window_len, hop):
        self.coeffs, self.fc, self.window_len, self.hop = coeffs, fc, window_len, hop
        self.n_epochs, self.labels, self.rows, self.names = 0, [], [], None

    # an overflow makes a sample or feature inf or NaN, silently: an epoch
    # whose filtered samples are not finite is rejected as an artifact, and a
    # kept epoch whose features are not is a NumericError
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def add(self, group: list) -> None:
        """Featurize a group of same-shape recordings, and empty its list.
        Each block of kept epochs is copied out of the windows view on its
        own, so the kept epochs are never copied whole.

        A fault names the group's first bad recording, one rule whatever
        stage finds it: a group of several that raises is featurized again
        one recording at a time, in order, and the first that raises names
        itself. Every dsp stage gives a recording the same result whatever it
        is batched with, so that recording raises the group's fault. A group
        of one frees its raw samples once filtfilt has stacked them; a group
        of several keeps them for that retry."""
        if not group:
            return
        fs, channels, path = group[0].sample_rate_hz, group[0].channels, group[0].path
        retry = group.copy() if len(group) > 1 else []
        rec_labels = [rec.label for rec in group]
        raw = [rec.data for rec in group]
        group.clear()
        try:
            filtered = dsp.filtfilt(self.coeffs, raw)  # [g, n_ch, n]
            windows = dataio.window_recording(filtered, self.window_len, self.hop)
            g, n_windows, n_ch, window_len = windows.shape
            kept, _ = dsp.reject_artifacts(windows.reshape(-1, n_ch, window_len),
                                           self.fc.artifact_threshold_uv)
            self.n_epochs += g * n_windows
            self.labels.append(np.repeat(rec_labels, n_windows)[kept])
            per_block = max(1, FEATURE_BLOCK_SAMPLES // (n_ch * window_len))
            # a group that keeps no epoch still makes one call, on an empty
            # block: it sets the feature names, and raises what the feature
            # stage would raise on this shape
            for start in range(0, max(len(kept), 1), per_block):
                # (recording, window) of each epoch in the block
                block = np.divmod(kept[start : start + per_block], n_windows)
                fv = dsp.extract_features(windows[block], fs, self.fc, channels)
                if not np.isfinite(fv.values).all():
                    raise NumericError("the features of an epoch overflow to values that "
                                       "are not finite")
                self.names = fv.names
                self.rows.append(fv.values)
        except PipelineError as exc:
            for rec in retry:
                self.add([rec])
            if retry or not isinstance(exc, (DataError, NumericError)):
                raise
            raise type(exc)(f"{path}: {exc}") from None


def _featurize_share(recordings, coeffs, fc: dsp.FeatureConfig, window_len, hop):
    """Featurize one share of recordings as they are parsed (_ShareFeaturizer),
    in groups of consecutive recordings of one shape, up to
    FEATURE_BLOCK_SAMPLES samples a group, and return the featurizer. A group
    is featurized and freed as soon as it can take no other recording of its
    shape, before the next recording is parsed. The share raises the error of
    its first bad recording, whatever stage finds it, as a serial run would:
    a parse error is raised after the group parsed before it, whose error wins."""
    share = _ShareFeaturizer(coeffs, fc, window_len, hop)
    group = []
    try:
        for rec in recordings:
            if group and rec.data.shape != group[0].data.shape:
                share.add(group)
            group.append(rec)
            del rec  # the group holds the only reference
            if (len(group) + 1) * group[0].data.size > FEATURE_BLOCK_SAMPLES:
                share.add(group)
    except PipelineError:
        share.add(group)  # empty unless parsing failed
        raise
    share.add(group)
    return share


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
    # the EEG bands, then the filter, are checked against the manifest's rate
    # before any recording is read
    dsp.check_bands(fs, fc.welch_segment_len)
    coeffs = dsp.design_butterworth_bandpass(
        fc.filter_low_hz, fc.filter_high_hz, fs, fc.filter_order
    )
    data_dir = os.path.dirname(os.path.abspath(args.manifest))
    _refuse_overwriting_inputs(args, [os.path.join(data_dir, e["file"]) for e in entries])
    # each share of recordings is featurized in the process that parses it
    shares, class_names = dataio.load_raw_recordings(
        data_dir, args.manifest,
        per_share=lambda recs: [_featurize_share(recs, coeffs, fc, args.window_len, args.hop)])
    labels = [block for s in shares for block in s.labels]
    n_epochs, n_kept = sum(s.n_epochs for s in shares), sum(map(len, labels))
    threshold = fc.artifact_threshold_uv
    print(f"rejected {n_epochs - n_kept} of {n_epochs} epochs (threshold {threshold} uV)")
    if not n_kept:
        raise DataError("all epochs rejected; nothing to featurize")
    labels = np.concatenate(labels)
    blocks = [rows for s in shares for rows in s.rows]
    ends = np.cumsum([len(rows) for rows in blocks])
    parts = [dataio.Dataset(rows, labels[end - len(rows) : end], class_names, shares[0].names)
             for rows, end in zip(blocks, ends)]
    with _outputs(args) as (path,):
        dataio.save_feature_csv(parts, path)
    print(f"wrote {n_kept} x {parts[0].n_features} feature matrix to {args.out}")
    return 0


def cmd_split(args) -> int:
    spec = dataio.SplitSpec(args.fractions, seed=derive_seed(args.seed, "split"),
                            stratified=not args.no_stratify)
    _announce("split", {"input": args.input, "fractions": args.fractions, "seed": args.seed})
    ds = dataio.load_feature_csv(args.input, args.label_column)
    train, val, test = parts = dataio.stratified_split(ds, spec)
    with _outputs(args) as paths:
        dataio.write_split(parts, spec, paths, args.label_column)
    print(f"split {ds.n_examples} rows -> "
          f"{train.n_examples}/{val.n_examples}/{test.n_examples} in {args.out}")
    return 0


def _train_gru(train, val, n_classes: int, args):
    """Shared by cmd_train and cmd_compare: train on the (sequences, labels)
    pairs train and val, made from normalized features. Returns the model
    and its history."""
    model_cfg = nn.ModelConfig(
        input_dim=train[0].shape[2],
        hidden_dim=args.hidden,
        sequence_length=args.seq_len,
        n_classes=n_classes,
        seed=derive_seed(args.seed, "init"),
    )
    train_cfg = nn.TrainConfig(
        optimizer=args.optimizer,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=derive_seed(args.seed, "train"),
    )
    return nn.train(model_cfg, train, val, train_cfg)


def _require_columns(want: list[str], want_source: str, got: list[str], got_path: str) -> None:
    """The model reads feature columns by position, so got_path's must be
    want's (read from want_source) in name and order: a DataError names the
    first that differs, and both counts when they differ."""
    for i, (w, g) in enumerate(itertools.zip_longest(want, got), start=1):
        if w != g:
            counts = "" if len(got) == len(want) else f" ({len(got)} columns, not {len(want)})"
            raise DataError(f"{got_path}: feature column {i} is {g!r}, not {w!r} "
                            f"as in {want_source}{counts}")


def cmd_train(args) -> int:
    _announce("train", {"train": args.train, "val": args.val, "seed": args.seed})
    train_ds = dataio.load_feature_csv(args.train, args.label_column)
    val_ds = dataio.relabel(dataio.load_feature_csv(args.val, args.label_column),
                            train_ds.class_names)
    _require_columns(train_ds.feature_names, args.train, val_ds.feature_names, args.val)
    norm = dsp.fit_normalization(train_ds.features, args.normalization)
    train, val = ((nn.dataset_to_sequences(dsp.apply_normalization(d.features, norm),
                                           args.seq_len), d.labels) for d in (train_ds, val_ds))
    model, history = _train_gru(train, val, len(train_ds.class_names), args)
    best = int(np.argmin(history.val_loss))
    with _outputs(args) as (checkpoint, history_path):
        nn.save_checkpoint(checkpoint, model, train_ds.class_names, train_ds.feature_names, norm)
        nn.save_history(history, history_path)
    print(f"trained {len(history)} epochs; best val_loss={history.val_loss[best]:.6f} "
          f"val_acc={history.val_acc[best]:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    _announce("evaluate", {"checkpoint": args.checkpoint, "test": args.test})
    model, class_names, feature_names, norm = nn.load_checkpoint(args.checkpoint)
    test_ds = dataio.relabel(dataio.load_feature_csv(args.test, args.label_column), class_names)
    _require_columns(feature_names, args.checkpoint, test_ds.feature_names, args.test)
    feats = dsp.apply_normalization(test_ds.features, norm)
    X = nn.dataset_to_sequences(feats, model.config.sequence_length)
    preds = nn.predict_batch(model, X)
    cm = evaluation.confusion(preds, test_ds.labels, class_names)
    report = evaluation.metrics(cm)
    with _outputs(args) as (confusion_path, metrics_path):
        evaluation.write_confusion_csv(cm, confusion_path)
        evaluation.write_metrics_json(report, class_names, metrics_path)
    print(f"test accuracy {report.accuracy:.4f} macro_f1 {report.macro_f1:.4f}")
    return 0


def cmd_compare(args) -> int:
    spec = dataio.SplitSpec(args.fractions, seed=derive_seed(args.seed, "split"), stratified=True)
    _announce("compare", {"input": args.input, "seed": args.seed})
    ds = dataio.load_feature_csv(args.input, args.label_column)
    n_classes = len(ds.class_names)
    if n_classes < 2:
        raise DataError(f"{args.input}: one class, {ds.class_names[0]!r}; "
                        "compare needs at least 2")
    train_ds, val_ds, test_ds = dataio.stratified_split(ds, spec)

    norm = dsp.fit_normalization(train_ds.features, args.normalization)
    X_tr, X_va, X_te = (dsp.apply_normalization(d.features, norm)
                        for d in (train_ds, val_ds, test_ds))
    y_tr, y_te = train_ds.labels, test_ds.labels
    # the GRU reads the same arrays, as [n, seq_len, d] views
    seqs_tr, seqs_va, seqs_te = (nn.dataset_to_sequences(X, args.seq_len)
                                 for X in (X_tr, X_va, X_te))

    def fit_baselines():
        # the test predictions of _COMPARED's baselines, in its order
        logit = baselines.fit_logistic(X_tr, y_tr, n_classes)
        preds = [baselines.predict_logistic(logit, X_te)]
        svm = baselines.fit_linear_svm(X_tr, y_tr, n_classes, seed=derive_seed(args.seed, "svm"))
        preds.append(baselines.predict_svm(svm, X_te))
        forest = baselines.fit_forest(
            X_tr, y_tr, n_classes,
            n_trees=args.n_trees,
            max_depth=args.forest_depth,
            seed=derive_seed(args.seed, "forest"),
        )
        preds.append(baselines.predict_forest(forest, X_te))
        boost = baselines.fit_boosting(
            X_tr, y_tr, n_classes,
            n_rounds=args.boost_rounds,
            max_depth=args.boost_depth,
            learning_rate=args.boost_lr,
        )
        preds.append(baselines.predict_boost(boost, X_te))
        return preds

    def fit_gru():
        model, history = _train_gru((seqs_tr, y_tr), (seqs_va, val_ds.labels), n_classes, args)
        return nn.predict_batch(model, seqs_te), history

    # the baselines run in this process, so a tracer counts their calls; the
    # GRU trains beside them in a forked child when a second CPU is usable,
    # and its error is raised here
    baseline_preds, (gru_preds, history) = dataio._map_in_shares(
        lambda share: [fit() for fit in share], [fit_baselines, fit_gru])
    reports = [(name, evaluation.metrics(evaluation.confusion(preds, y_te, ds.class_names)))
               for name, preds in zip(_COMPARED, [gru_preds, *baseline_preds])]
    with _outputs(args) as (*metrics_paths, csv_path, txt_path, history_path):
        for (_, rep), path in zip(reports, metrics_paths):
            evaluation.write_metrics_json(rep, ds.class_names, path)
        text = evaluation.compare_report(reports, csv_path, txt_path)
        nn.save_history(history, history_path)
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    _announce("report", {"history": args.history})
    history = nn.load_history(args.history)
    with _outputs(args) as (path,):
        evaluation.emit_curves(history, path)
    print("wrote " + path)
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
        p.add_argument("--verbose", action="store_true",
                       help="accepted, but changes no output yet (ROADMAP item 2)")
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(input_flags=[flag[2:] for flag in required])
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
        inputs = [args.config] if args.config is not None else []
        _refuse_overwriting_inputs(args, inputs + [vars(args)[key] for key in args.input_flags])
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
    except MemoryError:
        # a fixed line, not the exception's text, which names no setting and
        # is empty for a bare MemoryError
        print("error: out of memory: a setting asks for more than this machine holds "
              "(such as --per-class, --window-len or --hidden)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
