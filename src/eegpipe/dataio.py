"""Dataset ingestion, windowing, stratified splitting, and synthetic EEG generation.

All randomness is local to each call (seeded generators), so every
operation here is deterministic and safe to call concurrently.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# Muse headband electrode set used by the reference dataset.
DEFAULT_CHANNELS = ["TP9", "AF7", "AF8", "TP10"]
DEFAULT_SAMPLE_RATE_HZ = 256.0

# Synthetic generator: class k is white noise (sigma=1) plus a sinusoid
# drawn from a class-specific frequency band. Bands are disjoint so the
# classes are separable by band power by construction.
SYNTH_BANDS = {0: (4.0, 7.0), 1: (10.0, 13.0), 2: (20.0, 25.0)}
SYNTH_AMPLITUDE = 3.0
SYNTH_CLASS_NAMES = ["NEGATIVE", "NEUTRAL", "POSITIVE"]


@dataclass
class Recording:
    """Multichannel raw EEG time series (microvolts)."""

    channels: list[str]
    sample_rate_hz: float
    data: np.ndarray  # [n_channels, n_samples]
    label: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DataError("recording data must be a non-empty [channels x samples] matrix")
        if len(self.channels) != self.data.shape[0]:
            raise DataError(
                f"channel name count {len(self.channels)} != data rows {self.data.shape[0]}"
            )
        if not self.sample_rate_hz > 0:
            raise DataError("sample_rate_hz must be positive")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class Dataset:
    """Feature matrix with integer labels and name tables."""

    features: np.ndarray  # [n_examples, n_features]
    labels: np.ndarray  # [n_examples]
    class_names: list[str]
    feature_names: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if len(self.labels) != self.features.shape[0]:
            raise DataError("labels length must match number of feature rows")
        if len(self.feature_names) != self.features.shape[1]:
            raise DataError("feature_names length must match feature columns")
        if len(self.labels) and self.labels.max(initial=-1) >= len(self.class_names):
            raise DataError("label id out of range of class_names")
        if self.features.size and not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite entries")

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class SplitSpec:
    """Train/val/test fractions plus seed for a deterministic split."""

    train_fraction: float = 0.6
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if not all(0.0 < f < 1.0 for f in fracs):
            raise ConfigError(f"split fractions must each lie in (0,1), got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.val_fraction, self.test_fraction)


def load_feature_csv(path: str, label_column: str = "label") -> Dataset:
    """Load a featured CSV (header row, one string label column) into a Dataset.

    Class ids are assigned by lexicographic order of the distinct label
    strings, which keeps the mapping stable across reloads.
    """
    if not os.path.isfile(path):
        raise DataError(f"feature CSV not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        if len(set(header)) != len(header):
            raise DataError(f"duplicate column names in header of {path}")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not found in {path}")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        rows, label_strs = [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
            vals = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: unparsable or non-finite value {cell!r} "
                        f"at row {rownum}, column {header[i]!r}"
                    )
                vals.append(v)
            rows.append(vals)
            label_strs.append(row[label_idx])
    if not rows:
        raise DataError(f"no data rows in {path}")
    class_names = sorted(set(label_strs))
    class_ids = {name: i for i, name in enumerate(class_names)}
    labels = np.array([class_ids[s] for s in label_strs], dtype=int)
    return Dataset(np.array(rows, dtype=float), labels, class_names, feature_names)


def relabel(ds: Dataset, class_names: list[str]) -> Dataset:
    """The same rows with labels numbered by another class table, matched by name.

    A file's own class ids depend on which labels it happens to contain;
    this maps them onto the table of the checkpoint or training file.
    """
    ids = {name: i for i, name in enumerate(class_names)}
    unknown = sorted(set(ds.class_names) - set(ids))
    if unknown:
        raise DataError(f"unknown class labels {unknown}; expected one of {list(class_names)}")
    lookup = np.array([ids[name] for name in ds.class_names], dtype=int)
    return Dataset(ds.features, lookup[ds.labels], list(class_names), ds.feature_names)


def save_feature_csv(ds: Dataset, path: str, label_column: str = "label") -> None:
    """Write a Dataset in the featured-CSV format load_feature_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + [label_column])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.class_names[lab]])


def load_raw_recordings(path: str, manifest: str) -> tuple[list[Recording], list[str]]:
    """Load raw recordings listed in a manifest CSV.

    Manifest columns: file,label,sample_rate_hz,channels with channels
    ';'-separated. Each recording CSV has a channel-name header and one
    row per sample. Returns the recordings plus the lexicographically
    ordered class-name table backing their integer labels.
    """
    if not os.path.isfile(manifest):
        raise DataError(f"manifest not found: {manifest}")
    with open(manifest, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"file", "label", "sample_rate_hz", "channels"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"manifest must have columns {sorted(required)}")
        entries = []
        for row in reader:
            missing = sorted(k for k in required if row[k] is None)
            if missing:
                raise DataError(f"{manifest}: line {reader.line_num}: no {', '.join(missing)} cell")
            entries.append(row)
    if not entries:
        return [], []
    class_names = sorted({e["label"] for e in entries})
    class_ids = {name: i for i, name in enumerate(class_names)}
    rates = []
    for e in entries:
        try:
            rates.append(float(e["sample_rate_hz"]))
        except ValueError:
            raise DataError(f"bad sample_rate_hz {e['sample_rate_hz']!r} in manifest") from None
    if len(set(rates)) > 1:
        # one filter design and one Welch grid serve every recording
        raise DataError(f"mixed sample rates in manifest: {sorted(set(rates))} Hz")
    channel_ref: list[str] | None = None
    recordings = []
    for e, fs in zip(entries, rates):
        channels = e["channels"].split(";")
        if channel_ref is None:
            channel_ref = channels
        elif channels != channel_ref:
            raise DataError(
                f"inconsistent channel sets in manifest: {channels} vs {channel_ref}"
            )
        fpath = os.path.join(path, e["file"])
        if not os.path.isfile(fpath):
            raise DataError(f"manifest references missing file: {fpath}")
        with open(fpath, newline="", encoding="utf-8") as fh:
            rdr = csv.reader(fh)
            header = next(rdr, None)
            if header != channels:
                raise DataError(f"{fpath}: header {header} does not match manifest channels")
            try:
                samples = [[float(c) for c in row] for row in rdr]
            except ValueError as exc:
                raise DataError(f"{fpath}: line {rdr.line_num}: {exc}") from None
        if not samples:
            raise DataError(f"{fpath}: no samples")
        bad = next((i for i, row in enumerate(samples) if len(row) != len(channels)), None)
        if bad is not None:
            raise DataError(f"{fpath}: line {bad + 2}: {len(samples[bad])} cells, header has "
                            f"{len(channels)}")
        data = np.array(samples, dtype=float)
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if bad.size:
            raise DataError(f"{fpath}: line {bad[0] + 2}: non-finite sample")
        recordings.append(Recording(channels, fs, data.T, label=class_ids[e["label"]]))
    return recordings, class_names


def save_recording_csv(rec: Recording, path: str) -> None:
    """Write one recording as a CSV with channel header, one row per sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rec.channels)
        for row in rec.data.T:
            writer.writerow([repr(float(v)) for v in row])


def window_recording(data: np.ndarray, window_len: int | None = None,
                     hop: int | None = None) -> np.ndarray:
    """Fixed-length windows at a fixed hop of a recording's data [n_ch, n_samples].

    Returns a read-only view [n_windows, n_ch, window_len]; window k starts
    at sample k * hop. By default one window spans the whole recording and
    the hop is the window length.
    """
    n_samples = data.shape[-1]
    window_len = n_samples if window_len is None else window_len
    hop = window_len if hop is None else hop
    if not 1 <= window_len <= n_samples:
        raise ConfigError(f"window_len {window_len} outside [1, {n_samples}]")
    if hop < 1:
        raise ConfigError("hop must be >= 1")
    windows = np.lib.stride_tricks.sliding_window_view(data, window_len, axis=-1)[..., ::hop, :]
    return np.moveaxis(windows, -2, -3)


def _largest_remainder(total: int, fractions: tuple[float, ...]) -> list[int]:
    """Apportion `total` items over the fractions; ties go to earlier entries."""
    ideal = [f * total for f in fractions]
    counts = [int(math.floor(v)) for v in ideal]
    remainder = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(ideal[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def stratified_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition a dataset into train/val/test, preserving class proportions.

    Per class, the three split counts come from the largest-remainder
    rule, so each split's class count deviates from the ideal by at most
    one example. Identical spec + dataset always yields the same split.
    """
    rng = np.random.default_rng(spec.seed)
    n = ds.n_examples
    memberships = np.empty(n, dtype=int)  # 0=train 1=val 2=test
    if spec.stratified:
        for c in range(len(ds.class_names)):
            idx = np.flatnonzero(ds.labels == c)
            if len(idx) < 3:
                raise DataError(
                    f"class {ds.class_names[c]!r} has {len(idx)} examples; "
                    "stratified splitting needs at least 3"
                )
            idx = rng.permutation(idx)
            n_tr, n_va, n_te = _largest_remainder(len(idx), spec.fractions)
            memberships[idx[:n_tr]] = 0
            memberships[idx[n_tr : n_tr + n_va]] = 1
            memberships[idx[n_tr + n_va :]] = 2
    else:
        idx = rng.permutation(n)
        n_tr, n_va, n_te = _largest_remainder(n, spec.fractions)
        memberships[idx[:n_tr]] = 0
        memberships[idx[n_tr : n_tr + n_va]] = 1
        memberships[idx[n_tr + n_va :]] = 2

    parts = []
    for s in range(3):
        sel = np.flatnonzero(memberships == s)
        if len(sel) == 0:
            raise DataError("split fractions produce an empty split for this dataset size")
        parts.append(
            Dataset(ds.features[sel], ds.labels[sel], ds.class_names, ds.feature_names)
        )
    return parts[0], parts[1], parts[2]


def write_split(
    train: Dataset, val: Dataset, test: Dataset, spec: SplitSpec, out_dir: str
) -> dict:
    """Write the three split CSVs plus the JSON sidecar; returns the sidecar dict."""
    os.makedirs(out_dir, exist_ok=True)
    names = ("train", "val", "test")
    counts = {}
    for name, part in zip(names, (train, val, test)):
        save_feature_csv(part, os.path.join(out_dir, f"{name}.csv"))
        counts[name] = {
            cname: int(np.sum(part.labels == c)) for c, cname in enumerate(part.class_names)
        }
    sidecar = {
        "seed": spec.seed,
        "fractions": list(spec.fractions),
        "counts_per_class": counts,
    }
    with open(os.path.join(out_dir, "split.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def synth_generate(
    n_per_class: int, window_len: int, fs: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generate labeled synthetic EEG-like epochs for three separable classes.

    Returns (data [n, n_ch, window_len], labels [n]), class by class. Each
    epoch is unit-variance white noise plus an amplitude-3 sinusoid whose
    frequency is drawn from the class band (theta / alpha-ish /
    beta-ish), identical frequency on every channel with per-channel
    random phase. Deterministic per seed.
    """
    if n_per_class < 1:
        raise ConfigError("n_per_class must be >= 1")
    if window_len < 8:
        raise ConfigError("window_len must be >= 8")
    if fs <= 0:
        raise ConfigError("fs must be positive")
    rng = np.random.default_rng(seed)
    n_ch = len(DEFAULT_CHANNELS)
    t = np.arange(window_len) / fs
    labels = np.repeat(sorted(SYNTH_BANDS), n_per_class)
    data = np.empty((len(labels), n_ch, window_len))
    for i, label in enumerate(labels):
        lo, hi = SYNTH_BANDS[label]
        freq = rng.uniform(lo, hi)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_ch)
        noise = rng.standard_normal((n_ch, window_len))
        data[i] = noise + SYNTH_AMPLITUDE * np.sin(2.0 * np.pi * freq * t[None, :] + phases[:, None])
    return data, labels
