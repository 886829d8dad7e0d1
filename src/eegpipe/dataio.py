"""Dataset ingestion, windowing, stratified splitting, and synthetic EEG generation.

All randomness is local to each call (seeded generators), so every
operation here is deterministic and safe to call concurrently.
"""

from __future__ import annotations

import csv
import io
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
        if not 0 < self.sample_rate_hz < math.inf:
            raise DataError("sample_rate_hz must be positive and finite")

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
    strings, which keeps the mapping stable across reloads. A well-formed
    file with the label last is parsed in one loadtxt call; any other file
    is scanned cell by cell, which names the row and column at fault.
    """
    if not os.path.isfile(path):
        raise DataError(f"feature CSV not found: {path}")
    ds = _parse_feature_csv(path, label_column)
    return _scan_feature_csv(path, label_column) if ds is None else ds


def _parse_feature_csv(path: str, label_column: str) -> Dataset | None:
    """A featured CSV whose label is its last column, parsed in one loadtxt call.

    None unless the file is one _scan_feature_csv would accept, with the
    same values; other files, and files with the label elsewhere, take the scan.
    """
    lines = _plain_csv_lines(path)
    if lines is None:
        return None
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != label_column or len(set(header)) != len(header):
        return None
    cells, labels = [], []
    for line in lines[1:]:
        numbers, _, label = line.rpartition(",")
        cells.append(numbers)
        labels.append(label)
    features = _loadtxt_matrix(cells, len(header) - 1)
    return None if features is None else _labelled_dataset(features, labels, header[:-1])


def _scan_feature_csv(path: str, label_column: str) -> Dataset:
    """load_feature_csv cell by cell: the path that names the first bad row and column."""
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
    return _labelled_dataset(np.array(rows, dtype=float), label_strs, feature_names)


def _labelled_dataset(features: np.ndarray, label_strs: list[str],
                      feature_names: list[str]) -> Dataset:
    class_names = sorted(set(label_strs))
    class_ids = {name: i for i, name in enumerate(class_names)}
    labels = np.array([class_ids[s] for s in label_strs], dtype=int)
    return Dataset(features, labels, class_names, feature_names)


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
    """Write a Dataset in the featured-CSV format load_feature_csv reads.

    The bytes are those of csv.writer with repr'd floats: a float's repr
    never needs quoting, so only the label cell goes through the writer,
    once per class name.
    """
    # csv.writer quotes an empty cell only when it is alone on its row
    tails = [_csv_line(["0", name])[1:] if ds.n_features else _csv_line([name])
             for name in ds.class_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(ds.feature_names + [label_column])
        # one row at a time: a whole-matrix tolist() would raise peak memory
        fh.writelines(",".join(map(repr, row.tolist())) + tails[lab]
                      for row, lab in zip(ds.features, ds.labels.tolist()))


def _csv_line(cells: list[str]) -> str:
    """One row as csv.writer writes it, line terminator included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def read_manifest(manifest: str) -> tuple[list[dict], float | None]:
    """The rows of a manifest CSV and the sample rate they share.

    Manifest columns: file,label,sample_rate_hz,channels. Every row must
    have all four cells and one positive, finite sample rate; no recording
    file is opened. The rate is None for a manifest without rows.
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
    rates = set()
    for e in entries:
        try:
            rates.add(float(e["sample_rate_hz"]))
        except ValueError:
            raise DataError(f"bad sample_rate_hz {e['sample_rate_hz']!r} in manifest") from None
    if len(rates) > 1:
        # one filter design and one Welch grid serve every recording
        raise DataError(f"mixed sample rates in manifest: {sorted(rates)} Hz")
    fs = rates.pop() if rates else None
    if fs is not None and not 0 < fs < math.inf:
        raise DataError("sample_rate_hz must be positive and finite")
    return entries, fs


def load_raw_recordings(path: str, manifest: str) -> tuple[list[Recording], list[str]]:
    """Load raw recordings listed in a manifest CSV (see read_manifest).

    The channels cell is ';'-separated. Each recording CSV has a
    channel-name header and one row per sample. Returns the recordings
    plus the lexicographically ordered class-name table backing their
    integer labels.
    """
    entries, fs = read_manifest(manifest)
    if not entries:
        return [], []
    class_names = sorted({e["label"] for e in entries})
    class_ids = {name: i for i, name in enumerate(class_names)}
    channel_ref: list[str] | None = None
    recordings = []
    for e in entries:
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
        lines = _plain_csv_lines(fpath)
        data = None
        if lines is not None and lines[0].split(",") == channels:
            data = _loadtxt_matrix(lines[1:], len(channels))
        if data is None:
            data = _scan_raw_csv(fpath, channels)
        recordings.append(Recording(channels, fs, data.T, label=class_ids[e["label"]]))
    return recordings, class_names


# With none of these in a file's text, each of its lines is one csv record
# whose cells are line.split(","): str.splitlines also ends a line at \v, \f,
# \x1c-\x1e, \x85, \u2028 and \u2029, where the csv reader does not, and a
# quote changes how csv splits. loadtxt strips \x1c-\x1f around a number,
# where float() of an ASCII cell does not.
_NOT_PLAIN = '"\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029'


def _plain_csv_lines(path: str) -> list[str] | None:
    """A CSV file's lines from one read, or None unless they are its csv records.

    None too for a file with a blank line, which the csv reader returns as a
    row with no cells and loadtxt skips, or with no line after the header.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.splitlines()
    return lines if len(lines) > 1 and "" not in lines else None


def _loadtxt_matrix(lines: list[str], n_cols: int) -> np.ndarray | None:
    """The [len(lines), n_cols] matrix of comma-separated plain lines, if all finite.

    loadtxt parses a decimal string to the same double as float(); None
    where it fails, or where the matrix is not the one float() would give
    cell by cell, so that the caller's csv scan names the fault.
    """
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if data.shape != (len(lines), n_cols) or not np.isfinite(data).all():
        return None
    return data


def _scan_raw_csv(fpath: str, channels: list[str]) -> np.ndarray:
    """A raw recording read row by row: the path that names the first bad line."""
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
    return data


def save_recording_csv(rec: Recording, path: str) -> None:
    """Write one recording as a CSV with channel header, one row per sample.

    The bytes are those csv.writer writes for repr'd floats: its default line
    terminator is \\r\\n, and no float's repr needs quoting.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(rec.channels)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rec.data.T.tolist())


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
    if not (math.isfinite(fs) and fs > 0):
        raise ConfigError(f"fs must be positive and finite, got {fs}")
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
