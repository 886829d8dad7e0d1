"""Dataset ingestion, windowing, stratified splitting, and synthetic EEG generation.

All randomness is local to each call (seeded generators), so every
operation here is deterministic and safe to call concurrently.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, PipelineError

# Muse headband electrode set used by the reference dataset.
DEFAULT_CHANNELS = ["TP9", "AF7", "AF8", "TP10"]

# Synthetic generator: class k is white noise (sigma=1) plus a sinusoid
# drawn from a class-specific frequency band. Bands are disjoint so the
# classes are separable by band power by construction.
SYNTH_BANDS = {0: (4.0, 7.0), 1: (10.0, 13.0), 2: (20.0, 25.0)}
SYNTH_AMPLITUDE = 3.0
SYNTH_CLASS_NAMES = ["NEGATIVE", "NEUTRAL", "POSITIVE"]

# the label column featurize writes, and the one the later commands read
# unless told otherwise
LABEL_COLUMN = "label"


@dataclass
class Recording:
    """Multichannel raw EEG time series (microvolts), and the CSV file it
    was read from (None for one made in memory)."""

    channels: list[str]
    sample_rate_hz: float
    data: np.ndarray  # [n_channels, n_samples]
    label: int
    path: str | None = None


@dataclass
class Dataset:
    """Feature matrix with integer labels and name tables."""

    features: np.ndarray  # [n_examples, n_features]
    labels: np.ndarray  # [n_examples]
    class_names: list[str]
    feature_names: list[str]

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class SplitSpec:
    """Train/val/test fractions plus seed for a deterministic split."""

    fractions: tuple[float, float, float]
    seed: int
    stratified: bool


def load_feature_csv(path: str, label_column: str) -> Dataset:
    """Load a featured CSV (header row, one string label column, named
    label_column, and finite numbers in every other, of which there is at
    least one) into a Dataset; see _read_numeric_csv.

    Class ids are assigned by lexicographic order of the distinct label
    strings, which keeps the mapping stable across reloads.
    """
    def header_error(header: list[str]) -> str | None:
        if header == [label_column]:
            return f"no feature column beside the label column {label_column!r}"
        return _unique_columns_with(label_column)(header)

    feature_names, features, label_strs = _read_numeric_csv(path, header_error, label_column)
    class_names = sorted(set(label_strs))
    class_ids = {name: i for i, name in enumerate(class_names)}
    labels = np.array([class_ids[s] for s in label_strs], dtype=int)
    return Dataset(features, labels, class_names, feature_names)


def _unique_columns_with(*required: str):
    """A header rule of _read_numeric_csv: unique names, required among them."""
    def error(header: list[str]) -> str | None:
        if len(set(header)) != len(header):
            return "duplicate column names in header"
        missing = [name for name in required if name not in header]
        return f"column {missing[0]!r} not found in header" if missing else None
    return error


@contextlib.contextmanager
def _open_csv(path: str):
    """A CSV file opened for the csv reader. Bytes that are not UTF-8 text,
    and a record the reader refuses (such as a field over its size limit),
    are data errors that name the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


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


def save_feature_csv(parts: list[Dataset], path: str, label_column: str = LABEL_COLUMN) -> None:
    """Write the rows of Datasets that share their class and feature names,
    part after part, as one file in the featured-CSV format
    load_feature_csv reads, so that rows held in blocks are written without
    being joined first.

    The bytes are those of csv.writer with repr'd floats: a float's repr
    never needs quoting, so only the label cell goes through the writer,
    once per class name.
    """
    # a label follows a feature cell: csv.writer quotes an empty cell only
    # when it is alone on its row
    tails = [_csv_line(["0", name])[1:] for name in parts[0].class_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(parts[0].feature_names + [label_column])
        for part in parts:
            _write_float_rows(fh, part.features, _FEATURE_BLOCK_ROWS,
                              [tails[lab] for lab in part.labels.tolist()])


def _csv_line(cells: list[str]) -> str:
    """One row as csv.writer writes it, line terminator included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


# a manifest's columns, in the order _write_manifest writes them
_MANIFEST_COLUMNS = ("file", "label", "sample_rate_hz", "channels")


def read_manifest(manifest: str) -> tuple[list[dict], float | None]:
    """The rows of a manifest CSV and the sample rate they share.

    Manifest columns: _MANIFEST_COLUMNS, in any order. Every row must
    have all four cells, one positive, finite sample rate, no channel named
    twice, the first row's channels in the first row's order, and a file
    that no earlier row lists: two rows list one file when their paths,
    relative to the manifest's directory, normalize to one. The first bad
    row wins, and no recording file is opened. The rate is None for a
    manifest without rows.
    """
    if not os.path.isfile(manifest):
        raise DataError(f"manifest not found: {manifest}")
    base = os.path.dirname(os.path.abspath(manifest))
    with _open_csv(manifest) as fh:
        reader = csv.DictReader(fh)
        required = set(_MANIFEST_COLUMNS)
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{manifest}: manifest must have columns {sorted(required)}")
        entries, rates, lines = [], set(), {}  # lines: normalized file path -> its line
        for row in reader:
            where = f"{manifest}: line {reader.line_num}"
            missing = sorted(k for k in required if row[k] is None)
            if missing:
                raise DataError(f"{where}: no {', '.join(missing)} cell")
            try:
                fs = float(row["sample_rate_hz"])
            except ValueError:
                fs = math.nan
            if not 0 < fs < math.inf:
                raise DataError(f"{where}: sample_rate_hz must be positive and finite, "
                                f"got {row['sample_rate_hz']!r}")
            channels = row["channels"].split(";")
            twice = [name for i, name in enumerate(channels) if name in channels[:i]]
            if twice:
                raise DataError(f"{where}: duplicate channel {twice[0]!r}")
            if entries and row["channels"] != entries[0]["channels"]:
                raise DataError(f"{where}: channels {row['channels']!r} differ from the first "
                                f"row's {entries[0]['channels']!r}")
            path = os.path.normcase(os.path.normpath(os.path.join(base, row["file"])))
            if path in lines:
                raise DataError(f"{where}: file {row['file']!r} is listed twice, first on "
                                f"line {lines[path]}")
            lines[path] = reader.line_num
            entries.append(row)
            rates.add(fs)
    if len(rates) > 1:
        # one filter design and one Welch grid serve every recording
        raise DataError(f"mixed sample rates in manifest: {sorted(rates)} Hz")
    return entries, rates.pop() if rates else None


def _write_manifest(path: str, rows: list[dict]) -> None:
    """Write rows, each a dict of the _MANIFEST_COLUMNS cells, as the
    manifest read_manifest reads back; no cell may need CSV quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_MANIFEST_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[column]) for column in _MANIFEST_COLUMNS) + "\n")


def load_raw_recordings(path: str, manifest: str, per_share) -> tuple[list, list[str]]:
    """Load raw recordings listed in a manifest CSV (see read_manifest).

    The channels cell is ';'-separated. Each recording CSV has a
    channel-name header and one row per sample. The files are read and
    parsed in shares across the usable CPUs (_map_in_shares): the process
    that parses a share calls per_share on an iterator that parses each of
    its recordings, in manifest order, as it is drawn, so per_share can be
    done with one recording before the next is parsed. Returns the lists
    per_share returns, joined in share order (the recordings, when
    per_share is list), and the lexicographically ordered class-name table
    backing the integer labels. per_share must draw every recording, or
    raise; a bad row raises as it is drawn. The first share that raises
    wins, so with per_share list the error is that of the first bad row in
    manifest order, as in a serial loop.
    """
    entries, fs = read_manifest(manifest)
    class_names = sorted({e["label"] for e in entries})
    class_ids = {name: i for i, name in enumerate(class_names)}

    def parse(e):
        channels = e["channels"].split(";")
        fpath = os.path.join(path, e["file"])
        _, data, _ = _read_numeric_csv(
            fpath, lambda h: None if h == channels else
            f"header {h} does not match manifest channels")
        return Recording(channels, fs, data.T, class_ids[e["label"]], fpath)

    return _map_in_shares(lambda share: per_share(map(parse, share)), entries), class_names


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where fork or the affinity mask is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _map_in_shares(fn, items) -> list:
    """fn(share) for contiguous shares of items, one process per usable CPU:
    fn returns a list for its share, and the lists are joined in share order.

    There are at most as many shares as items. This process runs the first
    share; a forked child runs each later one and pipes back the pickled
    list, or the exception that stopped it. The shares are read in order, so
    the exception raised is the first failing share's, as in a serial loop;
    a child that dies or sends nothing raises a PipelineError that names its
    exit status, and a pipe or fork that fails one that names the OSError
    (the children already started are killed). The warnings a child's fn
    raises are recorded there and issued again here, in share order
    (_reissue_warnings), so that this process's filters act on them as if fn
    had run here.

    A child starts as a copy of this process and leaves by os._exit, so it
    flushes no inherited buffer and runs no exit handler: fn may compute,
    including numpy DSP, and read and write files, but must not print, and
    its calls in a child are invisible to this process (a wrapper installed
    on fn counts only this process's share). Forking a process that has run
    threaded BLAS is safe with numpy's OpenBLAS, a pthreads build: it stops
    its thread pool in a pthread_atfork handler, and a child starts its own
    pool when it first needs one. Private, so that no tracer makes it a span
    of its own.
    """
    n_shares = min(_usable_cpus(), len(items))
    if n_shares < 2:
        return list(fn(items))
    bounds = [len(items) * k // n_shares for k in range(n_shares + 1)]
    children = []  # (pid, read end of its pipe), in share order, until reaped
    try:
        for k in range(1, n_shares):
            try:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
            except OSError as exc:
                # such as EAGAIN at the process limit or EMFILE at the descriptor limit
                raise PipelineError(f"cannot start a worker process: {exc}") from None
            if pid == 0:
                _run_share(fn, items[bounds[k] : bounds[k + 1]], w)
            os.close(w)
            children.append((pid, r))
        results = list(fn(items[: bounds[1]]))
        while children:
            pid, r = children[0]
            children[0] = (pid, None)
            with open(r, "rb") as fh:
                try:
                    outcome = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):  # nothing, or not all, was sent
                    outcome = None
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0 or outcome is None:
                how = f"exit status {status}" if status >= 0 else f"signal {-status}"
                raise PipelineError(f"worker process {pid} ended with {how} and sent no result")
            ok, value, caught = outcome
            _reissue_warnings(caught)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        # the children left after a failure: their results are not wanted
        for pid, r in children:
            if r is not None:
                os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_share(fn, share, fd: int) -> None:
    """A forked child of _map_in_shares from start to end: it runs fn over
    its share, recording the warnings raised, pickles the outcome down the
    pipe fd and leaves by os._exit (status 1 when nothing could be sent, such
    as after an exception or warning that does not pickle)."""
    status = 1
    try:
        # record=True keeps this process's filters and only replaces the
        # display; the caller's filters and registries make the final call
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = (True, list(fn(share)))
            except Exception as exc:
                outcome = (False, exc)
        caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        payload = pickle.dumps((*outcome, caught), protocol=pickle.HIGHEST_PROTOCOL)
        if caught or not outcome[0]:
            pickle.loads(payload)  # an exception or warning that cannot be rebuilt is no result
        with open(fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _reissue_warnings(caught) -> None:
    """Issue again the (message, category, filename, lineno) warnings that a
    child recorded, as warnings.warn did at their origin: under the module
    and once-per-location registry of the loaded module of that file, so
    that a warning already shown here, or shown twice, is shown once."""
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        warnings.warn_explicit(
            message, category, filename, lineno,
            module=None if module is None else module.__name__,
            registry=None if module is None else vars(module).setdefault("__warningregistry__", {}))


# With none of these in a file's text, each of its lines is one csv record
# whose cells are line.split(","): str.splitlines also ends a line at \v, \f,
# \x1c-\x1e, \x85, \u2028 and \u2029, where the csv reader does not, and a
# quote changes how csv splits. loadtxt strips \x1c-\x1f around a number,
# where float() of an ASCII cell does not.
_NOT_PLAIN = '"\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029'


# characters per read of a plain CSV file: a piece's text, lines and parse
# come on top of the command's peak memory, so pieces stay small. 64 Ki is
# about 850 lines of a raw recording; on a 1.16 MB one, larger pieces (up
# to the whole file) parse no faster, and 4 Ki pieces take twice as long
_CSV_CHUNK_CHARS = 1 << 16


def _read_plain_csv(path: str, header_ok, labelled: bool
                    ) -> tuple[list[str], np.ndarray, list[str]] | None:
    """The header cells of a plain CSV file and the [n, d] matrix of its
    other lines, read about _CSV_CHUNK_CHARS characters at a time. With
    labelled, the last cell of each line is its label, returned in a list,
    and the matrix holds the cells before it; else the list is empty.

    Each piece is read on to the end of its last line, and its lines go to
    _loadtxt_matrix at once; the pieces' matrices are joined once, so the
    file's text is never held whole. None unless the file is UTF-8 text whose
    lines are its csv records (see _NOT_PLAIN), with no blank line (which the
    csv reader returns as a row with no cells and loadtxt skips), a header
    whose cells header_ok accepts and a line after it; None too where a piece
    does not parse, so that the caller's csv scan names the fault.
    """
    header, blocks, labels = None, [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # the file object ends a line at \n, \r or \r\n, and keeps a \r\n whole
            while chunk := fh.read(_CSV_CHUNK_CHARS) + fh.readline():
                if any(c in chunk for c in _NOT_PLAIN):
                    return None
                # without those, the file's line ends are splitlines' only ones
                lines = chunk.splitlines()
                if "" in lines:
                    return None
                if header is None:
                    header = lines.pop(0).split(",")
                    if not header_ok(header):
                        return None
                if lines:
                    if labelled:
                        cells = [line.rpartition(",") for line in lines]
                        labels += [label for _, _, label in cells]
                        lines = [numbers for numbers, _, _ in cells]
                    block = _loadtxt_matrix(lines, len(header) - labelled)
                    if block is None:
                        return None
                    blocks.append(block)
    except UnicodeDecodeError:
        return None
    return (header, np.concatenate(blocks), labels) if blocks else None


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


def _read_numeric_csv(path: str, header_error, label_column: str | None = None
                      ) -> tuple[list[str], np.ndarray, list[str]]:
    """The one reader of the numeric CSV files (raw recordings, feature
    matrices, training histories): the names of a file's number columns, the
    [n, d] matrix of their values and, given a label_column, the label cell
    of each line (else an empty list).

    header_error(header) is None for a header the caller accepts, else why
    it does not. A plain file (_read_plain_csv) whose label column, if any,
    is last is parsed a piece at a time by loadtxt; any other goes to
    _scan_numeric_csv, which reads the same values, or names the first bad
    line.
    """
    if not os.path.isfile(path):
        raise DataError(f"{path}: file not found")
    labelled = label_column is not None
    plain = _read_plain_csv(
        path, lambda h: header_error(h) is None and (
            not labelled or len(h) >= 2 and h[-1] == label_column), labelled)
    if plain is None:
        return _scan_numeric_csv(path, header_error, label_column)
    header, data, labels = plain
    return header[:-1] if labelled else header, data, labels


def _scan_numeric_csv(path: str, header_error, label_column: str | None
                      ) -> tuple[list[str], np.ndarray, list[str]]:
    """_read_numeric_csv row by row, by the csv reader: a DataError names
    the header's fault, else the first line that is not one cell per column
    or holds a cell that is not a finite number, and that cell's column."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        error = header_error(header)
        if error is not None:
            raise DataError(f"{path}: {error}")
        label_idx = header.index(label_column) if label_column is not None else None
        names = [name for i, name in enumerate(header) if i != label_idx]
        rows, labels = [], []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: {len(row)} cells, header has {len(header)}")
            if label_idx is not None:
                labels.append(row.pop(label_idx))
            values = []
            for name, cell in zip(names, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DataError(f"{where}, column {name!r}: unparsable or non-finite "
                                    f"value {cell!r}")
                values.append(value)
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return names, np.array(rows, dtype=float).reshape(len(rows), len(names)), labels


def save_recording_csv(rec: Recording, path: str) -> None:
    """Write one recording as a CSV with channel header, one row per sample.

    The bytes are those csv.writer writes for repr'd floats: its default line
    terminator is \\r\\n, and no float's repr needs quoting. One str % call
    formats each block of _RAW_BLOCK_ROWS samples.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(rec.channels)
        _write_float_rows(fh, rec.data.T, _RAW_BLOCK_ROWS)


# rows per str % call when a feature matrix or a recording is written: a
# block's temporaries (a list of Python floats, the text) come on top of the
# command's peak memory, so blocks stay small; larger ones are no faster
_FEATURE_BLOCK_ROWS = 64
_RAW_BLOCK_ROWS = 256


def _write_float_rows(fh, rows: np.ndarray, block_rows: int,
                      tails: list[str] | None = None) -> None:
    """Write the rows of a [n, d] float matrix as lines of comma-separated reprs.

    Each line ends in \\r\\n, or in tails[i], which is passed as a %s
    argument so that its text is written as it is. One str % call formats
    each block of block_rows rows.
    """
    n, d = rows.shape
    line = ",".join(["%r"] * d) + ("\r\n" if tails is None else "%s")
    for start in range(0, n, block_rows):
        block = rows[start : start + block_rows]
        if tails is None:
            values = block.ravel().tolist()
        else:
            cells = block.tolist()
            for row, tail in zip(cells, tails[start : start + block_rows]):
                row.append(tail)
            values = itertools.chain.from_iterable(cells)
        fh.write(line * len(block) % tuple(values))


def window_recording(data: np.ndarray, window_len: int | None, hop: int | None) -> np.ndarray:
    """Fixed-length windows at a fixed hop of recordings' data [..., n_ch, n_samples].

    Returns a read-only view [..., n_windows, n_ch, window_len]; window k
    starts at sample k * hop. A window_len of None spans the whole
    recording, and a hop of None is the window length.
    """
    n_samples = data.shape[-1]
    window_len = n_samples if window_len is None else window_len
    hop = window_len if hop is None else hop
    if window_len > n_samples:
        raise DataError(f"window_len {window_len} is longer than the recording's "
                        f"{n_samples} samples")
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
    one example. Unstratified, all rows are one group, whatever their class.
    Identical spec + dataset always yields the same split.
    """
    rng = np.random.default_rng(spec.seed)
    memberships = np.empty(ds.n_examples, dtype=int)  # 0=train 1=val 2=test
    groups = ([np.flatnonzero(ds.labels == c) for c in range(len(ds.class_names))]
              if spec.stratified else [np.arange(ds.n_examples)])
    for c, idx in enumerate(groups):
        if spec.stratified and len(idx) < 3:
            raise DataError(
                f"class {ds.class_names[c]!r} has {len(idx)} examples; "
                "stratified splitting needs at least 3"
            )
        idx = rng.permutation(idx)
        n_tr, n_va, n_te = _largest_remainder(len(idx), spec.fractions)
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


def write_split(parts: tuple[Dataset, Dataset, Dataset], spec: SplitSpec, paths: list[str],
                label_column: str) -> None:
    """Write the train, val and test parts as CSVs at the first three paths,
    their label column named label_column, and the JSON sidecar at the fourth."""
    counts = {}
    for name, part, path in zip(("train", "val", "test"), parts, paths):
        save_feature_csv([part], path, label_column)
        counts[name] = {
            cname: int(np.sum(part.labels == c)) for c, cname in enumerate(part.class_names)
        }
    sidecar = {
        "seed": spec.seed,
        "fractions": list(spec.fractions),
        "counts_per_class": counts,
    }
    with open(paths[3], "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    labels = _synth_labels(n_per_class)
    data = np.empty((len(labels), len(DEFAULT_CHANNELS), window_len))
    for i, epoch in enumerate(_synth_epochs(n_per_class, window_len, fs, seed)):
        data[i] = epoch
    return data, labels


def _synth_labels(n_per_class: int) -> np.ndarray:
    """The labels of synth_generate's epochs, class by class."""
    return np.repeat(sorted(SYNTH_BANDS), n_per_class)


def _synth_epochs(n_per_class: int, window_len: int, fs: float, seed: int, start: int = 0):
    """Yield synth_generate's epochs from index start on, one [n_ch, window_len]
    array at a time. The seeded draws of the epochs before start are replayed
    and dropped, so the epochs of any share equal those rows of the whole."""
    rng = np.random.default_rng(seed)
    n_ch = len(DEFAULT_CHANNELS)
    t = np.arange(window_len) / fs
    for i, label in enumerate(_synth_labels(n_per_class)):
        lo, hi = SYNTH_BANDS[label]
        freq = rng.uniform(lo, hi)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_ch)
        noise = rng.standard_normal((n_ch, window_len))
        if i >= start:
            yield noise + SYNTH_AMPLITUDE * np.sin(2.0 * np.pi * freq * t[None, :] + phases[:, None])
