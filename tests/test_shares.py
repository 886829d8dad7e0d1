"""synth writes, and featurize parses and featurizes, raw recordings in
shares across forked processes, one per usable CPU (dataio._map_in_shares);
compare fits the GRU in a forked share beside the baselines.

Whatever the CPU count, the files, arrays, exit codes, messages and warnings
must be those of a serial loop; a failing or dying share must raise, never
hang; and no process may be left behind (see the no_child_left fixture). The
CPU count is forced by replacing dataio._usable_cpus.
"""

import contextlib
import errno
import io
import itertools
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from conftest import WATCHDOG_S, run
from eegpipe import baselines, dataio, dsp, nn
from eegpipe.cli import FEATURE_BLOCK_SAMPLES, SETTINGS, derive_seed, main
from eegpipe.errors import DataError, NumericError, PipelineError
from test_file_fuzz import COMMANDS, CORRUPTIONS, command

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CHANNELS = ";".join(dataio.DEFAULT_CHANNELS)


@contextlib.contextmanager
def cpus(n):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_usable_cpus", lambda: n)
        yield


def cli(argv, n):
    """main(argv) at n usable CPUs: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with cpus(n), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


SYNTH = ["synth", "--per-class", "2", "--window-len", "300", "--seed", "5"]  # 6 files


def synth_at(n, out):
    code, stdout, stderr = cli([*SYNTH, "--out", str(out)], n)
    assert (code, stderr) == (0, "")
    return stdout.replace(str(out), "<out>")


@pytest.fixture(scope="module")
def synth_raw(tmp_path_factory):
    """<n>/: synth's 6 recordings of n samples (seed 5), for n of 300 and 2048,
    written once at 1 CPU. A test that spoils a recording works on a copy."""
    root = tmp_path_factory.mktemp("synth_raw")
    for n in ("300", "2048"):
        code, _, stderr = cli(["synth", "--per-class", "2", "--window-len", n, "--seed", "5",
                               "--out", str(root / n)], 1)
        assert (code, stderr) == (0, "")
    return root


# 7 is more CPUs than synth writes files
@pytest.mark.parametrize("n", [2, 3, 7])
def test_synth_writes_the_same_tree_at_any_cpu_count(tmp_path, n):
    serial = synth_at(1, tmp_path / "serial")
    assert synth_at(n, tmp_path / "shared") == serial
    want = tree(tmp_path / "serial")
    assert len(want) == 7
    assert tree(tmp_path / "shared") == want


@pytest.mark.parametrize("n", [1, 2])
def test_synth_write_error_in_a_share_is_a_bad_out_at_any_cpu_count(tmp_path, watchdog, n):
    # the last file is a directory: at 2 CPUs a forked child fails to write
    # it, and its OSError comes back to the one output block
    out = tmp_path / "raw"
    (out / "epoch_0005.csv").mkdir(parents=True)
    code, _, stderr = cli([*SYNTH, "--out", str(out)], n)
    assert (code, stderr) == (1, f"error: cannot write output {out}: [Errno 21] Is a "
                                 f"directory: '{out / 'epoch_0005.csv'}'\n")
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_recordings_load_the_same_at_any_cpu_count(synth_raw, n):
    raw = synth_raw / "300"
    with cpus(n):
        recs, names = dataio.load_raw_recordings(str(raw), str(raw / "manifest.csv"), list)
    # the oracle: the generator's own arrays, which the files hold bit for bit
    data, labels = dataio.synth_generate(2, 300, SETTINGS["fs"].defaults["synth"],
                                         derive_seed(5, "synth"))
    assert names == dataio.SYNTH_CLASS_NAMES
    assert [r.label for r in recs] == labels.tolist()
    assert all(r.channels == dataio.DEFAULT_CHANNELS and r.sample_rate_hz == 256.0
               for r in recs)
    assert [r.data.tobytes() for r in recs] == [x.tobytes() for x in data]
    # the arrays are the transposed [samples, channels] parse, as in a serial load
    assert all(r.data.T.flags.c_contiguous for r in recs)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("n_items", [0, 1, 2, 5])
def test_shares_are_contiguous_and_results_come_back_in_order(n, n_items):
    with cpus(n):
        got = dataio._map_in_shares(lambda share: [(i, os.getpid()) for i in share],
                                    range(n_items))
    assert [i for i, _ in got] == list(range(n_items))
    runs = [(pid, len(list(g))) for pid, g in itertools.groupby(pid for _, pid in got)]
    shares = min(n, n_items)
    assert [size for _, size in runs] == [
        n_items * (k + 1) // shares - n_items * k // shares for k in range(shares)]
    # this process runs the first share, and each other share has a process of its own
    assert [pid == os.getpid() for pid, _ in runs] == [k == 0 for k in range(shares)]
    assert len({pid for pid, _ in runs}) == shares


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("first_bad", [0, 3, 4])
def test_first_failing_item_wins(watchdog, n, first_bad):
    def fn(i):
        if i >= first_bad:
            raise DataError(f"bad item {i}")
        return i

    with cpus(n), pytest.raises(DataError, match=rf"^bad item {first_bad}$"):
        dataio._map_in_shares(lambda share: [fn(i) for i in share], range(6))


def write_manifest(root, rows):
    (root / "manifest.csv").write_text(
        "file,label,sample_rate_hz,channels\n"
        + "".join(f"{name},POSITIVE,256,{channels}\n" for name, channels in rows))
    return str(root / "manifest.csv")


def write_recordings(root, sizes):
    rng = np.random.default_rng(0)
    for i, n_samples in enumerate(sizes):
        rec = dataio.Recording(dataio.DEFAULT_CHANNELS, 256.0,
                               rng.normal(size=(4, n_samples)), label=0)
        dataio.save_recording_csv(rec, str(root / f"r{i}.csv"))


# the error of a spoiled recording, after its path
SPOILED = "line 6, column 'AF7': unparsable or non-finite value 'nan'"


def spoil(path):
    """A non-finite sample on line 6 of a recording file."""
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "0.5,nan,0.5,0.5\r\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("bad", [1, 3])
def test_load_error_names_the_first_bad_row_in_manifest_order(tmp_path, watchdog, n, bad):
    # later rows fail in each of the other checks of a recording: a missing
    # file, then a header other than the manifest's channels
    write_recordings(tmp_path, [40] * 6)
    spoil(tmp_path / f"r{bad}.csv")
    lines = (tmp_path / "r5.csv").read_text().splitlines(keepends=True)
    (tmp_path / "r5.csv").write_text("".join(["TP9,AF7,AF8,Fz\r\n", *lines[1:]]))
    rows = [(f"r{i}.csv", CHANNELS) for i in range(6)]
    rows[4] = ("absent.csv", CHANNELS)
    manifest = write_manifest(tmp_path, rows)
    with cpus(n), pytest.raises(DataError, match=rf"r{bad}\.csv: {SPOILED}"):
        dataio.load_raw_recordings(str(tmp_path), manifest, list)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("fault", ["channels", "file"])
def test_manifest_faults_are_found_before_any_recording_is_read(tmp_path, watchdog, n, fault):
    # every recording is spoiled, so that an error found by reading one
    # would name it: the error is the manifest's, and names its line
    write_recordings(tmp_path, [40] * 6)
    for i in range(6):
        spoil(tmp_path / f"r{i}.csv")
    rows = [(f"r{i}.csv", CHANNELS) for i in range(6)]
    rows[4] = ("r4.csv", "TP9;AF7") if fault == "channels" else ("./r1.csv", CHANNELS)
    manifest = write_manifest(tmp_path, rows)
    out = tmp_path / "features.csv"
    code, _, stderr = cli(["featurize", "--manifest", manifest, "--out", str(out)], n)
    want = {"channels": f"channels 'TP9;AF7' differ from the first row's {CHANNELS!r}",
            "file": "file './r1.csv' is listed twice, first on line 3"}[fault]
    assert (code, stderr) == (2, f"data error: {manifest}: line 6: {want}\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", [0, 2])
def test_bad_recording_while_children_hold_big_results_does_not_hang(tmp_path, watchdog, bad):
    # three shares of two files: the bad file is in this process's share or
    # the first child's, and each later share parses two recordings whose
    # pickled arrays are ten times a pipe's default buffer
    write_recordings(tmp_path, [40, 40, 20_000, 20_000, 20_000, 20_000])
    spoil(tmp_path / f"r{bad}.csv")
    manifest = write_manifest(tmp_path, [(f"r{i}.csv", CHANNELS) for i in range(6)])
    with cpus(3), pytest.raises(DataError, match=rf"r{bad}\.csv: {SPOILED}"):
        dataio.load_raw_recordings(str(tmp_path), manifest, list)


def dying_child_manifest(root, monkeypatch, n_samples):
    """The manifest of six recordings of n_samples, whose reader exits with
    status 1 at r3.csv when a child process reads it."""
    write_recordings(root, [n_samples] * 6)
    manifest = write_manifest(root, [(f"r{i}.csv", CHANNELS) for i in range(6)])
    parent, read_plain = os.getpid(), dataio._read_plain_csv

    def dies_in_a_child(path, *args, **kwargs):
        if path.endswith("r3.csv") and os.getpid() != parent:
            os._exit(1)
        return read_plain(path, *args, **kwargs)

    monkeypatch.setattr(dataio, "_read_plain_csv", dies_in_a_child)
    return manifest


def test_child_that_exits_mid_share_is_an_error_naming_its_status(tmp_path, monkeypatch,
                                                                 watchdog):
    manifest = dying_child_manifest(tmp_path, monkeypatch, 40)
    with cpus(3), pytest.raises(PipelineError, match=r"ended with exit status 1 and sent no result"):
        dataio.load_raw_recordings(str(tmp_path), manifest, list)


def test_child_that_exits_mid_featurize_exits_1_with_no_traceback(tmp_path, monkeypatch,
                                                                 watchdog):
    manifest = dying_child_manifest(tmp_path, monkeypatch, 300)
    out = tmp_path / "features.csv"
    code, _, stderr = cli(["featurize", "--manifest", manifest, "--out", str(out)], 3)
    assert code == 1
    assert stderr.startswith("error: worker process ") and "exit status 1" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


class NeedsTwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(a)  # pickles as (a,), which cannot rebuild it


@pytest.mark.parametrize("exc", [NeedsTwoArguments("x", "y"), DataError(lambda: 0)],
                         ids=["cannot_rebuild", "cannot_pickle"])
def test_exception_that_cannot_be_sent_is_an_error_naming_the_status(watchdog, exc):
    def fn(i):
        if i == 3:
            raise exc
        return i

    with cpus(2), pytest.raises(PipelineError, match=r"ended with exit status 1"):
        dataio._map_in_shares(lambda share: [fn(i) for i in share], range(4))


# both corpora read by featurize: the file fuzzing's raw recordings and
# manifests (test_cli_fuzz's command lines name absent inputs only, so they
# stop before any recording is read)
RAW_TARGETS = sorted(t for t in COMMANDS if t.startswith(("raw/", "mixed/")))


@pytest.mark.parametrize("corruption", ["none", *sorted(CORRUPTIONS)])
@pytest.mark.parametrize("target", RAW_TARGETS)
def test_raw_file_fuzz_gives_the_same_outcome_at_1_and_3_cpus(fuzz_pipeline, tmp_path,
                                                             watchdog, target, corruption):
    work = tmp_path / "work"
    shutil.copytree(fuzz_pipeline, work)
    path = work / target
    if corruption != "none":
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    outcomes = []
    for n in (1, 3):
        out = tmp_path / "out"
        with cpus(n):
            code, err = run(command(work, target, out))
        outcomes.append((code, err, out.read_bytes() if out.exists() else None))
        if out.exists():
            out.unlink()
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][0] in (0, 2)


def run_cli_module(args, tmp_path):
    """`python -m eegpipe.cli args` at 3 usable CPUs, with stdout and stderr piped
    and so block-buffered."""
    code = ("import runpy, sys\n"
            "import eegpipe.dataio\n"
            "eegpipe.dataio._usable_cpus = lambda: 3\n"
            "runpy.run_module('eegpipe.cli', run_name='__main__', alter_sys=True)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


def test_piped_output_lines_appear_once(tmp_path):
    # the children are forked with these lines still in this process's
    # stdout buffer, and must not flush it again
    proc = run_cli_module([*SYNTH, "--out", "raw"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[eegpipe synth] per_class=2 window_len=300 fs=256.0 seed=5",
        "wrote 6 epoch files + manifest to raw",
    ]
    spoil(tmp_path / "raw" / "epoch_0005.csv")
    proc = run_cli_module(["featurize", "--manifest", "raw/manifest.csv", "--out", "f.csv"],
                          tmp_path)
    assert proc.returncode == 2
    assert proc.stdout.splitlines() == [
        "[eegpipe featurize] manifest=raw/manifest.csv band=0.5-45.0Hz order=4 "
        "threshold_uv=100.0"]
    fpath = os.path.join(str(tmp_path), "raw", "epoch_0005.csv")
    assert proc.stderr == f"data error: {fpath}: {SPOILED}\n"


def short_recording(path, n_samples=10):
    """n_samples samples: at 10 the file parses, but is too short to filter;
    at 20 it filters, but is shorter than a Welch segment."""
    rec = dataio.Recording(dataio.DEFAULT_CHANNELS, 256.0,
                           np.random.default_rng(1).normal(size=(4, n_samples)), label=0)
    dataio.save_recording_csv(rec, str(path))


def zero_recording(path):
    """All zeros, as long as the file it replaces: the file parses and filters,
    but its PSD is all zero."""
    n_samples = len(path.read_text().splitlines()) - 1
    dataio.save_recording_csv(
        dataio.Recording(dataio.DEFAULT_CHANNELS, 256.0, np.zeros((4, n_samples)), label=0),
        str(path))


def overflow_recording(path):
    """Samples of +-1e200, as many as in the file it replaces: within the
    threshold of FAULT_ARGS, so the epoch is kept, but its power overflows."""
    n_samples = len(path.read_text().splitlines()) - 1
    signs = np.sign(np.random.default_rng(2).normal(size=(4, n_samples)))
    dataio.save_recording_csv(
        dataio.Recording(dataio.DEFAULT_CHANNELS, 256.0, 1e200 * signs, label=0), str(path))


# a fault in a recording file that featurize's parse, filter or feature
# stage finds, and its exit code and stderr line
FAULTS = {
    "missing": (os.remove, 2, "data error: {}: file not found"),
    "non_finite": (spoil, 2, "data error: {}: " + SPOILED),
    "too_short": (short_recording, 2,
                  "data error: {}: input length 10 too short; need more than 12 samples"),
    "all_zero": (zero_recording, 2,
                 "data error: {}: spectral entropy undefined for an all-zero PSD"),
    "overflow": (overflow_recording, 3, "numeric error: {}: the features of an epoch overflow "
                                        "to values that are not finite"),
}
# featurize keeps an overflowing epoch, and rejects none of the others
FAULT_ARGS = ["--threshold", "1e300"]


@pytest.mark.parametrize("n_samples", [300, 2048])
@pytest.mark.parametrize("positions", [(0, 5), (1, 2), (0, 1)], ids=["0_5", "1_2", "0_1"])
@pytest.mark.parametrize("later", sorted(FAULTS))
@pytest.mark.parametrize("earlier", sorted(FAULTS))
def test_first_bad_recording_wins_at_any_cpu_count(synth_raw, tmp_path, watchdog, earlier,
                                                   later, positions, n_samples):
    # the oracle: a serial run with only the earlier fault. At 2 CPUs the
    # shares are files {0, 1, 2} and {3, 4, 5}, at 3 CPUs {0, 1}, {2, 3} and
    # {4, 5}; a group is a share's recordings of 4 x 300 samples, or two of
    # 4 x 2048, so the faults fall in one group, one share or two shares
    raw, out = tmp_path / "raw", tmp_path / "f.csv"
    shutil.copytree(synth_raw / str(n_samples), raw)
    argv = ["featurize", "--manifest", str(raw / "manifest.csv"), "--out", str(out), *FAULT_ARGS]

    def outcome(n):
        """(exit code, stdout, stderr, whether --out exists) at n CPUs."""
        result = (*cli(argv, n), out.exists())
        if out.exists():
            out.unlink()
        return result

    first, second = (raw / f"epoch_{k:04d}.csv" for k in positions)
    spoil_first, code, message = FAULTS[earlier]
    spoil_first(first)
    want = outcome(1)
    # no rejection line: it is printed only when every recording featurizes
    assert want == (code, want[1], f"{message.format(first)}\n", False)
    assert "rejected" not in want[1]
    FAULTS[later][0](second)
    for n in (1, 2, 3):
        assert outcome(n) == want


@pytest.mark.parametrize("positions", [(0, 5), (1, 2), (0, 1)], ids=["0_5", "1_2", "0_1"])
@pytest.mark.parametrize("later", sorted(FAULTS))
@pytest.mark.parametrize("window_args, message", [
    ([], "signal length 20 shorter than Welch segment 256"),
    (["--window-len", "256"], "window_len 256 is longer than the recording's 20 samples"),
], ids=["whole", "window_256"])
def test_recording_too_short_for_its_epochs_is_named_at_any_cpu_count(synth_raw, tmp_path,
                                                                      watchdog, window_args,
                                                                      message, later, positions):
    # a recording of 20 samples filters, but is shorter than a Welch segment
    # and than a window of 256 samples: a data error that names it, with or
    # without --window-len, and the first bad recording wins as in
    # test_first_bad_recording_wins_at_any_cpu_count
    raw, out = tmp_path / "raw", tmp_path / "f.csv"
    shutil.copytree(synth_raw / "300", raw)
    argv = ["featurize", "--manifest", str(raw / "manifest.csv"), "--out", str(out),
            *FAULT_ARGS, *window_args]
    first, second = (raw / f"epoch_{k:04d}.csv" for k in positions)
    short_recording(first, 20)
    want = cli(argv, 1)
    assert want[::2] == (2, f"data error: {first}: {message}\n")
    FAULTS[later][0](second)
    for n in (1, 3):
        assert cli(argv, n) == want
    assert not out.exists()


def test_warnings_raised_in_shares_are_recorded_once_in_manifest_order(synth_raw, tmp_path,
                                                                      monkeypatch, watchdog):
    raw = synth_raw / "300"
    extract = dsp.extract_features

    def warns(epochs, *args, **kwargs):
        warnings.warn("featurizing a block")  # raised in every share, shown once
        for epoch in epochs:
            warnings.warn(f"epoch {zlib.crc32(epoch.tobytes())}")
        return extract(epochs, *args, **kwargs)

    monkeypatch.setattr(dsp, "extract_features", warns)
    argv = ["featurize", "--manifest", str(raw / "manifest.csv"), "--out", str(tmp_path / "f.csv")]
    recorded = []
    for n in (1, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert cli(argv, n)[0] == 0
        recorded.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert recorded[1] == recorded[0]
    # one block of six epochs at 1 CPU, three blocks at 3 CPUs; each
    # recording is one epoch, filtered alone here
    recs, _ = dataio.load_raw_recordings(str(raw), str(raw / "manifest.csv"), list)
    coeffs = dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)
    assert [m for _, m, _, _ in recorded[0]] == ["featurizing a block"] + [
        f"epoch {zlib.crc32(dsp.filtfilt(coeffs, [r.data])[0].tobytes())}" for r in recs]


def featurize_peak_growth(tmp_path, n_samples, counts):
    """How much featurize's traced peak grows, at 1 CPU, from the first count
    of recordings of 4 x n_samples to the second."""
    write_recordings(tmp_path, [n_samples] * counts[1])
    peaks = []
    for n_recordings in counts:
        manifest = write_manifest(tmp_path, [(f"r{i}.csv", CHANNELS) for i in range(n_recordings)])
        tracemalloc.start()
        try:
            outcome = cli(["featurize", "--manifest", manifest, "--out", str(tmp_path / "f.csv")], 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert outcome[0] == 0
    return peaks[1] - peaks[0]


def test_featurize_peak_memory_does_not_grow_with_the_share(tmp_path, watchdog):
    # at 1 CPU one share holds every recording, and a long one is featurized
    # and freed before the next is parsed: the traced peak over 12 recordings
    # of 15360 samples exceeds that over 4 by less than one recording's samples
    assert featurize_peak_growth(tmp_path, 15360, (4, 12)) < 4 * 15360 * 8


def test_featurize_peak_memory_does_not_grow_with_a_run_of_short_recordings(tmp_path,
                                                                           watchdog):
    # each group of short recordings is featurized and freed before the next
    # recording is parsed: from 300 recordings of 4 x 256 samples to 900, the
    # traced peak grows by less than a few copies of the added feature rows
    # plus one group's samples
    added_rows = 600 * 4 * 14 * 8
    growth = featurize_peak_growth(tmp_path, 256, (300, 900))
    assert growth < 4 * added_rows + FEATURE_BLOCK_SAMPLES * 8


def test_featurize_peak_memory_stays_under_four_copies_of_a_long_recording(tmp_path,
                                                                         watchdog):
    # one recording of 4 x 61440 samples cut into 479 overlapping epochs at
    # 1 CPU: its text is parsed in pieces and its kept epochs are featurized
    # in blocks, so the traced peak stays under 4 times its float64 samples
    # (as one array, the kept epochs alone are twice that, and their feature
    # temporaries about five times the epochs)
    n_samples = 61440
    write_recordings(tmp_path, [n_samples])
    manifest = write_manifest(tmp_path, [("r0.csv", CHANNELS)])
    tracemalloc.start()
    try:
        outcome = cli(["featurize", "--manifest", manifest, "--window-len", "256",
                       "--hop", "128", "--out", str(tmp_path / "f.csv")], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome[0] == 0
    assert "wrote 479 x 56 feature matrix" in outcome[1]
    assert peak < 4 * (4 * n_samples * 8)


def main_after_threaded_blas(n, argv):
    """main(argv) at n usable CPUs in a fresh interpreter whose OpenBLAS has
    started a thread pool: the completed process."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from eegpipe import dataio\n"
            "from eegpipe.cli import main\n"
            "a = np.ones((600, 600))\n"
            "a @ a\n"
            "dataio._usable_cpus = lambda: int(sys.argv[1])\n"
            "sys.exit(main(sys.argv[2:]))\n")
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "2"}
    return subprocess.run([sys.executable, "-c", code, str(n), *argv],
                          capture_output=True, text=True, env=env, timeout=WATCHDOG_S)


def test_featurize_after_threaded_blas_matches_one_cpu(synth_raw, tmp_path, watchdog):
    # the children filter with numpy, and forking a process whose OpenBLAS
    # has started a thread pool must neither hang nor change a bit
    raw = synth_raw / "300"
    for n in (1, 2):
        proc = main_after_threaded_blas(n, ["featurize", "--manifest", str(raw / "manifest.csv"),
                                            "--out", str(tmp_path / f"{n}.csv")])
        assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()


# compare fits the four baselines in this process and the GRU beside them in
# a forked child, as the two items of one _map_in_shares call


@pytest.fixture(scope="module")
def compare_features(tmp_path_factory):
    """A 30-row feature file (10 per class) for compare."""
    root = tmp_path_factory.mktemp("compare")
    code, _, stderr = cli(["synth", "--per-class", "10", "--seed", "5",
                           "--out", str(root / "raw")], 1)
    assert (code, stderr) == (0, "")
    code, _, stderr = cli(["featurize", "--manifest", str(root / "raw" / "manifest.csv"),
                           "--out", str(root / "features.csv")], 1)
    assert (code, stderr) == (0, "")
    return str(root / "features.csv")


COMPARE_SMALL = ["--hidden", "4", "--epochs", "6", "--patience", "6",
                 "--n-trees", "4", "--boost-rounds", "4"]


def compare_at(n, features, out, seed=1):
    """compare at n usable CPUs: (exit code, stdout with out replaced, stderr)."""
    code, stdout, stderr = cli(["compare", "--input", features, "--out", str(out),
                                "--seed", str(seed), *COMPARE_SMALL], n)
    return code, stdout.replace(str(out), "<out>"), stderr


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_compare_writes_the_same_files_at_any_cpu_count(compare_features, tmp_path, watchdog,
                                                        seed, n):
    want = compare_at(1, compare_features, tmp_path / "one", seed)
    assert (want[0], want[2]) == (0, "")
    assert compare_at(n, compare_features, tmp_path / "n", seed) == want
    assert tree(tmp_path / "n") == tree(tmp_path / "one")


def recording_calls(log, name, fn):
    """fn, made to append "<name> <pid>" to the file log at each call, in
    whichever process makes it."""
    def wrapper(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{name} {os.getpid()}\n")
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("n", [1, 2])
def test_compare_fits_the_baselines_here_and_the_gru_in_a_child(compare_features, tmp_path,
                                                               monkeypatch, watchdog, n):
    pids = tmp_path / "pids"
    monkeypatch.setattr(nn, "train", recording_calls(pids, "gru", nn.train))
    monkeypatch.setattr(baselines, "fit_boosting",
                        recording_calls(pids, "boosting", baselines.fit_boosting))
    assert compare_at(n, compare_features, tmp_path / "out")[0] == 0
    where = dict(line.split() for line in pids.read_text().splitlines())
    assert where["boosting"] == str(os.getpid())
    assert (where["gru"] == str(os.getpid())) == (n == 1)


@pytest.mark.parametrize("n", [1, 2])
def test_compare_refuses_a_one_class_file_before_any_fit(compare_features, tmp_path,
                                                         monkeypatch, watchdog, n):
    ds = dataio.load_feature_csv(compare_features, dataio.LABEL_COLUMN)
    neutral = str(tmp_path / "neutral.csv")
    dataio.save_feature_csv([dataio.Dataset(ds.features, np.zeros(ds.n_examples, dtype=int),
                                            ["NEUTRAL"], ds.feature_names)], neutral)
    calls = tmp_path / "calls"
    for module, name in ((dataio, "stratified_split"), (dsp, "fit_normalization"),
                         (nn, "train"), (baselines, "fit_logistic")):
        monkeypatch.setattr(module, name, recording_calls(calls, name, getattr(module, name)))
    out = tmp_path / "out"
    assert compare_at(n, neutral, out)[::2] == (
        2, f"data error: {neutral}: one class, 'NEUTRAL'; compare needs at least 2\n")
    assert not out.exists()
    assert not calls.exists()


def fails(error):
    def raises(*args, **kwargs):
        raise error
    return raises


GRU_DIVERGED = "training diverged: overflow encountered in matmul at epoch 0, batch 0"
GRU_FAILS = ("train", NumericError(GRU_DIVERGED))
LOGISTIC_FAILS = ("fit_logistic", DataError("logistic regression failed"))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("failing, want_code, want_stderr", [
    # the GRU's error comes back from its share, a forked child at 2 CPUs
    (GRU_FAILS, 3, f"numeric error: {GRU_DIVERGED}\n"),
    (LOGISTIC_FAILS, 2, "data error: logistic regression failed\n"),
], ids=["gru", "logistic"])
def test_compare_raises_the_first_failing_model_in_report_order(compare_features, tmp_path,
                                                                 monkeypatch, watchdog, n,
                                                                 failing, want_code,
                                                                 want_stderr):
    name, error = failing
    monkeypatch.setattr(nn if name == "train" else baselines, name, fails(error))
    out = tmp_path / "out"
    assert compare_at(n, compare_features, out)[::2] == (want_code, want_stderr)
    assert not out.exists()


def test_gru_share_that_exits_mid_training_exits_1_with_no_traceback(compare_features, tmp_path,
                                                                    monkeypatch, watchdog):
    parent, step = os.getpid(), nn.adam_step

    def dies_in_a_child(params, grads, state, t, cfg):
        if t == 3 and os.getpid() != parent:
            os._exit(1)
        return step(params, grads, state, t, cfg)

    monkeypatch.setattr(nn, "adam_step", dies_in_a_child)
    out = tmp_path / "out"
    code, _, stderr = compare_at(2, compare_features, out)
    assert code == 1
    assert stderr.startswith("error: worker process ") and "exit status 1" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@pytest.mark.parametrize("call, error", [
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ("pipe", OSError(errno.EMFILE, "Too many open files"))], ids=["fork", "pipe"])
@pytest.mark.parametrize("which", ["synth", "featurize", "compare"])
def test_worker_that_cannot_start_exits_1_naming_the_os_error(compare_features, tmp_path,
                                                              monkeypatch, which, call, error):
    # no process is forked: the first fork (or pipe) of the first share fails
    def fails(*args):
        raise error

    write_recordings(tmp_path, [300] * 2)
    manifest = write_manifest(tmp_path, [(f"r{i}.csv", CHANNELS) for i in range(2)])
    out = tmp_path / "out"
    argv = {"synth": [*SYNTH, "--out", str(out)],
            "featurize": ["featurize", "--manifest", manifest, "--out", str(out)],
            "compare": ["compare", "--input", compare_features, "--out", str(out),
                        *COMPARE_SMALL]}[which]
    before = open_fds()
    monkeypatch.setattr(os, call, fails)
    code, _, stderr = cli(argv, 2)
    assert (code, stderr) == (1, f"error: cannot start a worker process: {error}\n")
    assert open_fds() == before  # the pipe of a fork that failed is closed
    assert not (out / "manifest.csv" if which == "synth" else out).exists()


def test_compare_after_threaded_blas_matches_one_cpu(compare_features, tmp_path, watchdog):
    # the GRU trains with numpy matmuls in the forked child
    for n in (1, 2):
        proc = main_after_threaded_blas(n, ["compare", "--input", compare_features,
                                            "--out", str(tmp_path / str(n)), *COMPARE_SMALL])
        assert (proc.returncode, proc.stderr) == (0, "")
    assert tree(tmp_path / "2") == tree(tmp_path / "1")
