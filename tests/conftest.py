"""Fixtures shared by every test module, the small pipeline that more than
one module reads, and the config records built from the settings table's
defaults."""

import contextlib
import dataclasses
import io
import os
import shutil
import signal
import warnings

import pytest

from eegpipe import cli, dataio, dsp, nn

WATCHDOG_S = 60


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test this process has no child, running or exited and unreaped:
    a test, or the code it runs, must reap every process it starts."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"exited unreaped (pid {pid}, status {status})"
    pytest.fail(f"the test left a child process behind: {state}")


@pytest.fixture
def watchdog():
    """Fails the test with TimeoutError, instead of hanging the suite, when it
    runs longer than WATCHDOG_S seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {WATCHDOG_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


TRAIN = ["--epochs", "1", "--patience", "1", "--hidden", "4"]


def run(argv):
    """cli.main(argv) with warnings shown: (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, stderr.getvalue()


def ok(argv):
    code, err = run(argv)
    assert code == 0, err


def mixed_manifest(root):
    """mixed/: 256- and 512-sample recordings interleaved, and the middle one
    with an artifact in every 256-sample window, so that featurize's blocks
    change shape and hold a recording that keeps no epoch."""
    mixed = root / "mixed"
    mixed.mkdir()
    rows = []
    for n in ("256", "512"):
        ok(["synth", "--per-class", "1", "--window-len", n, "--seed", n,
            "--out", str(root / f"raw{n}")])
        lines = (root / f"raw{n}" / "manifest.csv").read_text().splitlines()
        for line in lines[1:]:
            name = line.split(",", 1)[0]
            shutil.copy(root / f"raw{n}" / name, mixed / f"{n}_{name}")
            rows.append(f"{n}_{line}")
    rows = [rows[0], rows[3], rows[1], rows[4], rows[2], rows[5]]
    middle = mixed / rows[2].split(",", 1)[0]
    lines = middle.read_text().splitlines(keepends=True)
    lines[1:] = ["5000.0,5000.0,5000.0,5000.0\n" if i % 100 == 50 else row
                 for i, row in enumerate(lines[1:])]
    middle.write_text("".join(lines))
    (mixed / "manifest.csv").write_text(
        "\n".join(["file,label,sample_rate_hz,channels"] + rows) + "\n")


@pytest.fixture(scope="session")
def fuzz_pipeline(tmp_path_factory):
    """A finished synth -> featurize -> split -> train run on tiny inputs, with
    the mixed/ recordings beside raw/: the files that the file fuzzing
    corrupts. Tests only read it; a test that writes works on a copy."""
    root = tmp_path_factory.mktemp("files")
    # three per class, one of each in every split: the fewest that
    # stratified splitting accepts
    ok(["synth", "--per-class", "3", "--out", str(root / "raw")])
    mixed_manifest(root)
    ok(["featurize", "--manifest", str(root / "raw" / "manifest.csv"),
        "--out", str(root / "features.csv")])
    ok(["split", "--input", str(root / "features.csv"), "--fractions", "0.34,0.33,0.33",
        "--out", str(root / "splits")])
    ok(["train", "--train", str(root / "splits" / "train.csv"),
        "--val", str(root / "splits" / "val.csv"), "--out", str(root / "run"), *TRAIN])
    return root


# The config records hold no defaults: cli.SETTINGS is their one home. A
# test builds a record from the defaults of the command that reads it, and
# names only the fields it sets itself.


def _defaults(command: str, keys: dict) -> dict:
    """Field -> the default of setting key in command, for each field, key of keys."""
    return {field: cli.SETTINGS[key].defaults[command] for field, key in keys.items()}


def feature_config(**overrides) -> dsp.FeatureConfig:
    """featurize's FeatureConfig, with overrides."""
    keys = {f.name: f.name for f in dataclasses.fields(dsp.FeatureConfig)}
    return dsp.FeatureConfig(**{**_defaults("featurize", keys), **overrides})


def train_config(**overrides) -> nn.TrainConfig:
    """train's TrainConfig at seed 0, with overrides."""
    keys = {"optimizer": "optimizer", "learning_rate": "lr", "batch_size": "batch_size",
            "max_epochs": "epochs", "patience": "patience"}
    return nn.TrainConfig(**{**_defaults("train", keys), "seed": 0, **overrides})


def split_spec(**overrides) -> dataio.SplitSpec:
    """split's stratified SplitSpec at seed 0, with overrides."""
    defaults = _defaults("split", {"fractions": "fractions"})
    return dataio.SplitSpec(**{**defaults, "seed": 0, "stratified": True, **overrides})
