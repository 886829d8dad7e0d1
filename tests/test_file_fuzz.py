"""Fuzz the files the commands read: raw recordings and manifests, feature
matrices, checkpoints and training histories.

Each case corrupts the bytes of one file of a small finished pipeline in one
way (truncation, a flipped byte, a NUL, invalid UTF-8, an overlong line, a
huge exponent) and runs the command that reads it. Whatever the bytes, the
command must keep the exit-code contract: return 0, 1, 2 or 3, raise
nothing, and print no traceback and no warning.
"""

import contextlib
import io
import re
import shutil
import warnings

import pytest

from eegpipe.cli import main

TRAIN = ["--epochs", "1", "--patience", "1", "--hidden", "4"]


def run(argv):
    """main(argv) with warnings shown: (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A finished synth -> featurize -> split -> train run on tiny inputs."""
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


# target file -> the command line that reads it, relative to the pipeline root
COMMANDS = {
    "raw/epoch_0002.csv": ["featurize", "--manifest", "raw/manifest.csv"],
    "raw/manifest.csv": ["featurize", "--manifest", "raw/manifest.csv"],
    "mixed/512_epoch_0001.csv": ["featurize", "--manifest", "mixed/manifest.csv"],
    "mixed/manifest.csv": ["featurize", "--manifest", "mixed/manifest.csv",
                           "--window-len", "256", "--hop", "128"],
    "features.csv": ["split", "--input", "features.csv", "--fractions", "0.34,0.33,0.33"],
    "splits/train.csv": ["train", "--train", "splits/train.csv", "--val", "splits/val.csv",
                         *TRAIN],
    "splits/test.csv": ["evaluate", "--checkpoint", "run/checkpoint.json",
                        "--test", "splits/test.csv"],
    "run/checkpoint.json": ["evaluate", "--checkpoint", "run/checkpoint.json",
                            "--test", "splits/test.csv"],
    "run/history.csv": ["report", "--history", "run/history.csv"],
}


def command(root, target, out):
    """The argv of COMMANDS[target] with its files under root."""
    return [str(root / a) if "/" in a or a.endswith(".csv") else a
            for a in COMMANDS[target]] + ["--out", str(out)]


def _middle(data: bytes) -> int:
    """The middle of the file's second line, or of the file if it has none."""
    start = data.find(b"\n") + 1
    end = data.find(b"\n", start)
    return (start + end) // 2 if end > start else len(data) // 2


DECIMAL = re.compile(rb"-?[0-9]+[.][0-9]+(?:e[-+]?[0-9]+)?")


def _overflow(data: bytes) -> bytes:
    """The first decimal number after the first line (or in the file) made one
    that overflows to inf."""
    m = DECIMAL.search(data, data.find(b"\n") + 1) or DECIMAL.search(data)
    return data[: m.start()] + b"9e999999" + data[m.end():]


CORRUPTIONS = {
    "truncated": lambda d: d[: _middle(d)],
    "flipped_byte": lambda d: d[: _middle(d)] + bytes([d[_middle(d)] ^ 0x10]) + d[_middle(d) + 1:],
    "nul": lambda d: d[: _middle(d)] + b"\x00" + d[_middle(d):],
    "invalid_utf8": lambda d: d[: _middle(d)] + b"\xff\xfe\xc3" + d[_middle(d):],
    "overlong_line": lambda d: d[: _middle(d)] + b"1" * 400_000 + b"," * 50_000 + d[_middle(d):],
    "huge_exponent": _overflow,
}


@pytest.mark.parametrize("target", sorted(COMMANDS))
def test_each_command_runs_on_the_uncorrupted_files(pipeline, tmp_path, target):
    assert run(command(pipeline, target, tmp_path / "out")) == (0, "")


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("target", sorted(COMMANDS))
def test_corrupt_file_keeps_the_exit_code_contract(pipeline, tmp_path, target, corruption):
    work = tmp_path / "work"
    shutil.copytree(pipeline, work)
    path = work / target
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    code, err = run(command(work, target, tmp_path / "out"))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and "Warning" not in err, err
    if corruption == "huge_exponent":  # a number that overflows is refused, not used
        assert code == 2, err
