"""Fuzz the files the commands read: raw recordings and manifests, feature
matrices, checkpoints and training histories.

Each case corrupts the bytes of one file of a small finished pipeline in one
way (truncation, a flipped byte, a NUL, invalid UTF-8, an overlong line, a
huge exponent) and runs the command that reads it. Whatever the bytes, the
command must keep the exit-code contract: return 0, 1, 2 or 3, raise
nothing, and print no traceback and no warning.
"""

import re
import shutil

import pytest

from conftest import TRAIN, run

# target file -> the command line that reads it, relative to the fuzz_pipeline root
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
def test_each_command_runs_on_the_uncorrupted_files(fuzz_pipeline, tmp_path, target):
    assert run(command(fuzz_pipeline, target, tmp_path / "out")) == (0, "")


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("target", sorted(COMMANDS))
def test_corrupt_file_keeps_the_exit_code_contract(fuzz_pipeline, tmp_path, target,
                                                  corruption):
    work = tmp_path / "work"
    shutil.copytree(fuzz_pipeline, work)
    path = work / target
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    code, err = run(command(work, target, tmp_path / "out"))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and "Warning" not in err, err
    if corruption == "huge_exponent":  # a number that overflows is refused, not used
        assert code == 2, err
