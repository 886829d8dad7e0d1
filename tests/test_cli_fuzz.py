"""Fuzz the command line with settings drawn per SETTINGS row.

Each value goes in as a flag or through --config, and every input path is
absent. So a run must stop before it reads or writes any file: exit 1 when a
drawn value breaks its rule, exit 2 (the missing input) otherwise. The rules
below are written out from README's "valid values" column, not taken from
the code under test.
"""

import contextlib
import io
import json
import math
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegpipe.cli import SETTINGS, main

INPUTS = {
    "featurize": ["--manifest"],
    "split": ["--input"],
    "train": ["--train", "--val"],
    "evaluate": ["--checkpoint", "--test"],
    "compare": ["--input"],
}
TRAINING = {"train", "compare"}


def _at_least(low):
    return lambda v: v >= low


def _positive_finite(v):
    return 0 < v < math.inf


def _finite_non_negative(v):
    return 0 <= v < math.inf


def _fractions_ok(v):
    return all(0 < f < 1 for f in v) and abs(sum(v) - 1) <= 1e-9


# key -> (type, rule, the commands that check the rule; None: every command)
RULES = {
    "per_class": (int, _at_least(1), {"synth"}),
    "window_len": (int, _at_least(1), None),
    "fs": (float, _positive_finite, {"synth"}),
    "hop": (int, _at_least(1), None),
    "filter_low_hz": (float, _positive_finite, None),
    "filter_high_hz": (float, _positive_finite, None),
    "filter_order": (int, lambda v: v in (2, 4, 6, 8), None),
    "artifact_threshold_uv": (float, lambda v: v > 0, None),
    "welch_segment_len": (int, lambda v: v >= 2 and v & (v - 1) == 0, None),
    "welch_overlap": (float, lambda v: 0 <= v < 1, None),
    "fractions": (tuple, _fractions_ok, {"split", "compare"}),
    "label_column": (str, lambda v: True, None),
    "hidden": (int, _at_least(1), None),
    "seq_len": (int, _at_least(1), None),
    "lr": (float, _finite_non_negative, TRAINING),
    "batch_size": (int, _at_least(1), TRAINING),
    "epochs": (int, _at_least(1), TRAINING),
    "patience": (int, _at_least(1), TRAINING),
    "optimizer": (str, lambda v: v in ("adam", "sgd"), TRAINING),
    "normalization": (str, lambda v: v in ("zscore", "minmax"), None),
    "n_trees": (int, _at_least(1), None),
    "forest_depth": (int, _at_least(0), None),
    "boost_rounds": (int, _at_least(0), None),
    "boost_depth": (int, _at_least(0), None),
    "boost_lr": (float, _finite_non_negative, None),
}
BAD = object()


def parse(kind, value):
    """`value` (a flag string or a JSON value) as `kind`, or BAD."""
    if isinstance(value, bool):
        return BAD
    if kind is str:
        return value if isinstance(value, str) else BAD
    if kind is tuple:
        parts = value.split(",") if isinstance(value, str) else value
        if not isinstance(parts, list):
            return BAD
        parts = [parse(float, p) for p in parts]
        return tuple(parts) if len(parts) == 3 and BAD not in parts else BAD
    try:
        if kind is float and isinstance(value, (int, float, str)):
            return float(value)
        if kind is int and (isinstance(value, (int, str))
                            or isinstance(value, float) and value.is_integer()):
            return int(value)
    except (ValueError, OverflowError):
        pass
    return BAD


def breaks_a_rule(command, drawn):
    values = {}
    for key, value in drawn.items():
        kind, rule, checked_by = RULES[key]
        values[key] = parse(kind, value)
        if values[key] is BAD:
            return True
        if (checked_by is None or command in checked_by) and not rule(values[key]):
            return True
    window = values.get("window_len")
    return command == "featurize" and window is not None and \
        window < values.get("welch_segment_len", 256)


JUNK = ["", "abc", "1.5", "0x10", "-", "--out", "nan", "inf", "-inf", "1e400", " 4 "]
INT_TEXT = st.sampled_from(["0", "1", "2", "3", "4", "8", "100", "-1", "-3"] + JUNK) | \
    st.integers(-3, 600).map(str)
FLOAT_TEXT = st.sampled_from(["0", "0.5", "1", "45", "0.999", "-0.5", "-1"] + JUNK) | \
    st.floats(-2, 100).map(repr)
STRING_TEXT = st.sampled_from(["adam", "sgd", "zscore", "minmax", "label", "foo"] + JUNK) | \
    st.text(max_size=4)
FRACTIONS_TEXT = st.sampled_from(["0.6,0.2,0.2", "0.5,0.25,0.25", "0.5,0.5", "0,0.5,0.5",
                                  "1,0,0", "a,b,c", "-0.2,0.6,0.6", "nan,0.5,0.5"])
JSON_JUNK = st.sampled_from([None, True, [], {}, float("nan"), float("inf"), -float("inf")])
FLAG_VALUES = {int: INT_TEXT, float: FLOAT_TEXT, str: STRING_TEXT, tuple: FRACTIONS_TEXT}
CONFIG_VALUES = {
    int: st.integers(-3, 600) | st.sampled_from([0.0, 4.0, 2.5]),
    float: st.floats(-2, 100) | st.integers(-3, 300),
    str: st.sampled_from(["adam", "sgd", "zscore", "minmax", "label", "foo"]),
    tuple: st.lists(st.sampled_from([0.6, 0.2, 0.5, 0.25, 0.0, 1.0, -0.2, "0.2"]), max_size=4),
}


@st.composite
def command_lines(draw):
    """(command, flags, config, drawn): up to four settings, each drawn as a flag or a
    config value; `drawn` maps each key to its value."""
    command = draw(st.sampled_from(sorted(INPUTS)))
    flags, config, drawn = [], {}, {}
    for key in draw(st.lists(st.sampled_from(sorted(SETTINGS)), unique=True, max_size=4)):
        kind, row = RULES[key][0], SETTINGS[key]
        if row.flag is not None and command in row.defaults and draw(st.booleans()):
            drawn[key] = draw(FLAG_VALUES[kind])
            flags.append(f"{row.flag}={drawn[key]}")
        else:
            drawn[key] = config[key] = draw(
                CONFIG_VALUES[kind] | FLAG_VALUES[kind] | JSON_JUNK)
    return command, flags, config, drawn


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None)
@given(line=command_lines())
def test_bad_setting_exits_1_and_good_one_reaches_the_missing_input(work, line):
    command, flags, config, drawn = line
    cfg, out = work / "cfg.json", work / "out"
    cfg.write_text(json.dumps(config))
    shutil.rmtree(out, ignore_errors=True)
    argv = [command, "--config", str(cfg), "--out", str(out), *flags]
    for i, flag in enumerate(INPUTS[command]):
        argv += [flag, str(work / "absent" / f"input{i}")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()
    assert code == (1 if breaks_a_rule(command, drawn) else 2), (argv, config, err)
