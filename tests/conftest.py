"""Fixtures shared by every test module, and the config records built
from the settings table's defaults."""

import dataclasses
import os
import signal

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
