"""One validation rule: each outside value is checked once, where it enters.

The functions of the package that raise a ConfigError, DataError or
NumericError are exactly those of ENTRY_CHECKS, each with why it may: it
reads a file, checks a setting, cross-checks data-dependent shapes (where
both sides are first known), or traps a numeric fault where it happens. No
function re-checks what the pipeline built (an array's shape, a label's
range) or a setting that its cli.SETTINGS domain already checked. A new
raise needs a row here; `python tests/raise_site_scan.py` shows whether the
suite reaches each raise through cli.main."""

import ast

from test_private_names import module_trees

ERRORS = {"ConfigError", "DataError", "NumericError"}
KINDS = ("reads a file", "checks a setting", "cross-checks data-dependent shapes",
         "traps a numeric fault")

ENTRY_CHECKS = {
    "cli._Parser.error": "checks a setting: argparse's usage errors",
    "cli._load_config": "reads a file: the --config JSON object",
    "cli._convert": "checks a setting: its converter and SETTINGS domain",
    "cli.resolve_settings": "checks a setting: every config key names one",
    "cli._writing": "checks a setting: --out can be written",
    "cli._refuse_overwriting_inputs": "checks a setting: no output is an input file",
    "cli.cmd_featurize": "checks a setting: window_len against welch_segment_len, the "
                         "filter edges' order, a manifest with recordings, an epoch kept",
    "cli._ShareFeaturizer.add": "cross-checks data-dependent shapes: names the recording "
                                "too short to filter or window",
    "cli._ShareFeaturizer._features": "traps a numeric fault: a feature that overflows, "
                                      "and names the recording of a feature-stage fault",
    "cli._require_columns": "reads a file: its feature columns against the training "
                            "file's or the checkpoint's",
    "cli.cmd_compare": "reads a file: compare needs two classes in it",
    "dataio.SplitSpec.__post_init__": "checks a setting: the fractions' range and sum",
    "dataio._open_csv": "reads a file: UTF-8 text the csv reader accepts",
    "dataio.relabel": "reads a file: its labels against the class table",
    "dataio.read_manifest": "reads a file: the manifest's columns, cells, rates and channels",
    "dataio.load_raw_recordings.parse": "reads a file: each row's channels against the first's",
    "dataio._read_numeric_csv": "reads a file: it exists",
    "dataio._scan_numeric_csv": "reads a file: its header, cells and rows",
    "dataio.window_recording": "cross-checks data-dependent shapes: the window against the "
                               "recording's length",
    "dataio.stratified_split": "cross-checks data-dependent shapes: class sizes against the "
                               "fractions",
    "dataio._synth_labels": "checks a setting: synth's per_class, window_len and fs",
    "dsp.FilterCoefficients.__post_init__": "traps a numeric fault: an unstable or "
                                            "non-finite section",
    "dsp.NormalizationParams.from_dict": "reads a file: a checkpoint's normalization",
    "dsp.design_butterworth_bandpass": "cross-checks data-dependent shapes: the band edges "
                                       "against the manifest's rate",
    "dsp.filtfilt": "cross-checks data-dependent shapes: the recording against the padding",
    "dsp.welch_psd": "cross-checks data-dependent shapes: the epoch against the segment",
    "dsp.band_power": "cross-checks data-dependent shapes: the band against the PSD bins",
    "dsp.check_bands": "cross-checks data-dependent shapes: the EEG bands against the "
                       "manifest's rate",
    "dsp.spectral_entropy": "cross-checks data-dependent shapes: an all-zero PSD",
    "dsp._require_finite_columns": "traps a numeric fault: a normalization that overflows",
    "nn.ModelConfig.__post_init__": "reads a file: a checkpoint's model_config",
    "nn.TrainConfig.__post_init__": "checks a setting: lr, batch_size, epochs and patience",
    "nn.predict_batch": "traps a numeric fault: a forward pass that overflows",
    "nn.train": "traps a numeric fault: training that diverges",
    "nn.dataset_to_sequences": "cross-checks data-dependent shapes: the feature count "
                               "against seq_len",
    "nn._array": "reads a file: a checkpoint's weights",
    "nn.load_checkpoint": "reads a file: the checkpoint's JSON",
}


def raise_sites(tree, module: str) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of each raise of one of
    ERRORS, by name or as an attribute such as errors.DataError, with the
    name module[.Class].function[.inner] of the function or method whose
    own body (not a function nested in it) holds it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                func = child.exc.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ERRORS:
                    found.append((child.lineno, child.end_lineno, ".".join([module, *scope])))
            visit(child, scope)

    visit(tree, [])
    return sorted(found)


def test_only_entry_checks_raise():
    found = {name for module, tree in module_trees().items()
             for _, _, name in raise_sites(tree, module[:-3])}
    unlisted = sorted(found - set(ENTRY_CHECKS))
    stale = sorted(set(ENTRY_CHECKS) - found)
    assert not unlisted, f"raise a pipeline error but are no entry check: {unlisted}"
    assert not stale, f"entry checks that no longer raise: {stale}"


def test_each_entry_check_says_why():
    assert [name for name, why in ENTRY_CHECKS.items() if not why.startswith(KINDS)] == []


def test_the_guard_finds_each_way_of_raising():
    tree = ast.parse(
        "from . import errors\n"
        "from .errors import ConfigError, DataError\n\n"
        "class Spec:\n"
        "    def __post_init__(self):\n"
        "        if self.x < 0:\n"
        "            raise ConfigError('x')\n\n"
        "def load(path):\n"
        "    def parse(row):\n"
        "        raise errors.NumericError(row)\n"
        "    try:\n"
        "        return [parse(row) for row in open(path)]\n"
        "    except OSError as exc:\n"
        "        raise DataError(\n"
        "            str(exc)) from None\n\n"
        "def passes_on(exc):\n"
        "    if exc is None:\n"
        "        raise ValueError('no error')\n"
        "    raise exc\n")
    assert raise_sites(tree, "m") == [(7, 7, "m.Spec.__post_init__"), (11, 11, "m.load.parse"),
                                      (15, 16, "m.load")]
