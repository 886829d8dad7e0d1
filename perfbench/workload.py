"""One benchmark workload, run in a fresh process by perfbench/run.py.

Drives the public CLI (`eegpipe.cli.main`) on inputs made from the workload
seed, times each command, checks the outputs and writes a result JSON.

    python3 perfbench/workload.py --workload chain --seed 1 --seconds 10 \
        --trace 0 --spawned-at <time.monotonic() of the parent> --work <dir>

With --trace 0 the timed part is repeated until --seconds of it have been
measured, and each time is the median over the repeats.  With --trace 1 it
runs once untraced and twice traced; the traced runs give the per-layer
numbers and must repeat every count exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
from eegpipe import baselines, cli, dataio, dsp, evaluation, nn

import tracer

N_FEATURES = 56
_CMDS = ("synth", "featurize", "split", "train", "evaluate", "compare", "report")

# Per-layer metrics in the order they are reported, each with the end-to-end
# metric and workload it should move.  BENCHMARK.json lists the same names with
# their units; run.py refuses to report if the two disagree.
_IO = "wall_s on long_recordings and chain, setup_s on gru_train"
_EPOCH = "wall_s on long_recordings"
_NN = "wall_s on gru_train and chain"
_TREES = "wall_s on chain; no change on long_recordings and gru_train"
PER_LAYER = {
    **{f"cli.{c}.{k}": "wall_s on every workload that runs the command"
       for c in _CMDS for k in ("self_s", "total_s")},
    **dict.fromkeys([
        "dataio.save_recording_csv.calls", "dataio.save_recording_csv.self_s",
        "dataio.raw_mb_written", "dataio.load_raw_recordings.self_s", "dataio.raw_mb_read",
        "dataio.synth_generate.self_s", "dataio.window_recording.calls",
        "dataio.window_recording.self_s"], _IO),
    "dataio.load_feature_csv.self_s": "wall_s on chain and gru_train",
    "dataio.save_feature_csv.self_s": _IO,
    "dataio.stratified_split.self_s": "wall_s on chain, setup_s on gru_train",
    **dict.fromkeys(["dsp.sosfilt.calls", "dsp.sosfilt.self_s"],
                    "wall_s on chain (1200 short signals) more than on long_recordings (120 long)"),
    **dict.fromkeys(["dsp.filtfilt.self_s", "dsp.samples_filtered"], _IO),
    **dict.fromkeys([
        "dsp.extract_features.calls", "dsp.extract_features.self_s", "dsp.welch_psd.self_s",
        "dsp.band_power.self_s", "dsp.spectral_entropy.self_s", "dsp.time_domain_stats.self_s",
        "dsp.reject_artifacts.kept_ratio"], _EPOCH),
    "dsp.fit_normalization.calls": "wall_s on chain: 2 per compare today",
    **dict.fromkeys([
        "nn.gru_cell_forward.calls", "nn.gru_cell_forward.self_s", "nn.sigmoid.calls",
        "nn.sigmoid.self_s", "nn.gru_backward.self_s", "nn.dense_forward.self_s",
        "nn.dense_backward.self_s", "nn.softmax_cross_entropy_batch.self_s",
        "nn.adam_step.calls", "nn.adam_step.self_s", "nn.evaluate_model.total_s",
        "nn.train.self_s", "nn.epochs_run"], _NN),
    **dict.fromkeys([
        *[f"baselines.{f}.{k}" for f in ("best_gini_split", "best_mse_split")
          for k in ("calls", "self_s", "found_ratio")],
        "baselines.fit_tree.calls",
        *[f"baselines.{f}.total_s" for f in ("fit_logistic", "fit_linear_svm", "fit_forest",
                                             "fit_boosting", "predict_forest", "boost_scores")],
    ], _TREES),
    **{f"evaluation.{f}.total_s": _NN
       for f in ("confusion", "metrics", "compare_report", "emit_curves")},
    "trace.spans": "none: spans recorded in one traced run",
    "trace.overhead": "none: traced wall_s over untraced wall_s",
}


# Each builder returns (set-up commands, timed commands) for the workload seed,
# an iteration directory `it` and an inputs directory `inp`.


def _chain(seed, it, inp):
    """The acceptance chain users run; compare's tree split scans dominate it."""
    s = ["--seed", str(seed)]
    j = os.path.join
    return [], [
        ["synth", "--per-class", "100", *s, "--out", j(it, "raw")],
        ["featurize", *s, "--manifest", j(it, "raw", "manifest.csv"),
         "--out", j(it, "features.csv")],
        ["split", *s, "--input", j(it, "features.csv"), "--fractions", "0.6,0.2,0.2",
         "--out", j(it, "splits")],
        ["train", *s, "--train", j(it, "splits", "train.csv"), "--val", j(it, "splits", "val.csv"),
         "--out", j(it, "run")],
        ["evaluate", *s, "--checkpoint", j(it, "run", "checkpoint.json"),
         "--test", j(it, "splits", "test.csv"), "--out", j(it, "eval")],
        ["compare", *s, "--input", j(it, "features.csv"), "--out", j(it, "cmp")],
        ["report", *s, "--history", j(it, "run", "history.csv"), "--out", j(it, "curves")],
    ]


def _long_recordings(seed, it, inp):
    """Few big raw files cut into many overlapping epochs: DSP per epoch and file I/O."""
    s = ["--seed", str(seed)]
    j = os.path.join
    return [], [
        ["synth", "--per-class", "10", "--window-len", "15360", *s, "--out", j(it, "raw")],
        ["featurize", *s, "--manifest", j(it, "raw", "manifest.csv"), "--window-len", "256",
         "--hop", "128", "--out", j(it, "features.csv")],
    ]


def _gru_train(seed, it, inp):
    """GRU training alone: patience equal to the epoch count fixes the step count."""
    s = ["--seed", str(seed)]
    j = os.path.join
    setup = [
        ["synth", "--per-class", "300", *s, "--out", j(inp, "raw")],
        ["featurize", *s, "--manifest", j(inp, "raw", "manifest.csv"),
         "--out", j(inp, "features.csv")],
        ["split", *s, "--input", j(inp, "features.csv"), "--out", j(inp, "splits")],
    ]
    timed = [
        ["train", *s, "--train", j(inp, "splits", "train.csv"),
         "--val", j(inp, "splits", "val.csv"), "--epochs", "300", "--patience", "300",
         "--out", j(it, "run")],
        ["evaluate", *s, "--checkpoint", j(it, "run", "checkpoint.json"),
         "--test", j(inp, "splits", "test.csv"), "--out", j(it, "eval")],
        ["report", *s, "--history", j(it, "run", "history.csv"), "--out", j(it, "curves")],
    ]
    return setup, timed


# name -> (command builder, expected feature rows, expected optimizer steps or None)
WORKLOADS = {
    "chain": (_chain, 300, None),
    "long_recordings": (_long_recordings, 3570, None),
    "gru_train": (_gru_train, 900, 5100),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_shape(path):
    """(data rows, columns minus the label) of a CSV with a header line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return sum(1 for _ in fh), len(header) - 1


def _accuracy(path):
    with open(path, encoding="utf-8") as fh:
        return float(json.load(fh)["accuracy"])


def _flag(argv, name):
    return argv[argv.index(name) + 1]


# Output checks by command:
# (argv, expected rows, expected steps, optimizer steps counted) -> (ok, what, facts).
def _check_featurize(argv, rows_want, steps_want, steps):
    path = _flag(argv, "--out")
    shape = _csv_shape(path)
    facts = {"epochs": shape[0], "features.csv": _sha256(path)}
    return shape == (rows_want, N_FEATURES), f"features.csv is {shape[0]}x{shape[1]}", facts


def _check_train(argv, rows_want, steps_want, steps):
    out = _flag(argv, "--out")
    facts = {"steps": steps, "checkpoint.json": _sha256(os.path.join(out, "checkpoint.json"))}
    return steps_want in (None, steps), f"{steps} optimizer steps", facts


def _check_evaluate(argv, rows_want, steps_want, steps):
    acc = _accuracy(os.path.join(_flag(argv, "--out"), "metrics.json"))
    return 0.0 <= acc <= 1.0, f"test accuracy {acc}", {"test_acc.gru": acc}


def _check_compare(argv, rows_want, steps_want, steps):
    out = _flag(argv, "--out")
    rows = _csv_shape(os.path.join(out, "comparison.csv"))[0] + 1
    accs = [_accuracy(os.path.join(out, f"metrics_{m}.json"))
            for m in ("logistic", "linear_svm", "random_forest", "gradient_boosting")]
    return rows == 6, f"comparison.csv has {rows} rows", {"test_acc.baselines_min": min(accs)}


CHECKS = {"featurize": _check_featurize, "train": _check_train,
          "evaluate": _check_evaluate, "compare": _check_compare}


class Run:
    """Runs CLI commands, times them and tallies attempts and failures.

    It also counts optimizer steps, by swapping `nn.adam_step` for a wrapper
    that adds one to a counter; that costs well under a microsecond a step.
    """

    def __init__(self, log, rows_want, steps_want):
        self.log = log
        self.want = (rows_want, steps_want)
        self.attempted = 0
        self.failures: list[str] = []
        self.steps = 0
        adam_step = nn.adam_step

        @functools.wraps(adam_step)  # keeps the name the tracer wraps it under
        def counted_adam_step(*args, **kwargs):
            self.steps += 1
            return adam_step(*args, **kwargs)

        nn.adam_step = counted_adam_step

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def commands(self, cmds) -> tuple[float, dict, dict]:
        """Run cmds in order, then check their outputs.

        Returns the wall time of the commands, each command's time and the
        facts read from the outputs (shapes, digests, step count, accuracy).
        """
        stages, steps = {}, {}
        for argv in cmds:
            steps_before = self.steps
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(self.log):
                    rc = cli.main(argv)
                what = f"{argv[0]} exited {rc}"
            except Exception as exc:  # a traceback breaks the exit-code contract
                traceback.print_exc(file=self.log)
                rc, what = None, f"{argv[0]} raised {type(exc).__name__}: {exc}"
            stages[argv[0]] = time.perf_counter() - t
            steps[argv[0]] = self.steps - steps_before
            self.check(rc == 0, what)
        facts = {}
        for argv in cmds:
            if argv[0] in CHECKS:
                try:
                    ok, what, found = CHECKS[argv[0]](argv, *self.want, steps[argv[0]])
                except (OSError, ValueError, KeyError) as exc:
                    ok, what, found = False, f"{argv[0]} output unreadable: {exc}", {}
                self.check(ok, what)
                facts.update(found)
        return sum(stages.values()), stages, facts


def _per_layer(stats, counts, overhead):
    def get(name, key):  # a function that no longer exists reports 0
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out = {}
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key in ("calls", "self_s", "total_s"):
            out[name] = get(span, key)
        elif name == "dataio.raw_mb_written":
            out[name] = counts.get("dataio.raw_bytes_written", 0) / 1e6
        elif name == "dataio.raw_mb_read":
            out[name] = counts.get("dataio.raw_bytes_read", 0) / 1e6
        elif name in ("dsp.samples_filtered", "nn.epochs_run", "trace.spans"):
            out[name] = counts.get(name, 0)
        elif name == "dsp.reject_artifacts.kept_ratio":
            out[name] = ratio("dsp.reject_artifacts.kept", "dsp.reject_artifacts.attempted")
        elif key == "found_ratio":
            out[name] = ratio(f"{span}.found", f"{span}.calls")
        elif name == "trace.overhead":
            out[name] = overhead
        else:
            raise KeyError(name)
    return out


LAYER_MODULES = {"cli": cli, "dataio": dataio, "dsp": dsp, "nn": nn,
                 "baselines": baselines, "evaluation": evaluation}


def _iteration(run, timed, it_dir, trc=None):
    """One run of the timed commands in a fresh directory: see Run.commands."""
    os.makedirs(it_dir)
    with trc or contextlib.nullcontext():
        result = run.commands(timed)
    shutil.rmtree(it_dir)
    return result


def _traced_iteration(run, timed, it_dir, spans_path):
    """One traced run: (wall_s, per-span stats, counts, facts); writes the spans."""
    trc = tracer.Tracer(LAYER_MODULES)
    wall, _, facts = _iteration(run, timed, it_dir, trc)
    stats = trc.layer_stats()
    counts = dict(trc.counts)
    for name in ("baselines.best_gini_split", "baselines.best_mse_split"):
        counts[f"{name}.calls"] = stats[name]["calls"]
    counts["trace.spans"] = len(trc.spans)
    for problem in trc.check_nesting()[:5]:
        run.check(False, f"span tree: {problem}")
    trc.write(spans_path)
    return wall, stats, counts, facts


def _exact_counts(stats, counts):
    """Everything in a traced run that must repeat exactly."""
    return ({name: s["calls"] for name, s in stats.items()}, counts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    import_s = time.monotonic() - args.spawned_at

    build, rows_want, steps_want = WORKLOADS[args.workload]
    inp_dir = os.path.join(args.work, "inputs")
    setup_cmds, _ = build(args.seed, "", inp_dir)
    log = open(os.path.join(args.work, "cli.log"), "w", encoding="utf-8")
    run = Run(log, rows_want, steps_want)
    inputs_s, setup_stages, setup_facts = run.commands(setup_cmds)

    def timed_at(n):
        it_dir = os.path.join(args.work, f"it{n}")
        return build(args.seed, it_dir, inp_dir)[1], it_dir

    untraced = [_iteration(run, *timed_at(0))]  # (wall_s, stage times, facts)
    traced = []  # (wall_s, per-span stats, counts, facts)
    if args.trace:
        traced = [_traced_iteration(run, *timed_at(n), os.path.join(args.work, f"spans{n}.json"))
                  for n in (1, 2)]
    else:
        while sum(it[0] for it in untraced) < args.seconds:
            untraced.append(_iteration(run, *timed_at(len(untraced))))
    log.close()

    # outputs must be bit-identical across the runs of one invocation
    facts = [setup_facts | it[2] for it in untraced] + [setup_facts | it[3] for it in traced]
    for key in ("features.csv", "checkpoint.json", "test_acc.gru", "test_acc.baselines_min"):
        values = [f[key] for f in facts if key in f]
        if len(values) > 1:
            run.check(len(set(values)) == 1, f"{key} differs between runs")

    stage_s = {}
    for name in _CMDS:
        samples = [it[1][name] for it in untraced if name in it[1]]
        if samples:
            stage_s[name] = statistics.median(samples)
        elif name in setup_stages:
            stage_s[name] = setup_stages[name]
    wall_s = statistics.median(it[0] for it in untraced)
    result = {
        "import_s": import_s,
        "inputs_s": inputs_s,
        "wall_s": wall_s,
        "stage_s": stage_s,
        "featurize_epochs_per_s": facts[0].get("epochs", 0) / stage_s["featurize"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": {k: v for k, v in facts[0].items() if not k.endswith((".csv", ".json"))},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "wall_samples_s": [it[0] for it in untraced]},
    }
    if "steps" in facts[0]:
        result["train_steps_per_s"] = facts[0]["steps"] / stage_s["train"]
    if args.trace:
        (wall1, s1, c1, _), (wall2, s2, c2, _) = traced
        run.check(_exact_counts(s1, c1) == _exact_counts(s2, c2),
                  "per-layer counts differ between the two traced runs")
        stats = {name: {"calls": s1[name]["calls"],
                        **{k: (s1[name][k] + s2[name][k]) / 2 for k in ("self_s", "total_s")}}
                 for name in s1}
        result["per_layer"] = _per_layer(stats, c1, (wall1 + wall2) / 2 / wall_s)
    result["attempted"], result["failures"] = run.attempted, run.failures

    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(inp_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
