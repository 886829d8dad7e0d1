import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy._core._exceptions import _ArrayMemoryError

from eegpipe import cli, dataio, dsp, nn
from eegpipe.cli import SETTINGS, build_parser, derive_seed, main, resolve_settings
from eegpipe.errors import ConfigError


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> featurize -> split -> train chain shared by read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    raw = str(root / "raw")
    feats = str(root / "features.csv")
    splits = str(root / "splits")
    run_dir = str(root / "run")
    assert run("synth", "--per-class", "8", "--out", raw) == 0
    assert run("featurize", "--manifest", os.path.join(raw, "manifest.csv"),
               "--out", feats) == 0
    assert run("split", "--input", feats, "--out", splits) == 0
    assert run(
        "train", "--train", os.path.join(splits, "train.csv"),
        "--val", os.path.join(splits, "val.csv"), "--out", run_dir,
        "--hidden", "8", "--epochs", "8", "--patience", "8",
    ) == 0
    return {"root": root, "raw": raw, "feats": feats, "splits": splits, "run": run_dir}


class TestSeedDerivation:
    def test_matches_definition(self):
        want = int.from_bytes(hashlib.sha256(b"7:train").digest()[:4], "big")
        assert derive_seed(7, "train") == want

    def test_component_separation(self):
        assert derive_seed(0, "synth") != derive_seed(0, "split")


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("synth", "--no-such-flag") == 1

    def test_bad_per_class(self, tmp_path):
        assert run("synth", "--per-class", "0", "--out", str(tmp_path)) == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        code = run("featurize", "--manifest", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f.csv"))
        assert code == 2

    def test_bad_fractions(self, pipeline, tmp_path):
        assert run("split", "--input", pipeline["feats"],
                   "--fractions", "0.5,0.5", "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("command", ["split", "compare"])
    @pytest.mark.parametrize("fractions", ["a,b,c", "0.5,0.3"])
    def test_bad_fractions_rejected_before_work(self, pipeline, tmp_path, capsys,
                                                command, fractions):
        out = str(tmp_path / "out")
        assert run(command, "--input", pipeline["feats"], "--fractions", fractions,
                   "--out", out) == 1
        assert "--fractions" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("flag,value,key", [
        ("--batch-size", "0", "batch_size"), ("--seq-len", "0", "--seq-len"),
        ("--hidden", "0", "--hidden"),
        ("--epochs", "0", "max_epochs"), ("--epochs", "-1", "max_epochs"),
        ("--patience", "-1", "patience"), ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"), ("--optimizer", "rmsprop", "optimizer must be"),
    ])
    def test_bad_training_setting_rejected_before_any_file(self, tmp_path, capsys, command,
                                                           flag, value, key):
        # the input files do not exist: the setting must be rejected first
        out = str(tmp_path / "out")
        assert run(command, *REQUIRED[command], flag, value, "--out", out) == 1
        captured = capsys.readouterr()
        assert key in captured.err and not captured.out
        assert not os.path.exists(out)

    def test_bad_hop_rejected_before_manifest_is_read(self, tmp_path, capsys):
        out = str(tmp_path / "f.csv")
        assert run("featurize", "--manifest", str(tmp_path / "absent.csv"), "--hop", "0",
                   "--out", out) == 1
        captured = capsys.readouterr()
        assert "hop must be >= 1" in captured.err and not captured.out
        assert not os.path.exists(out)

    def test_nan_threshold_rejected_before_manifest_is_read(self, tmp_path, capsys):
        out = str(tmp_path / "f.csv")
        assert run("featurize", "--manifest", str(tmp_path / "absent.csv"), "--threshold", "nan",
                   "--out", out) == 1
        captured = capsys.readouterr()
        assert "artifact_threshold_uv" in captured.err and not captured.out
        assert not os.path.exists(out)

    @pytest.mark.parametrize("fs", ["nan", "inf"])
    def test_non_finite_fs_rejected_before_output(self, tmp_path, capsys, fs):
        out = str(tmp_path / "raw")
        assert run("synth", "--per-class", "2", "--fs", fs, "--out", out) == 1
        assert "fs must be positive and finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command,argv,doc,key", [
        ("compare", [], {"boost_lr": float("nan")}, "boost_lr"),
        ("compare", [], {"forest_depth": -3}, "forest_depth"),
        ("train", ["--norm", "foo"], {}, "normalization"),
        ("featurize", ["--filter-order", "3"], {}, "filter_order"),
        ("featurize", [], {"welch_overlap": 1.5}, "welch_overlap"),
        ("featurize", [], {"welch_segment_len": 100}, "welch_segment_len"),
        ("compare", ["--n-trees", "0"], {}, "n_trees"),
    ], ids=["boost_lr_nan", "forest_depth_negative", "norm", "filter_order", "welch_overlap",
            "welch_segment_len", "n_trees"])
    def test_out_of_domain_setting_rejected_before_any_file(self, tmp_path, capsys, command,
                                                            argv, doc, key):
        # the input files do not exist: the setting must be rejected first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(command, *REQUIRED[command], *argv, "--config", str(cfg),
                   "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert f"{key} must be" in captured.err and not captured.out
        assert not out.exists()

    def test_failed_train_leaves_no_output(self, pipeline, tmp_path):
        # 56 features do not divide into sequences of 5: this fails after the inputs are read
        out = tmp_path / "run"
        assert run("train", "--train", os.path.join(pipeline["splits"], "train.csv"),
                   "--val", os.path.join(pipeline["splits"], "val.csv"),
                   "--seq-len", "5", "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--per-class", "0"), ("--fs", "nan")])
    def test_bad_synth_setting_prints_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "raw"
        assert run("synth", flag, value, "--out", str(out)) == 1
        assert not capsys.readouterr().out
        assert not out.exists()

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json at all {")
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path)) == 1

    def test_config_file_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "raw"
        assert run("synth", "--config", str(cfg), "--out", str(out)) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_optimizer_outside_its_domain_fails_every_command_reading_the_file(
            self, pipeline, tmp_path, capsys):
        # split never reads the optimizer, but one config file serves the chain
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": "rmsprop"}))
        out = tmp_path / "splits"
        assert run("split", "--input", pipeline["feats"], "--config", str(cfg),
                   "--out", str(out)) == 1
        assert "'optimizer': optimizer must be adam or sgd" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_with_no_rows_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("file,label,sample_rate_hz,channels\n")
        out = tmp_path / "f.csv"
        assert run("featurize", "--manifest", str(manifest), "--out", str(out)) == 2
        assert "data error: manifest lists no recordings" in capsys.readouterr().err
        assert not out.exists()

    def test_every_epoch_rejected_is_data_error_after_the_rejection_line(self, pipeline,
                                                                          tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run("featurize", "--manifest", os.path.join(pipeline["raw"], "manifest.csv"),
                   "--threshold", "1e-9", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "rejected 24 of 24 epochs (threshold 1e-09 uV)" in captured.out
        assert "data error: all epochs rejected" in captured.err
        assert not out.exists()


# the flags each command requires, with placeholder paths: the tests below
# only parse them, or stop at the config file before any path is read
REQUIRED = {
    "synth": [],
    "featurize": ["--manifest", "m.csv"],
    "split": ["--input", "f.csv"],
    "train": ["--train", "t.csv", "--val", "v.csv"],
    "evaluate": ["--checkpoint", "c.json", "--test", "t.csv"],
    "compare": ["--input", "f.csv"],
    "report": ["--history", "h.csv"],
}
ROW_COMMANDS = [(key, command) for key, row in SETTINGS.items() for command in row.defaults]
# a flag string and a config-file value per converter, neither one a default
SAMPLES = {
    cli._integer: ("7", 9),
    cli._real: ("0.25", 0.75),
    cli._text: ("from-flag", "from-file"),
    cli._fractions: ("0.5,0.25,0.25", [0.7, 0.2, 0.1]),
}
# rows whose domain excludes the generic samples; normalization and optimizer
# have only two values each, so their flag value is the default
ROW_SAMPLES = {
    "filter_order": ("8", 6),
    "welch_segment_len": ("512", 128),
    "normalization": ("zscore", "minmax"),
    "optimizer": ("adam", "sgd"),
}


def parsed_flags(command, *argv):
    return vars(build_parser().parse_args([command, *REQUIRED[command], "--out", "o", *argv]))


class TestSettings:
    @pytest.mark.parametrize("key,command", ROW_COMMANDS)
    def test_flag_beats_file_beats_default(self, key, command):
        row = SETTINGS[key]
        flag_value, file_value = ROW_SAMPLES.get(key, SAMPLES[row.convert])
        default = resolve_settings(command, parsed_flags(command), {})[key]
        assert default == row.defaults[command]
        from_file = resolve_settings(command, parsed_flags(command), {key: file_value})[key]
        assert from_file == row.convert(file_value) != default
        if row.flag is not None:
            flags = parsed_flags(command, row.flag, flag_value)
            from_flag = resolve_settings(command, flags, {key: file_value})[key]
            assert from_flag == row.convert(flag_value) != from_file
            assert from_flag != default or key in ("normalization", "optimizer")

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_config_of_defaults_resolves_like_no_config(self, command):
        bare = resolve_settings(command, parsed_flags(command), {})
        doc = json.loads(json.dumps({k: v for k, v in bare.items() if v is not None}))
        resolved = resolve_settings(command, parsed_flags(command), doc)
        assert repr(resolved) == repr(bare)

    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=8,
    ), data=st.data())
    def test_resolve_gives_a_converted_value_or_config_error(self, value, data):
        key, command = data.draw(st.sampled_from(ROW_COMMANDS))
        row = SETTINGS[key]
        attempts = [({}, {key: value}, repr(key))]
        if isinstance(value, str) and row.flag is not None:
            attempts.append(({key: value}, {}, row.flag))
        for flags, config, named in attempts:
            try:
                got = resolve_settings(command, flags, config)[key]
            except ConfigError as exc:
                assert named in str(exc)
                continue
            assert repr(row.convert(got)) == repr(got)

    @pytest.mark.parametrize("doc,key", [
        ({"per_class": "abc"}, "per_class"),
        ({"per_class": None}, "per_class"),
        ({"per_class": [3]}, "per_class"),
        ({"per_class": 2.5}, "per_class"),
        ({"fs": "fast"}, "fs"),
        ({"epochs": "many"}, "epochs"),
        ({"per_clas": 3}, "per_clas"),
    ], ids=["string", "null", "list", "non_integral", "float_string", "other_command", "unknown"])
    def test_bad_config_value_or_key_exits_1(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "raw"
        assert run("synth", "--config", str(cfg), "--out", str(out)) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_unreadable_config_exits_1(self, tmp_path, capsys, command):
        code = run(command, *REQUIRED[command], "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "out"))
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_defaults_lie_in_their_domain(self):
        for row in SETTINGS.values():
            if row.domain is not None:
                for default in row.defaults.values():
                    assert default is None or row.domain[0](default), row.key

    def test_readme_table_lists_the_settings(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            cells = [[c.strip() for c in line.strip().strip("|").split("|")]
                     for line in fh if line.startswith("| `")]
        table = {key.strip("`"): (None if flag == "config file only" else flag.strip("`"),
                                  set(read_by.split(", ")))
                 for key, flag, _, _, _, read_by in cells}
        assert table == {key: (row.flag, set(row.defaults)) for key, row in SETTINGS.items()}
        # a default that every reading command shares reads back through the
        # row's own converter
        checked = 0
        for key, _, _, _, default, _ in cells:
            row = SETTINGS[key.strip("`")]
            values = set(row.defaults.values())
            if len(values) == 1 and None not in values:
                assert row.convert(default) == values.pop(), key
                checked += 1
        assert checked == len(SETTINGS) - 2  # window_len and hop differ or derive

    def test_label_column_is_a_setting(self, pipeline, tmp_path, capsys):
        assert run("synth", "--label-column", "emotion", "--out", str(tmp_path / "raw")) == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"label_column": "emotion"}))
        assert run("split", "--input", pipeline["feats"], "--config", str(cfg),
                   "--out", str(tmp_path / "splits")) == 2
        assert "'emotion' not found" in capsys.readouterr().err

    def test_config_file_reaches_train(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        # per_class is a synth key: one file may serve the whole chain
        cfg.write_text(json.dumps({"epochs": 3, "patience": 3, "hidden": 4, "per_class": 2}))
        argv = ["train", "--train", os.path.join(pipeline["splits"], "train.csv"),
                "--val", os.path.join(pipeline["splits"], "val.csv"), "--config", str(cfg)]
        assert run(*argv, "--out", str(tmp_path / "a")) == 0
        assert len(nn.load_history(str(tmp_path / "a" / "history.csv"))) == 3
        assert run(*argv, "--epochs", "2", "--out", str(tmp_path / "b")) == 0
        assert len(nn.load_history(str(tmp_path / "b" / "history.csv"))) == 2
        model, _, _, _ = nn.load_checkpoint(str(tmp_path / "b" / "checkpoint.json"))
        assert model.config.hidden_dim == 4

    def test_config_file_reaches_featurize(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_len": 128, "hop": 64, "welch_segment_len": 128}))
        out = str(tmp_path / "f.csv")
        assert run("featurize", "--manifest", os.path.join(pipeline["raw"], "manifest.csv"),
                   "--config", str(cfg), "--out", out) == 0
        whole = dataio.load_feature_csv(pipeline["feats"], "label").n_examples
        assert dataio.load_feature_csv(out, "label").n_examples == 3 * whole


class TestSynth:
    def test_file_count_and_manifest(self, pipeline):
        names = sorted(os.listdir(pipeline["raw"]))
        epochs = [n for n in names if n.startswith("epoch_")]
        assert len(epochs) == 24  # 8 per class x 3 classes
        manifest = Path(pipeline["raw"], "manifest.csv").read_text()
        lines = manifest.strip().splitlines()
        assert lines[0] == "file,label,sample_rate_hz,channels"
        assert len(lines) == 25
        labels = [ln.split(",")[1] for ln in lines[1:]]
        for name in ("NEGATIVE", "NEUTRAL", "POSITIVE"):
            assert labels.count(name) == 8

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "again")
        assert run("synth", "--per-class", "8", "--out", again) == 0
        for name in sorted(os.listdir(pipeline["raw"])):
            a = Path(pipeline["raw"], name).read_bytes()
            b = Path(again, name).read_bytes()
            assert a == b, name

    def test_seed_changes_output(self, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("synth", "--per-class", "2", "--out", d1) == 0
        assert run("synth", "--per-class", "2", "--seed", "1", "--out", d2) == 0
        a = Path(d1, "epoch_0000.csv").read_text()
        b = Path(d2, "epoch_0000.csv").read_text()
        assert a != b


class TestFeaturize:
    def test_feature_matrix_shape(self, pipeline):
        ds = dataio.load_feature_csv(pipeline["feats"], "label")
        assert ds.n_examples == 24
        assert ds.n_features == 56  # 4 channels x 14 features
        assert ds.class_names == ["NEGATIVE", "NEUTRAL", "POSITIVE"]
        # names carry the channel prefix
        assert any(name.startswith("TP9.") for name in ds.feature_names)
        assert any(".bandpower.alpha" in name for name in ds.feature_names)

    def test_threshold_zero_rejects_everything(self, tmp_path, capsys):
        # a threshold that would reject every epoch is a config error, like NaN
        for threshold in ("0", "-5"):
            code = run("featurize", "--manifest", str(tmp_path / "absent.csv"),
                       "--threshold", threshold, "--out", str(tmp_path / "f.csv"))
            assert code == 1
            captured = capsys.readouterr()
            assert "artifact_threshold_uv" in captured.err and not captured.out

    def test_deterministic(self, pipeline, tmp_path):
        out = str(tmp_path / "again.csv")
        assert run("featurize", "--manifest",
                   os.path.join(pipeline["raw"], "manifest.csv"), "--out", out) == 0
        assert Path(out).read_bytes() == Path(pipeline["feats"]).read_bytes()


class TestSplit:
    def test_outputs_and_sidecar(self, pipeline):
        d = pipeline["splits"]
        for name in ("train.csv", "val.csv", "test.csv", "split.json"):
            assert os.path.exists(os.path.join(d, name))
        sidecar = json.loads(Path(d, "split.json").read_text())
        assert sidecar["fractions"] == [0.6, 0.2, 0.2]
        counts = sidecar["counts_per_class"]
        assert sorted(counts) == ["test", "train", "val"]
        # every class distributes all 8 examples across the three splits
        for cls in ("NEGATIVE", "NEUTRAL", "POSITIVE"):
            assert sum(counts[part][cls] for part in counts) == 8

    def test_disjoint_and_complete(self, pipeline):
        parts = [dataio.load_feature_csv(os.path.join(pipeline["splits"], f"{n}.csv"), "label")
                 for n in ("train", "val", "test")]
        total = sum(p.n_examples for p in parts)
        assert total == 24
        rows = np.vstack([p.features for p in parts])
        assert len(np.unique(rows, axis=0)) == 24


class TestTrain:
    def test_outputs(self, pipeline):
        d = pipeline["run"]
        assert os.path.exists(os.path.join(d, "checkpoint.json"))
        hist = nn.load_history(os.path.join(d, "history.csv"))
        assert 1 <= len(hist) <= 8

    def test_zero_learning_rate_flat_history(self, pipeline, tmp_path):
        out = str(tmp_path / "flat")
        assert run(
            "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
            "--val", os.path.join(pipeline["splits"], "val.csv"),
            "--out", out, "--hidden", "8", "--epochs", "4", "--patience", "4",
            "--lr", "0",
        ) == 0
        hist = nn.load_history(os.path.join(out, "history.csv"))
        assert len(set(hist.val_loss)) == 1

    # a val file whose columns differ from training's in name or order would be
    # fed to the model by position
    @pytest.mark.parametrize("change,column,got", [
        ("swap_first_two", 1, "TP9.bandpower.theta"), ("rename_all", 1, "v.TP9.bandpower.delta"),
        ("drop_last", 56, None)])
    def test_val_columns_must_match_training(self, pipeline, tmp_path, capsys, change, column,
                                             got):
        ds = dataio.load_feature_csv(os.path.join(pipeline["splits"], "val.csv"), "label")
        order = list(range(len(ds.feature_names)))
        names = list(ds.feature_names)
        if change == "swap_first_two":
            order[:2] = [1, 0]
            names = [names[i] for i in order]
        elif change == "rename_all":
            names = [f"v.{n}" for n in names]
        else:
            order, names = order[:-1], names[:-1]
        val = str(tmp_path / "val.csv")
        dataio.save_feature_csv(dataio.Dataset(ds.features[:, order], ds.labels,
                                               ds.class_names, names), val)
        out = tmp_path / "run"
        assert run("train", "--train", os.path.join(pipeline["splits"], "train.csv"),
                   "--val", val, "--out", str(out), "--hidden", "8", "--epochs", "1") == 2
        want = ds.feature_names[column - 1]
        assert f"feature column {column} is {got!r}, not {want!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_val_labels_follow_training_class_table(self, pipeline, tmp_path):
        # a val file without NEGATIVE rows numbers its classes from 0 on its own;
        # train must score it against the training file's class ids
        val = str(tmp_path / "val_no_negative.csv")
        write_without_class(os.path.join(pipeline["splits"], "val.csv"), val, "NEGATIVE")
        out = str(tmp_path / "run")
        assert run(
            "train", "--train", os.path.join(pipeline["splits"], "train.csv"), "--val", val,
            "--out", out, "--hidden", "8", "--epochs", "1", "--lr", "0",
        ) == 0
        model, names, _, norm = nn.load_checkpoint(os.path.join(out, "checkpoint.json"))
        ds = dataio.load_feature_csv(val, "label")
        truth = [names.index(ds.class_names[c]) for c in ds.labels]
        X = nn.dataset_to_sequences(dsp.apply_normalization(ds.features, norm), 4)
        preds = nn.predict_batch(model, X)
        hist = nn.load_history(os.path.join(out, "history.csv"))
        assert hist.val_acc == [float(np.mean(preds == np.array(truth)))]


class TestEvaluate:
    def test_outputs_and_consistency(self, pipeline, tmp_path):
        out = str(tmp_path / "eval")
        assert run(
            "evaluate", "--checkpoint", os.path.join(pipeline["run"], "checkpoint.json"),
            "--test", os.path.join(pipeline["splits"], "test.csv"), "--out", out,
        ) == 0
        doc = json.loads(Path(out, "metrics.json").read_text())
        rows = Path(out, "confusion.csv").read_text().strip().splitlines()
        counts = np.array([[int(v) for v in r.split(",")[1:]] for r in rows[1:]])
        assert doc["accuracy"] == pytest.approx(np.trace(counts) / counts.sum(), abs=1e-12)
        assert doc["support"] == counts.sum(axis=1).tolist()

    def test_feature_count_mismatch(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        ds = dataio.load_feature_csv(os.path.join(pipeline["splits"], "test.csv"), "label")
        trimmed = dataio.Dataset(ds.features[:, :8], ds.labels, ds.class_names,
                                 ds.feature_names[:8])
        dataio.save_feature_csv(trimmed, str(bad))
        code = run(
            "evaluate", "--checkpoint", os.path.join(pipeline["run"], "checkpoint.json"),
            "--test", str(bad), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "56" in err and "8" in err

    # the checkpoint names the columns its model reads by position, so a test
    # file with them swapped or renamed is refused, not scored
    @pytest.mark.parametrize("change,got", [("swap_first_two", "TP9.bandpower.theta"),
                                            ("rename_all", "t.TP9.bandpower.delta")])
    def test_test_columns_must_match_the_checkpoint(self, pipeline, tmp_path, capsys, change,
                                                    got):
        ds = dataio.load_feature_csv(os.path.join(pipeline["splits"], "test.csv"), "label")
        order, names = list(range(ds.n_features)), list(ds.feature_names)
        if change == "swap_first_two":
            order[:2] = [1, 0]
            names = [names[i] for i in order]
        else:
            names = [f"t.{n}" for n in names]
        test = str(tmp_path / "test.csv")
        dataio.save_feature_csv(dataio.Dataset(ds.features[:, order], ds.labels,
                                               ds.class_names, names), test)
        ck = os.path.join(pipeline["run"], "checkpoint.json")
        out = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", ck, "--test", test, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{test}: feature column 1 is {got!r}, not 'TP9.bandpower.delta' as in {ck}" in err
        assert not out.exists()


    def test_test_labels_follow_checkpoint_class_table(self, pipeline, tmp_path):
        ck = os.path.join(pipeline["run"], "checkpoint.json")
        full, part = str(tmp_path / "full"), str(tmp_path / "part")
        test = str(tmp_path / "test_no_negative.csv")
        write_without_class(os.path.join(pipeline["splits"], "test.csv"), test, "NEGATIVE")
        assert run("evaluate", "--checkpoint", ck, "--out", full,
                   "--test", os.path.join(pipeline["splits"], "test.csv")) == 0
        assert run("evaluate", "--checkpoint", ck, "--test", test, "--out", part) == 0
        # dropping the NEGATIVE rows empties that row of the matrix and nothing else
        want = read_confusion(full)
        want[1] = ["NEGATIVE", "0", "0", "0"]
        assert read_confusion(part) == want

    def test_unknown_test_label_is_data_error(self, pipeline, tmp_path, capsys):
        src = os.path.join(pipeline["splits"], "test.csv")
        bad = str(tmp_path / "renamed.csv")
        text = Path(src).read_text(encoding="utf-8")
        Path(bad).write_text(text.replace("NEUTRAL", "BORED"), encoding="utf-8")
        code = run("evaluate", "--checkpoint", os.path.join(pipeline["run"], "checkpoint.json"),
                   "--test", bad, "--out", str(tmp_path / "out"))
        assert code == 2
        assert "BORED" in capsys.readouterr().err


def test_label_column_keeps_its_name_through_split_train_and_evaluate(pipeline, tmp_path):
    # split writes the label column under the name it read it by, so that
    # train and evaluate find it under the name the config gives
    feats = tmp_path / "features.csv"
    header, body = Path(pipeline["feats"]).read_bytes().split(b"\r\n", 1)
    assert header.endswith(b",label")
    feats.write_bytes(header[: -len(b"label")] + b"emotion\r\n" + body)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"label_column": "emotion"}))
    splits, run_dir, out = (str(tmp_path / name) for name in ("splits", "run", "eval"))
    assert run("split", "--config", str(config), "--input", str(feats), "--out", splits) == 0
    for name in ("train", "val", "test"):
        want = Path(pipeline["splits"], f"{name}.csv").read_bytes()
        assert Path(splits, f"{name}.csv").read_bytes() == want.replace(
            b",label\r\n", b",emotion\r\n", 1)
    assert run(
        "train", "--config", str(config), "--train", os.path.join(splits, "train.csv"),
        "--val", os.path.join(splits, "val.csv"), "--out", run_dir,
        "--hidden", "8", "--epochs", "8", "--patience", "8",
    ) == 0
    assert run("evaluate", "--config", str(config), "--out", out,
               "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
               "--test", os.path.join(splits, "test.csv")) == 0
    default = str(tmp_path / "default_eval")
    assert run("evaluate", "--checkpoint", os.path.join(pipeline["run"], "checkpoint.json"),
               "--test", os.path.join(pipeline["splits"], "test.csv"), "--out", default) == 0
    assert Path(out, "metrics.json").read_bytes() == Path(default, "metrics.json").read_bytes()


def _not_an_object(doc):
    return [1, 2]


def _drop(*path):
    def edit(doc):
        section = doc
        for key in path[:-1]:
            section = section[key]
        del section[path[-1]]
        return doc
    return edit


def _unknown_config_key(doc):
    doc["model_config"]["depth"] = 2
    return doc


def _short_gate_block(doc):
    doc["gru"]["U_r"] = doc["gru"]["U_r"][:-1]
    return doc


def _float_sequence_length(doc):
    doc["model_config"]["sequence_length"] = float(doc["model_config"]["sequence_length"])
    return doc


def _nan_dense_bias(doc):
    doc["dense"]["b"][0] = float("nan")
    return doc


def _normalization_entry(key, value):
    def edit(doc):
        doc["normalization"][key][0] = value
        return doc
    return edit


def _unknown_normalization_mode(doc):
    doc["normalization"]["mode"] = "robust"
    return doc


def _minmax_max_below_min(doc):
    n = len(doc["normalization"]["mean"])
    doc["normalization"] = {"mode": "minmax", "min": [0.0] * n, "max": [1.0] * (n - 1) + [-1.0]}
    return doc


def _replace(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _feature_names(change):
    def edit(doc):
        doc["feature_names"] = change(doc["feature_names"])
        return doc
    return edit


# each section that must be a JSON object, as null, a list and a string
_NOT_OBJECTS = [(kind, key, value) for key in ("model_config", "gru", "dense", "normalization")
                for kind, value in (("null", None), ("list", [1.0]), ("string", "zscore"))]


@pytest.mark.parametrize("edit,needle", [
    (_not_an_object, "checkpoint"), (_drop("gru"), "gru"), (_drop("gru", "W_z"), "W_z"),
    (_unknown_config_key, "depth"), (_short_gate_block, "U_r"),
    (_float_sequence_length, "sequence_length"), (_nan_dense_bias, "non-finite"),
    (_normalization_entry("std", float("nan")), "finite"),
    (_normalization_entry("mean", float("inf")), "finite"),
    (_normalization_entry("std", 0.0), "std"), (_unknown_normalization_mode, "'robust'"),
    (_minmax_max_below_min, "max"), (_drop("normalization"), "normalization"),
    # two rows of one name would score a class's epochs under another's row
    (_replace("class_names", ["NEGATIVE", "NEGATIVE", "POSITIVE"]), "distinct"),
    # the feature names are what evaluate checks a test file's columns against
    (_drop("feature_names"), "feature_names"),
    (_feature_names(lambda names: names[:-1]), "feature_names must list 56 distinct strings"),
    (_feature_names(lambda names: names[:1] + names[:-1]), "feature_names must list 56 distinct"),
    (_feature_names(lambda names: [None] + names[1:]), "feature_names must list 56 distinct"),
    (_replace("format_version", 1), "unsupported checkpoint version 1"),
    *((_replace(key, value), key) for _, key, value in _NOT_OBJECTS),
], ids=["not_object", "no_gru", "no_W_z", "unknown_config_key", "short_gate_block",
        "float_sequence_length", "nan_dense_bias", "nan_std", "inf_mean", "zero_std",
        "unknown_normalization_mode", "minmax_max_below_min", "no_normalization",
        "duplicate_class_names", "no_feature_names", "short_feature_names",
        "duplicate_feature_names", "non_string_feature_name", "version_1",
        *(f"{kind}_{key}" for kind, key, _ in _NOT_OBJECTS)])
def test_malformed_checkpoint_is_data_error(pipeline, tmp_path, capsys, edit, needle):
    doc = json.loads(Path(pipeline["run"], "checkpoint.json").read_text())
    ck = tmp_path / "bad.json"
    ck.write_text(json.dumps(edit(doc)))
    code = run("evaluate", "--checkpoint", str(ck), "--out", str(tmp_path / "out"),
               "--test", os.path.join(pipeline["splits"], "test.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint" in err and needle in err
    assert not os.path.exists(tmp_path / "out")


# an overflow in training is divergence, reported as one line on stderr, with
# no numpy warning (and its source path) printed before it
@pytest.mark.parametrize("optimizer,lr", [("adam", "1e307"), ("sgd", "1.7e308")])
def test_diverging_training_is_one_line_numeric_error(pipeline, tmp_path, optimizer, lr):
    out = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "eegpipe.cli", "train", "--seed", "1",
         "--train", os.path.join(pipeline["splits"], "train.csv"),
         "--val", os.path.join(pipeline["splits"], "val.csv"), "--hidden", "8",
         "--optimizer", optimizer, "--lr", lr, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("numeric error: training diverged: ")
    assert not out.exists()


def run_module(argv, cwd):
    """python -m eegpipe.cli argv in cwd, in a process of its own, so that
    every line it prints, warnings included, is seen."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "eegpipe.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=cwd)


def write_features(path, features):
    n = len(features)
    dataio.save_feature_csv(dataio.Dataset(features, np.arange(n) % 3, ["A", "B", "C"],
                                           [f"f{i}" for i in range(features.shape[1])]),
                            str(path))


# a spread that overflows the normalization statistics (and, at the parent, a
# checkpoint that evaluate refuses, or a loss that is not finite) is one line
@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("norm", ["zscore", "minmax"])
def test_overflowing_normalization_is_one_line_numeric_error(tmp_path, command, norm):
    features = np.random.default_rng(0).normal(size=(30, 8))
    features[:, 0] = np.where(np.arange(30) % 2, 1e308, -1e308)
    write_features(tmp_path / "big.csv", features)
    inputs = (["--train", "big.csv", "--val", "big.csv"] if command == "train"
              else ["--input", "big.csv"])
    proc = run_module([command, *inputs, "--seq-len", "2", "--norm", norm, "--epochs", "1",
                       "--out", "out"], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        3, f"numeric error: {norm} normalization overflows in feature column 1\n")
    assert not (tmp_path / "out").exists()


# a test value whose z-score overflows, and a checkpoint's minmax column
# whose max - min overflows (which maps every value to 0 at the parent)
@pytest.mark.parametrize("norm", ["zscore", "minmax"])
def test_evaluate_normalization_that_overflows_is_one_line_numeric_error(tmp_path, norm):
    features = np.random.default_rng(0).normal(scale=0.01, size=(30, 8))
    write_features(tmp_path / "train.csv", features)
    proc = run_module(["train", "--train", "train.csv", "--val", "train.csv", "--seq-len", "2",
                       "--hidden", "4", "--epochs", "1", "--norm", norm, "--out", "run"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    if norm == "zscore":
        features[4, 2] = 1.7e308  # std about 0.01: its z-score overflows
    else:
        doc = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        doc["normalization"]["min"][2], doc["normalization"]["max"][2] = -1e308, 1e308
        (tmp_path / "run" / "checkpoint.json").write_text(json.dumps(doc))
    write_features(tmp_path / "test.csv", features)
    proc = run_module(["evaluate", "--checkpoint", "run/checkpoint.json", "--test", "test.csv",
                       "--out", "out"], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        3, f"numeric error: {norm} normalization overflows in feature column 3\n")
    assert not (tmp_path / "out").exists()


# three recordings of 2 x 512 samples, the middle one at +-amplitude: filtered
# samples that are not finite reject their epoch, and features that are not
# are one line naming the file, with no numpy warning (or traceback) before it
@pytest.mark.parametrize("amplitude,threshold", [
    (1e307, "100"), (1e200, "1e300"), (1e125, "1e300")])
def test_overflow_in_featurize_is_rejected_or_named_without_warnings(tmp_path, amplitude,
                                                                      threshold):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(3):
        data = rng.normal(size=(2, 512))
        if i == 1:
            data = amplitude * np.sign(data)
        dataio.save_recording_csv(dataio.Recording(["TP9", "AF7"], 256.0, data, 0),
                                  str(tmp_path / f"r{i}.csv"))
        rows.append(f"r{i}.csv,{'AB'[i % 2]},256,TP9;AF7\n")
    (tmp_path / "manifest.csv").write_text("file,label,sample_rate_hz,channels\n" + "".join(rows))
    proc = run_module(["featurize", "--manifest", "manifest.csv", "--threshold", threshold,
                       "--out", "f.csv"], tmp_path)
    if threshold == "100":
        assert (proc.returncode, proc.stderr) == (0, "")
        assert f"rejected 1 of 3 epochs (threshold {float(threshold)} uV)" in proc.stdout
        assert len((tmp_path / "f.csv").read_text().splitlines()) == 1 + 2
    else:
        assert (proc.returncode, proc.stderr) == (
            3, f"numeric error: {tmp_path / 'r1.csv'}: the features of an epoch overflow to "
               "values that are not finite\n")
        assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("cpus", [1, 3])
def test_out_of_memory_is_one_line_error(tmp_path, monkeypatch, capsys, cpus):
    # a huge setting ends in numpy's MemoryError, made here without the
    # allocation; at 3 CPUs only the forked shares raise it, so it reaches
    # this process pickled from a child
    synth_epochs = dataio._synth_epochs

    def no_memory(n_per_class, window_len, fs, seed, start):
        if start or cpus == 1:
            raise _ArrayMemoryError((10**12, 4), np.dtype(float))
        return synth_epochs(n_per_class, window_len, fs, seed, start)

    monkeypatch.setattr(dataio, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(dataio, "_synth_epochs", no_memory)
    assert run("synth", "--per-class", "2", "--out", str(tmp_path / "raw")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1


def test_out_of_memory_in_train_is_one_line_error(pipeline, tmp_path, monkeypatch, capsys):
    def no_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(nn, "init_model", no_memory)
    out = tmp_path / "run"
    assert run("train", "--train", os.path.join(pipeline["splits"], "train.csv"),
               "--val", os.path.join(pipeline["splits"], "val.csv"), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1
    assert not out.exists()


def test_overflowing_checkpoint_is_numeric_error(pipeline, tmp_path, capsys):
    # finite but huge weights overflow the forward pass: no made-up accuracy, no warning
    doc = json.loads(Path(pipeline["run"], "checkpoint.json").read_text())
    doc["gru"]["W_z"] = [[1e308] * len(row) for row in doc["gru"]["W_z"]]
    ck = tmp_path / "huge.json"
    ck.write_text(json.dumps(doc))
    code = run("evaluate", "--checkpoint", str(ck), "--out", str(tmp_path / "out"),
               "--test", os.path.join(pipeline["splits"], "test.csv"))
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "Warning" not in err
    assert not os.path.exists(tmp_path / "out")


# each command's arguments but --out, over a copy of the pipeline fixture,
# with the fewest epochs, trees and rounds
_ARGV = {
    "synth": ["synth", "--per-class", "2"],
    "featurize": ["featurize", "--manifest", "raw/manifest.csv"],
    "split": ["split", "--input", "features.csv"],
    "train": ["train", "--train", "splits/train.csv", "--val", "splits/val.csv",
              "--hidden", "4", "--epochs", "1"],
    "evaluate": ["evaluate", "--checkpoint", "run/checkpoint.json", "--test", "splits/test.csv"],
    "compare": ["compare", "--input", "features.csv", "--hidden", "4", "--epochs", "1",
                "--n-trees", "1", "--boost-rounds", "1"],
    "report": ["report", "--history", "run/history.csv"],
}


# featurize writes a file at --out, every other command a directory. The
# regular file "plain" is no command's input
_BAD_OUTPUTS = {
    "featurize_into_directory": ("featurize", "splits"),
    **{f"{name}_into_file": (name, "plain") for name in _ARGV if name != "featurize"},
    **{f"{name}_under_file": (name, "plain/sub") for name in _ARGV},
}


@pytest.mark.parametrize("name,out", list(_BAD_OUTPUTS.values()), ids=list(_BAD_OUTPUTS))
def test_unwritable_output_is_config_error_naming_it(pipeline, tmp_path, capsys, name, out):
    # each ended in an OSError traceback, with no exit code
    root = tmp_path / "pipe"
    shutil.copytree(pipeline["root"], root)
    (root / "plain").write_text("")
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    argv = [str(root / a) if "/" in a or a.endswith(".csv") else a for a in _ARGV[name]]
    assert run(*argv, "--out", str(root / out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output {root / out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("argv,source,target,out", [
    # the manifest, or one of its recordings, as the feature file
    (["featurize", "--manifest", "raw/manifest.csv"], None, "raw/manifest.csv",
     "raw/manifest.csv"),
    (["featurize", "--manifest", "raw/manifest.csv"], None, "raw/epoch_0000.csv",
     "raw/epoch_0000.csv"),
    # an input file named as one of the files written into --out
    (["split", "--input", "splits/train.csv"], None, "splits/train.csv", "splits"),
    (["train", "--train", "run/history.csv", "--val", "splits/val.csv"], "splits/train.csv",
     "run/history.csv", "run"),
    (["evaluate", "--checkpoint", "run/checkpoint.json", "--test", "run/confusion.csv"],
     "splits/test.csv", "run/confusion.csv", "run"),
    (["compare", "--input", "cmp/comparison.csv"], "features.csv", "cmp/comparison.csv", "cmp"),
    (["report", "--history", "curves/curves.svg"], "run/history.csv", "curves/curves.svg",
     "curves"),
    # the config file
    (["synth", "--per-class", "2", "--config", "raw/manifest.csv"], "config.json",
     "raw/manifest.csv", "raw"),
], ids=["featurize_manifest", "featurize_recording", "split", "train", "evaluate", "compare",
        "report", "synth_config"])
def test_output_that_is_an_input_is_config_error_naming_both(pipeline, tmp_path, capsys, argv,
                                                             source, target, out):
    # each exited 0 over its own input, and the next command that read it failed
    root = tmp_path / "pipe"
    shutil.copytree(pipeline["root"], root)
    (root / "config.json").write_text("{}")
    if source is not None:
        (root / target).parent.mkdir(exist_ok=True)
        shutil.copyfile(root / source, root / target)
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    argv = [str(root / a) if "/" in a else a for a in argv]
    assert run(*argv, "--out", str(root / out)) == 1
    captured = capsys.readouterr()
    written = root / out if out == target else root / target
    assert captured.err == f"error: output {written} is the input {root / target}\n"
    assert "wrote" not in captured.out
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


def test_output_paths_name_every_file_each_command_writes(pipeline, tmp_path):
    # the check above knows each command's outputs by name, apart from the writers
    j = os.path.join
    outs = {name: str(tmp_path / name) for name in ("evaluate", "compare", "report")}
    commands = [
        ["synth", "--per-class", "8", "--out", pipeline["raw"]],
        ["featurize", "--manifest", j(pipeline["raw"], "manifest.csv"), "--out", pipeline["feats"]],
        ["split", "--input", pipeline["feats"], "--out", pipeline["splits"]],
        ["train", "--train", j(pipeline["splits"], "train.csv"),
         "--val", j(pipeline["splits"], "val.csv"), "--out", pipeline["run"]],
        ["evaluate", "--checkpoint", j(pipeline["run"], "checkpoint.json"),
         "--test", j(pipeline["splits"], "test.csv"), "--out", outs["evaluate"]],
        ["compare", "--input", pipeline["feats"], "--out", outs["compare"], "--hidden", "8",
         "--epochs", "2", "--patience", "2", "--n-trees", "2", "--boost-rounds", "2"],
        ["report", "--history", j(pipeline["run"], "history.csv"), "--out", outs["report"]],
    ]
    for argv in commands:
        if argv[0] in outs:
            assert run(*argv) == 0
        args = build_parser().parse_args(argv)
        vars(args).update(resolve_settings(args.command, vars(args), {}))
        if args.command == "featurize":
            assert cli._output_paths(args) == [pipeline["feats"]]
        else:
            written = sorted(os.listdir(args.out))
            assert sorted(cli._output_paths(args)) == [j(args.out, f) for f in written]


class TestCompareAndReport:
    def test_compare_writes_consistent_outputs(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        assert run(
            "compare", "--input", pipeline["feats"], "--out", out,
            "--hidden", "8", "--epochs", "5", "--patience", "5",
            "--n-trees", "10", "--boost-rounds", "10",
        ) == 0
        names = ["gru", "logistic", "linear_svm", "random_forest", "gradient_boosting"]
        for n in names:
            assert os.path.exists(os.path.join(out, f"metrics_{n}.json"))
        rows = Path(out, "comparison.csv").read_text().strip().splitlines()
        assert rows[0].startswith("model,accuracy")
        assert len(rows) == 6
        # the table accuracy equals the per-model metrics file
        for row in rows[1:]:
            cells = row.split(",")
            doc = json.loads(Path(out, f"metrics_{cells[0]}.json").read_text())
            assert float(cells[1]) == doc["accuracy"]
        accs = [float(r.split(",")[1]) for r in rows[1:]]
        assert accs == sorted(accs, reverse=True)

        # report consumes the compare history
        rep_out = str(tmp_path / "rep")
        assert run("report", "--history", os.path.join(out, "history.csv"),
                   "--out", rep_out) == 0
        assert os.listdir(rep_out) == ["curves.svg"]

    @pytest.mark.parametrize("content", [
        None,
        "epoch,train_loss,train_acc,val_loss\n1,0.5,0.5,0.6\n",
        "epoch,train_loss,train_acc,val_loss,val_acc\n1,0.5,0.5,abc,0.5\n",
        "epoch,train_loss,train_acc,val_loss,val_acc\n1,0.5,0.5,1e999,0.5\n",
    ], ids=["missing_file", "missing_column", "unparsable_cell", "non_finite_cell"])
    def test_bad_history_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "history.csv"
        if content is not None:
            path.write_text(content)
        assert run("report", "--history", str(path), "--out", str(tmp_path / "rep")) == 2
        assert "history" in capsys.readouterr().err


def test_non_numeric_raw_sample_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--out", str(raw)) == 0
    target = raw / "epoch_0004.csv"
    lines = target.read_text().splitlines(keepends=True)
    lines[6] = "0.1,oops,0.3,0.4\n"
    target.write_text("".join(lines))
    code = run("featurize", "--manifest", str(raw / "manifest.csv"),
               "--out", str(tmp_path / "f.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "epoch_0004.csv" in err and "line 7" in err and "oops" in err


def test_ragged_raw_row_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--out", str(raw)) == 0
    target = raw / "epoch_0004.csv"
    lines = target.read_text().splitlines(keepends=True)
    lines[6] = lines[6].rstrip("\n") + ",0.5\n"
    target.write_text("".join(lines))
    code = run("featurize", "--manifest", str(raw / "manifest.csv"),
               "--out", str(tmp_path / "f.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "epoch_0004.csv" in err and "line 7" in err


def test_mixed_sample_rates_are_data_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--out", str(raw)) == 0
    manifest = raw / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(",256.0,", ",128.0,")
    manifest.write_text("".join(lines))
    out = tmp_path / "f.csv"
    assert run("featurize", "--manifest", str(manifest), "--out", str(out)) == 2
    assert "mixed sample rates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("first,second", [("nan", "nan"), ("256.0", "-1")])
def test_bad_sample_rate_is_named_not_called_mixed(tmp_path, capsys, first, second):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--out", str(raw)) == 0
    manifest = raw / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(",256.0,", f",{first},")
    lines[2] = lines[2].replace(",256.0,", f",{second},")
    manifest.write_text("".join(lines))
    out = tmp_path / "f.csv"
    assert run("featurize", "--manifest", str(manifest), "--out", str(out)) == 2
    err = capsys.readouterr().err
    bad = 2 if first == "nan" else 3
    assert f"manifest.csv: line {bad}: sample_rate_hz must be positive and finite" in err
    assert "mixed" not in err
    assert not out.exists()


def test_infinite_sample_rate_is_data_error_without_traceback(tmp_path):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "2", "--out", str(raw)) == 0
    manifest = raw / "manifest.csv"
    manifest.write_text(manifest.read_text().replace(",256.0,", ",inf,"))
    out = tmp_path / "f.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "eegpipe.cli", "featurize", "--manifest", str(manifest),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "sample_rate_hz must be positive and finite" in proc.stderr
    assert not out.exists()


def test_short_manifest_row_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--out", str(raw)) == 0
    with open(raw / "manifest.csv", "a", encoding="utf-8") as fh:
        fh.write("epoch_0000.csv,NEGATIVE\n")
    code = run("featurize", "--manifest", str(raw / "manifest.csv"),
               "--out", str(tmp_path / "f.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "manifest.csv: line 11" in err and "sample_rate_hz" in err and "channels" in err


def test_nan_raw_sample_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--out", str(raw)) == 0
    target = raw / "epoch_0004.csv"
    lines = target.read_text().splitlines(keepends=True)
    lines[6] = "0.1,nan,0.3,0.4\n"
    target.write_text("".join(lines))
    out = tmp_path / "f.csv"
    code = run("featurize", "--manifest", str(raw / "manifest.csv"), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "epoch_0004.csv" in err and "line 7" in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_window_shorter_than_welch_segment_is_config_error(tmp_path, capsys, how):
    # raised before the manifest is read: this one does not even exist
    argv = ["featurize", "--manifest", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "f")]
    if how == "flag":
        argv += ["--window-len", "128", "--hop", "64"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_len": 128, "hop": 64}))
        argv += ["--config", str(cfg)]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "window_len 128" in err and "welch_segment_len 256" in err


@pytest.mark.parametrize("low,high", [("50", "40"), ("40", "40")])
def test_inverted_band_is_config_error_before_manifest_is_read(tmp_path, capsys, low, high):
    # the manifest does not exist: the band must be rejected before it is opened
    assert run("featurize", "--manifest", str(tmp_path / "absent.csv"), "--filter-low", low,
               "--filter-high", high, "--out", str(tmp_path / "f.csv")) == 1
    captured = capsys.readouterr()
    assert f"filter_low_hz {float(low)} is not below filter_high_hz {float(high)}" in captured.err
    assert not captured.out


def test_band_above_nyquist_is_config_error_before_recordings_are_read(tmp_path, capsys):
    # the manifest names recordings that do not exist: the band must be checked
    # against its 256 Hz rate before any of them is opened
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("file,label,sample_rate_hz,channels\n"
                        "absent_0.csv,calm,256.0,TP9;AF7\nabsent_1.csv,happy,256.0,TP9;AF7\n")
    out = tmp_path / "f.csv"
    assert run("featurize", "--manifest", str(manifest), "--filter-high", "200",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "fs/2" in err and "200.0" in err and "not found" not in err
    assert not out.exists()


GAMMA, DELTA = "gamma (30.0-45.0 Hz)", "delta (0.5-4.0 Hz)"


@pytest.mark.parametrize("fs,high,band,why", [
    ("50", "20", GAMMA, "outside [0, 25.0]"),
    ("60.1", "25", GAMMA, "1 PSD bin(s) inside band (30.0, 30.05); band_power needs 2"),
    # the filter's pre-warp overflows at these rates, but the bands are checked first
    ("9e307", "45", DELTA, "0 PSD bin(s) inside band (0.5, 4.0)"),
    ("1e308", "45", DELTA, "0 PSD bin(s) inside band (0.5, 4.0)"),
], ids=["50Hz", "60.1Hz", "9e307Hz", "1e308Hz"])
def test_eeg_band_the_rate_cannot_measure_is_config_error_before_recordings_are_read(
        tmp_path, capsys, fs, high, band, why):
    # a band, clipped to Nyquist, keeps fewer than 2 Welch bins: checked
    # against the manifest's rate before any recording is opened
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("file,label,sample_rate_hz,channels\n"
                        f"absent_0.csv,calm,{fs},TP9;AF7\nabsent_1.csv,happy,{fs},TP9;AF7\n")
    out = tmp_path / "f.csv"
    assert run("featurize", "--manifest", str(manifest), "--filter-high", high,
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"EEG band {band} cannot be measured at sample rate {float(fs)} Hz" in err
    assert why in err and "not found" not in err
    assert not out.exists()


@pytest.mark.parametrize("low", ["1e-7", "1e-9"])
def test_filter_with_a_root_at_one_is_numeric_error(pipeline, tmp_path, capsys, low):
    # at 256 Hz these designs have a section with 1 + a1 + a2 exactly 0
    out = tmp_path / "f.csv"
    assert run("featurize", "--manifest", os.path.join(pipeline["raw"], "manifest.csv"),
               "--filter-low", low, "--out", str(out)) == 3
    assert "numeric error: unstable filter section" in capsys.readouterr().err
    assert not out.exists()


def test_recording_with_every_window_rejected_is_skipped(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--window-len", "512", "--out", str(raw)) == 0
    target = raw / "epoch_0004.csv"
    lines = target.read_text().splitlines(keepends=True)
    lines[1:] = ["5000.0,5000.0,5000.0,5000.0\n" if i % 2 else row
                 for i, row in enumerate(lines[1:])]  # a large artifact in every window
    target.write_text("".join(lines))
    out = tmp_path / "f.csv"
    assert run("featurize", "--manifest", str(raw / "manifest.csv"), "--window-len", "256",
               "--hop", "128", "--out", str(out)) == 0
    assert "rejected 3 of 27 epochs" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 1 + 24


def test_recording_shorter_than_welch_segment_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--per-class", "3", "--window-len", "128", "--out", str(raw)) == 0
    code = run("featurize", "--manifest", str(raw / "manifest.csv"),
               "--out", str(tmp_path / "f.csv"))
    assert code == 2
    assert "shorter than Welch segment" in capsys.readouterr().err


def test_mixed_lengths_keep_manifest_order(tmp_path):
    # recordings are filtered in batches of equal length; rows stay in manifest order
    parts = {}
    for wl in ("256", "384"):
        raw = tmp_path / wl
        assert run("synth", "--per-class", "3", "--window-len", wl, "--seed", wl,
                   "--out", str(raw)) == 0
        assert run("featurize", "--manifest", str(raw / "manifest.csv"),
                   "--out", str(tmp_path / f"{wl}.csv")) == 0
        parts[wl] = (tmp_path / f"{wl}.csv").read_text().splitlines()
        for f in raw.glob("epoch_*.csv"):
            f.rename(tmp_path / f"{wl}_{f.name}")
    rows = ["file,label,sample_rate_hz,channels"]
    for wl in ("256", "384"):
        rows += [f"{wl}_{line}" for line in (tmp_path / wl / "manifest.csv").read_text().splitlines()[1:]]
    order = [1, 10, 2, 11, 3] + list(range(4, 10)) + list(range(12, 19))
    (tmp_path / "manifest.csv").write_text("\n".join(rows[:1] + [rows[i] for i in order]) + "\n")
    assert run("featurize", "--manifest", str(tmp_path / "manifest.csv"),
               "--out", str(tmp_path / "mixed.csv")) == 0
    both = [None] + parts["256"][1:] + parts["384"][1:]
    want = [parts["256"][0]] + [both[i] for i in order]
    assert (tmp_path / "mixed.csv").read_text().splitlines() == want


def write_manifest(root, lengths, artifacts=()):
    """Synth recordings of the given sample counts, in that order, and their
    manifest; each recording listed in `artifacts` gets a spike every 64
    samples, so that artifact rejection drops every window of it."""
    rows = ["file,label,sample_rate_hz,channels"]
    for k, n in enumerate(lengths):
        data, labels = dataio.synth_generate(1, n, 256.0, seed=k)
        x, label = data[k % 3], int(labels[k % 3])
        if k in artifacts:
            x[:, ::64] = 5000.0
        name = f"rec_{k:02d}.csv"
        dataio.save_recording_csv(
            dataio.Recording(dataio.DEFAULT_CHANNELS, 256.0, x, label=label), str(root / name))
        rows.append(f"{name},{dataio.SYNTH_CLASS_NAMES[label]},256.0,"
                    f"{';'.join(dataio.DEFAULT_CHANNELS)}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


def per_recording_features(manifest, window_len, hop):
    """featurize's rows and class names with extract_features called once per
    recording."""
    fc = dsp.FeatureConfig()
    recordings, class_names = dataio.load_raw_recordings(str(manifest.parent), str(manifest), list)
    coeffs = dsp.design_butterworth_bandpass(fc.filter_low_hz, fc.filter_high_hz, 256.0,
                                             fc.filter_order)
    rows, labels = [], []
    for rec in recordings:
        w = dataio.window_recording(dsp.filtfilt(coeffs, rec.data), window_len, hop)
        kept, _ = dsp.reject_artifacts(w, fc.artifact_threshold_uv)
        rows.append(dsp.extract_features(w[kept], 256.0, fc, rec.channels).values)
        labels += [class_names[rec.label]] * len(kept)
    return np.concatenate(rows), labels


# samples per channel that fill featurize's group budget, at 4 channels
BUDGET_LEN = cli.FEATURE_BLOCK_SAMPLES // 4


@pytest.mark.parametrize("lengths,artifacts,window_len,hop,blocks", [
    # mixed lengths, one window per recording: a group ends where the
    # recording shape changes, and 4 x 4096 samples fill the budget alone
    ([256] * 3 + [384] * 2 + [256] * 10 + [2048, 4096] + [256] * 2, (), None, None,
     [(3, 4, 256), (2, 4, 384), (10, 4, 256), (1, 4, 2048), (1, 4, 4096), (2, 4, 256)]),
    # 3 windows of 512-sample recordings; the second keeps none, mid-group
    ([512] * 5, (1,), 256, 128, [(12, 4, 256)]),
    # the first recording keeps none: at 2 and 3 CPUs, the first share keeps none
    ([512] * 2, (0,), 256, 128, [(3, 4, 256)]),
    # a group that exactly fills the budget, then the next recording
    ([256] * (BUDGET_LEN // 256 + 1), (), None, None,
     [(BUDGET_LEN // 256, 4, 256), (1, 4, 256)]),
    # a recording one sample per channel under the budget has no room for another
    ([BUDGET_LEN - 1] * 2, (), None, None, [(1, 4, BUDGET_LEN - 1)] * 2),
    # a recording over the budget after short ones with the same window shape:
    # its kept epochs are featurized in blocks of at most the budget
    ([256] * 3 + [BUDGET_LEN + 256], (), 256, 256,
     [(3, 4, 256), (BUDGET_LEN // 256, 4, 256), (1, 4, 256)]),
], ids=["mixed_lengths", "empty_mid_block", "empty_first_share", "fills_budget",
        "one_under_budget", "over_budget_after_short"])
def test_blocked_featurize_equals_per_recording_features(tmp_path, monkeypatch, lengths,
                                                         artifacts, window_len, hop, blocks):
    manifest = write_manifest(tmp_path, lengths, artifacts)
    calls = []
    extract = dsp.extract_features

    def recorded(epochs, *args, **kwargs):
        calls.append(epochs.shape)
        return extract(epochs, *args, **kwargs)

    # one share, so that every group is formed and counted in this process
    monkeypatch.setattr(dataio, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(dsp, "extract_features", recorded)
    window = [] if window_len is None else ["--window-len", str(window_len), "--hop", str(hop)]
    out = tmp_path / "features.csv"
    assert run("featurize", "--manifest", str(manifest), *window, "--out", str(out)) == 0
    assert calls == blocks
    monkeypatch.setattr(dsp, "extract_features", extract)
    want, labels = per_recording_features(manifest, window_len, hop)
    got = dataio.load_feature_csv(str(out), "label")
    assert len(got.labels) == sum(b[0] for b in blocks)
    assert got.features.tobytes() == want.tobytes()
    # by name: a class with no kept epoch is not in the file
    assert [got.class_names[i] for i in got.labels] == labels
    # two or three shares form groups of their own, and write the same bytes
    for n in (2, 3):
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: n)
        shared = tmp_path / f"shared_{n}.csv"
        assert run("featurize", "--manifest", str(manifest), *window, "--out", str(shared)) == 0
        assert shared.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recording_too_short_for_welch_fails_though_none_of_it_is_kept(tmp_path, monkeypatch,
                                                                       capsys, n):
    # its group keeps no epoch, but the feature stage still meets its shape
    manifest = write_manifest(tmp_path, [200, 256], artifacts=(0,))
    monkeypatch.setattr(dataio, "_usable_cpus", lambda: n)
    out = tmp_path / "features.csv"
    assert run("featurize", "--manifest", str(manifest), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'rec_00.csv'}: signal length 200 shorter than Welch "
        "segment 256\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", [b"\xff\xfe", b"1" * 200_000 + b","],
                         ids=["not_utf8", "overlong_field"])
@pytest.mark.parametrize("target", ["recording", "manifest", "features", "history"])
def test_undecodable_or_overlong_csv_is_data_error(pipeline, tmp_path, capsys, target, bad):
    # these reached the csv reader's own exceptions, a traceback with no exit code
    raw = tmp_path / "raw"
    shutil.copytree(pipeline["raw"], raw)
    features, history = tmp_path / "features.csv", tmp_path / "history.csv"
    shutil.copy(pipeline["feats"], features)
    shutil.copy(os.path.join(pipeline["run"], "history.csv"), history)
    manifest = ["featurize", "--manifest", str(raw / "manifest.csv")]
    path, argv = {
        "recording": (raw / "epoch_0001.csv", manifest),
        "manifest": (raw / "manifest.csv", manifest),
        "features": (features, ["split", "--input", str(features)]),
        "history": (history, ["report", "--history", str(history)]),
    }[target]
    data = path.read_bytes()
    cut = data.index(b"\n") + 3
    path.write_bytes(data[:cut] + bad + data[cut:])
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert str(path) in capsys.readouterr().err


def write_without_class(src, dst, label):
    ds = dataio.load_feature_csv(src, "label")
    keep = ds.labels != ds.class_names.index(label)
    dataio.save_feature_csv(
        dataio.Dataset(ds.features[keep], ds.labels[keep], ds.class_names, ds.feature_names), dst
    )


def read_confusion(out_dir):
    with open(os.path.join(out_dir, "confusion.csv"), encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


# ---------------------------------------------------------------------------
# each check of an outside value that no other test reaches through main: a
# case makes the input that fails it and gives the argv (less --out), the
# exit code and the one stderr line; nothing is written


def _manifest(pipeline, tmp_path, edit):
    """The pipeline's synth manifest, its files named by absolute path, with
    edit applied to its list of lines, written under tmp_path: its path."""
    lines = Path(pipeline["raw"], "manifest.csv").read_text().splitlines()
    lines[1:] = [os.path.join(pipeline["raw"], line) for line in lines[1:]]
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(edit(lines)) + "\n")
    return str(path)


def _checkpoint(pipeline, tmp_path, edit):
    """The pipeline's checkpoint with edit applied to its normalization
    statistics, and the evaluate argv that reads it."""
    doc = json.loads(Path(pipeline["run"], "checkpoint.json").read_text())
    edit(doc["normalization"])
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc))
    return str(path), ["evaluate", "--checkpoint", str(path),
                       "--test", os.path.join(pipeline["splits"], "test.csv")]


def _manifest_without_channels(pipeline, tmp_path):
    m = _manifest(pipeline, tmp_path, lambda lines: [line.rpartition(",")[0] for line in lines])
    return (["featurize", "--manifest", m], 2, f"data error: {m}: manifest must have columns "
            "['channels', 'file', 'label', 'sample_rate_hz']")


def _duplicate_channel(pipeline, tmp_path):
    m = _manifest(pipeline, tmp_path, lambda lines: [lines[0], lines[1].replace("AF7", "TP9"),
                                                     *lines[2:]])
    return ["featurize", "--manifest", m], 2, f"data error: {m}: line 2: duplicate channel 'TP9'"


def _inconsistent_channels(pipeline, tmp_path):
    m = _manifest(pipeline, tmp_path, lambda lines: [*lines[:2], lines[2].replace(";TP10", ""),
                                                     *lines[3:]])
    return (["featurize", "--manifest", m], 2, "data error: inconsistent channel sets in "
            "manifest: ['TP9', 'AF7', 'AF8'] vs ['TP9', 'AF7', 'AF8', 'TP10']")


def _filter_gain_overflow(pipeline, tmp_path):
    return (["featurize", "--manifest", os.path.join(pipeline["raw"], "manifest.csv"),
             "--filter-low", "1e-300", "--filter-order", "8"], 3,
            "numeric error: non-finite filter section (inf, 0.0, -inf, -0.670150410795287, "
            "0.49051050673055624)")


def _short_synth_window(pipeline, tmp_path):
    return ["synth", "--window-len", "7"], 1, "error: window_len must be >= 8"


def _fractions_over_one(pipeline, tmp_path):
    return (["split", "--input", pipeline["feats"], "--fractions", "0.5,0.3,0.3"], 1,
            "error: split fractions must sum to 1, got 1.1")


def _fraction_outside_unit_interval(pipeline, tmp_path):
    return (["split", "--input", pipeline["feats"], "--fractions", "1.2,-0.1,-0.1"], 1,
            "error: split fractions must each lie in (0,1), got (1.2, -0.1, -0.1)")


def _header_only_features(pipeline, tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("f0,label\n")
    return ["split", "--input", str(path)], 2, f"data error: {path}: no data rows"


def _split_of(tmp_path, n):
    """The split argv of a random feature file of n rows of classes A, B, C in turn."""
    write_features(tmp_path / "features.csv", np.random.default_rng(0).normal(size=(n, 4)))
    return ["split", "--input", str(tmp_path / "features.csv")]


def _class_of_two_rows(pipeline, tmp_path):
    return (_split_of(tmp_path, 8), 2,
            "data error: class 'C' has 2 examples; stratified splitting needs at least 3")


def _fractions_leaving_a_split_empty(pipeline, tmp_path):
    # 3 rows a class at 0.6/0.2/0.2 apportion as 2/1/0
    return (_split_of(tmp_path, 9), 2,
            "data error: split fractions produce an empty split for this dataset size")


def _ragged_normalization(pipeline, tmp_path):
    path, argv = _checkpoint(pipeline, tmp_path, lambda norm: norm["std"].pop())
    return argv, 2, (f"data error: malformed checkpoint {path}: normalization mean and std "
                     "must be vectors of one length")


def _normalization_of_another_width(pipeline, tmp_path):
    path, argv = _checkpoint(pipeline, tmp_path,
                             lambda norm: (norm["mean"].pop(), norm["std"].pop()))
    return argv, 2, (f"data error: malformed checkpoint {path}: normalization covers 55 "
                     "features, the model 56")


ENTRY_CHECKS = [
    _manifest_without_channels, _duplicate_channel, _inconsistent_channels,
    _filter_gain_overflow, _short_synth_window, _fractions_over_one,
    _fraction_outside_unit_interval, _header_only_features, _class_of_two_rows,
    _fractions_leaving_a_split_empty, _ragged_normalization, _normalization_of_another_width,
]


@pytest.mark.parametrize("case", ENTRY_CHECKS, ids=lambda case: case.__name__[1:])
def test_each_entry_check_through_main(pipeline, tmp_path, capsys, case):
    argv, code, line = case(pipeline, tmp_path)
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()
