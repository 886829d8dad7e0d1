import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from eegpipe import evaluation
from eegpipe.nn import TrainHistory

NAMES = ["a", "b", "c", "d"]


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        y = np.array([0, 1, 2, 0, 1, 2, 2])
        cm = evaluation.confusion(y, y, NAMES[:3])
        assert np.array_equal(cm.counts, np.diag([2, 2, 3]))

    def test_hand_counted_matrix(self):
        truth = np.array([0, 0, 1, 1])
        preds = np.array([0, 1, 1, 1])
        cm = evaluation.confusion(preds, truth, NAMES[:2])
        assert cm.counts.tolist() == [[1, 1], [0, 2]]

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        cm = evaluation.confusion(preds, truth, NAMES[:4])
        want = [int(np.sum(truth == c)) for c in range(4)]
        assert cm.counts.sum(axis=1).tolist() == want
        assert cm.total == 200

    def test_pair_order_independence(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=50)
        preds = rng.integers(0, 3, size=50)
        perm = rng.permutation(50)
        cm1 = evaluation.confusion(preds, truth, NAMES[:3])
        cm2 = evaluation.confusion(preds[perm], truth[perm], NAMES[:3])
        assert np.array_equal(cm1.counts, cm2.counts)

    def test_class_names_label_rows_and_columns(self):
        cm = evaluation.confusion(np.array([0, 1]), np.array([0, 1]), ["CALM", "TENSE"])
        assert cm.class_names == ["CALM", "TENSE"]
        assert cm.counts.shape == (2, 2)


class TestMetrics:
    def test_closed_form_two_class(self):
        # counts [[1,1],[0,2]]: precision = [1, 2/3], recall = [1/2, 1],
        # f1 = [2/3, 4/5], accuracy = 3/4
        cm = evaluation.ConfusionMatrix(np.array([[1, 1], [0, 2]]), ["a", "b"])
        rep = evaluation.metrics(cm)
        assert rep.accuracy == pytest.approx(0.75, abs=1e-15)
        assert rep.precision.tolist() == [1.0, 2.0 / 3.0]
        assert rep.recall.tolist() == [0.5, 1.0]
        assert rep.f1 == pytest.approx([2.0 / 3.0, 0.8], abs=1e-15)
        assert rep.macro_f1 == pytest.approx((2.0 / 3.0 + 0.8) / 2.0, abs=1e-15)
        assert rep.support.tolist() == [2, 2]
        assert rep.zero_division_flags == []

    def test_perfect_classifier(self):
        cm = evaluation.ConfusionMatrix(np.diag([3, 4, 5]), ["x", "y", "z"])
        rep = evaluation.metrics(cm)
        assert rep.accuracy == 1.0
        assert rep.precision.tolist() == [1.0, 1.0, 1.0]
        assert rep.macro_f1 == 1.0

    def test_zero_support_class_flagged(self):
        # class "b" never occurs and is never predicted
        cm = evaluation.ConfusionMatrix(np.array([[4, 0], [0, 0]]), ["a", "b"])
        rep = evaluation.metrics(cm)
        assert rep.precision[1] == 0.0
        assert rep.recall[1] == 0.0
        flags = " ".join(rep.zero_division_flags)
        assert "b" in flags
        assert len(rep.zero_division_flags) == 3  # precision, recall, f1

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, size=120)
        preds = rng.integers(0, 3, size=120)
        rep = evaluation.metrics(evaluation.confusion(preds, truth, NAMES[:3]))
        perm = np.array([2, 0, 1])  # relabel classes
        rep_p = evaluation.metrics(evaluation.confusion(perm[preds], perm[truth], NAMES[:3]))
        assert rep_p.accuracy == rep.accuracy
        inv = np.argsort(perm)
        assert np.allclose(rep_p.precision, rep.precision[inv])
        assert np.allclose(rep_p.recall, rep.recall[inv])
        assert rep_p.macro_f1 == pytest.approx(rep.macro_f1, abs=1e-15)

    def test_micro_recall_equals_accuracy(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 4, size=100)
        preds = rng.integers(0, 4, size=100)
        cm = evaluation.confusion(preds, truth, NAMES[:4])
        rep = evaluation.metrics(cm)
        micro_recall = float(np.trace(cm.counts)) / cm.counts.sum()
        assert rep.accuracy == micro_recall


class TestConfusionCsv:
    def test_layout(self, tmp_path):
        cm = evaluation.ConfusionMatrix(np.array([[5, 1], [2, 7]]), ["NEG", "POS"])
        path = str(tmp_path / "cm.csv")
        evaluation.write_confusion_csv(cm, path)
        rows = list(csv.reader(Path(path).read_text().splitlines()))
        assert rows[0] == ["true\\predicted", "NEG", "POS"]
        assert rows[1] == ["NEG", "5", "1"]
        assert rows[2] == ["POS", "2", "7"]


class TestMetricsJson:
    def test_roundtrip_fields(self, tmp_path):
        cm = evaluation.ConfusionMatrix(np.array([[1, 1], [0, 2]]), ["a", "b"])
        rep = evaluation.metrics(cm)
        path = str(tmp_path / "m.json")
        evaluation.write_metrics_json(rep, ["a", "b"], path)
        doc = json.loads(Path(path).read_text())
        assert doc["accuracy"] == rep.accuracy
        assert doc["precision"] == [1.0, 2.0 / 3.0]
        assert doc["class_names"] == ["a", "b"]
        assert doc["support"] == [2, 2]


def make_report(acc):
    cm = evaluation.ConfusionMatrix(np.diag([5, 5]), ["a", "b"])
    rep = evaluation.metrics(cm)
    rep.accuracy = acc
    return rep


class TestCompareReport:
    def test_sorted_by_accuracy_descending(self, tmp_path):
        results = [("low", make_report(0.5)), ("high", make_report(0.9)),
                   ("mid", make_report(0.7))]
        text = evaluation.compare_report(results, str(tmp_path))
        lines = text.strip().splitlines()
        names = [ln.split()[0] for ln in lines[2:]]
        assert names == ["high", "mid", "low"]
        rows = list(csv.reader((tmp_path / "comparison.csv").read_text().splitlines()))
        assert [r[0] for r in rows[1:]] == ["high", "mid", "low"]
        assert rows[1][1] == repr(0.9)
        assert (tmp_path / "comparison.txt").read_text() == text

    def test_single_row(self, tmp_path):
        text = evaluation.compare_report([("only", make_report(1.0))], str(tmp_path))
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("only")
        assert "1.0000" in lines[2]

    def test_ties_keep_input_order(self, tmp_path):
        results = [("first", make_report(0.5)), ("second", make_report(0.5))]
        text = evaluation.compare_report(results, str(tmp_path))
        lines = text.strip().splitlines()
        assert [ln.split()[0] for ln in lines[2:]] == ["first", "second"]


class TestEmitCurves:
    def hist(self, n):
        return TrainHistory(
            train_loss=[1.0 / (i + 1) for i in range(n)],
            train_acc=[0.5 + 0.1 * i for i in range(n)],
            val_loss=[1.2 / (i + 1) for i in range(n)],
            val_acc=[0.4 + 0.1 * i for i in range(n)],
        )

    def test_files_written(self, tmp_path):
        path = evaluation.emit_curves(self.hist(3), str(tmp_path))
        # the SVG alone: history.csv already holds the numbers
        assert path == str(tmp_path / "curves.svg")
        assert os.listdir(tmp_path) == ["curves.svg"]

    def test_flat_history_svg_valid(self, tmp_path):
        h = TrainHistory([0.5] * 3, [0.5] * 3, [0.5] * 3, [0.5] * 3)
        svg = Path(evaluation.emit_curves(h, str(tmp_path))).read_text()
        assert svg.startswith("<svg") or "<svg" in svg
        assert "polyline" in svg
        assert "NaN" not in svg

    def test_single_epoch(self, tmp_path):
        h = TrainHistory([1.0], [0.3], [1.1], [0.2])
        svg = Path(evaluation.emit_curves(h, str(tmp_path))).read_text()
        assert "NaN" not in svg
