"""Confusion matrices, derived metrics, comparison tables, and curve files.

Orientation: rows are true classes, columns are predicted classes; this
is printed in every emitted header.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .nn import TrainHistory


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [C, C] ints, rows=true, cols=predicted
    class_names: list[str]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise DataError("confusion matrix must be square")
        if self.counts.shape[0] != len(self.class_names):
            raise DataError("class_names length must match matrix size")
        if np.any(self.counts < 0):
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    accuracy: float
    precision: np.ndarray  # per class
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    support: np.ndarray  # per-class true counts
    zero_division_flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": [float(v) for v in self.precision],
            "recall": [float(v) for v in self.recall],
            "f1": [float(v) for v in self.f1],
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "support": [int(v) for v in self.support],
            "zero_division_flags": list(self.zero_division_flags),
        }


def confusion(preds, truth, n_classes: int, class_names: list[str] | None = None) -> ConfusionMatrix:
    """Count matrix with counts[i][j] = #{true class i predicted as j}."""
    preds = np.asarray(preds, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if len(preds) != len(truth):
        raise DataError(f"length mismatch: {len(preds)} predictions vs {len(truth)} labels")
    if len(preds) and (
        preds.min() < 0 or truth.min() < 0 or preds.max() >= n_classes or truth.max() >= n_classes
    ):
        raise DataError(f"class id out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truth, preds), 1)
    if class_names is None:
        class_names = [str(i) for i in range(n_classes)]
    return ConfusionMatrix(counts, class_names)


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy plus per-class and macro precision/recall/F1.

    Zero-denominator cases (empty column, empty row, or P+R=0) yield 0
    and are recorded in zero_division_flags.
    """
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    counts = cm.counts
    c = counts.shape[0]
    diag = np.diag(counts).astype(float)
    col = counts.sum(axis=0).astype(float)
    row = counts.sum(axis=1).astype(float)
    flags = []
    precision = np.zeros(c)
    recall = np.zeros(c)
    f1 = np.zeros(c)
    for i in range(c):
        if col[i] > 0:
            precision[i] = diag[i] / col[i]
        else:
            flags.append(f"precision[{cm.class_names[i]}]: no predictions")
        if row[i] > 0:
            recall[i] = diag[i] / row[i]
        else:
            flags.append(f"recall[{cm.class_names[i]}]: no true examples")
        if precision[i] + recall[i] > 0:
            f1[i] = 2.0 * precision[i] * recall[i] / (precision[i] + recall[i])
        else:
            flags.append(f"f1[{cm.class_names[i]}]: precision+recall is 0")
    accuracy = float(np.trace(counts)) / cm.total
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        support=counts.sum(axis=1),
        zero_division_flags=flags,
    )


def write_confusion_csv(cm: ConfusionMatrix, path: str) -> None:
    """C+1 rows including header; rows=true, columns=predicted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted"] + list(cm.class_names))
        for i, name in enumerate(cm.class_names):
            writer.writerow([name] + [int(v) for v in cm.counts[i]])


def write_metrics_json(report: MetricsReport, class_names: list[str], path: str) -> None:
    doc = report.to_dict()
    doc["class_names"] = list(class_names)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def compare_report(
    results: list[tuple[str, MetricsReport]], out_dir: str | None = None
) -> str:
    """Accuracy-sorted comparison table; returns the aligned text form.

    When out_dir is given, also writes comparison.csv and comparison.txt.
    Ties in accuracy keep the input order.
    """
    if not results:
        raise DataError("compare_report needs at least one result")
    rows = sorted(results, key=lambda kv: -kv[1].accuracy)
    name_w = max(len("model"), max(len(name) for name, _ in rows))
    lines = [
        f"{'model':<{name_w}}  {'accuracy':>8}  {'macro_f1':>8}",
        f"{'-' * name_w}  {'-' * 8}  {'-' * 8}",
    ]
    for name, rep in rows:
        lines.append(f"{name:<{name_w}}  {rep.accuracy:8.4f}  {rep.macro_f1:8.4f}")
    text = "\n".join(lines) + "\n"
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "comparison.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "accuracy", "macro_precision", "macro_recall", "macro_f1"])
            for name, rep in rows:
                writer.writerow(
                    [name, repr(rep.accuracy), repr(rep.macro_precision),
                     repr(rep.macro_recall), repr(rep.macro_f1)]
                )
        with open(os.path.join(out_dir, "comparison.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _svg_polyline(xs, ys, x0, y0, w, h, xmin, xmax, ymin, ymax, color):
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = x0 + (x - xmin) / (xmax - xmin) * w
        py = y0 + h - (y - ymin) / (ymax - ymin) * h
        pts.append(f"{px:.2f},{py:.2f}")
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{" ".join(pts)}"/>'
    )


def _svg_panel(title, epochs, series, x0, y0, w, h):
    """One panel with train/val series, axes, and a small legend."""
    ymin = min(min(s) for s, _, _ in series)
    ymax = max(max(s) for s, _, _ in series)
    if ymax == ymin:
        ymax = ymin + 1.0
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="#888"/>',
        f'<text x="{x0 + w / 2:.0f}" y="{y0 - 8}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{title}</text>',
        f'<text x="{x0 - 6}" y="{y0 + 10}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{ymax:.3g}</text>',
        f'<text x="{x0 - 6}" y="{y0 + h}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{ymin:.3g}</text>',
        f'<text x="{x0 + w}" y="{y0 + h + 14}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">epoch {epochs[-1]}</text>',
    ]
    for values, color, label in series:
        parts.append(
            _svg_polyline(epochs, values, x0, y0, w, h, epochs[0], epochs[-1], ymin, ymax, color)
        )
    for k, (_, color, label) in enumerate(series):
        ly = y0 + 14 + 14 * k
        parts.append(f'<line x1="{x0 + w - 70}" y1="{ly - 4}" x2="{x0 + w - 52}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{x0 + w - 48}" y="{ly}" font-size="10" font-family="sans-serif">{label}</text>'
        )
    return "\n".join(parts)


def emit_curves(history: TrainHistory, out_dir: str) -> str:
    """Write a self-contained curves.svg and return its path.

    The SVG has two panels (loss and accuracy vs epoch, train and
    validation series) and needs no external renderer.
    """
    if len(history) == 0:
        raise DataError("cannot emit curves for an empty history")
    os.makedirs(out_dir, exist_ok=True)
    epochs = list(range(1, len(history) + 1))
    if len(epochs) == 1:  # polylines need two points
        epochs = [1, 1]
        dup = lambda s: [s[0], s[0]]
    else:
        dup = lambda s: s
    body = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="760" height="300" '
        'viewBox="0 0 760 300">',
        '<rect width="760" height="300" fill="white"/>',
        _svg_panel(
            "Loss", epochs,
            [(dup(history.train_loss), "#1f77b4", "train"),
             (dup(history.val_loss), "#d62728", "val")],
            50, 30, 280, 230,
        ),
        _svg_panel(
            "Accuracy", epochs,
            [(dup(history.train_acc), "#1f77b4", "train"),
             (dup(history.val_acc), "#d62728", "val")],
            430, 30, 280, 230,
        ),
        "</svg>",
    ]
    svg_path = os.path.join(out_dir, "curves.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(body) + "\n")
    return svg_path
