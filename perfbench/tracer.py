"""In-memory span tracer that wraps the eegpipe layer modules.

While a `Tracer` is active it replaces every public function of the layer
modules (and each `cli.cmd_*` command) with a wrapper that records one span:
name, start, end and the index of the enclosing span.  Because the swap is
done on module attributes, calls a module makes to its own functions through
its globals are captured too.  `restore()` puts every original back.

Counters that belong to a layer boundary (bytes of raw CSV moved, samples
filtered, epochs kept, splits found) are taken by small hooks that look at a
call's arguments and result after its span has closed, so their cost is not
charged to the span.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import time


def _raw_bytes_written(args, kwargs, result):
    return {"dataio.raw_bytes_written": os.path.getsize(args[1])}


def _raw_bytes_read(args, kwargs, result):
    data_dir, manifest = args[0], args[1]
    with open(manifest, newline="", encoding="utf-8") as fh:
        files = [row["file"] for row in csv.DictReader(fh)]
    total = sum(os.path.getsize(os.path.join(data_dir, f)) for f in files)
    return {"dataio.raw_bytes_read": total}


def _samples_filtered(args, kwargs, result):
    return {"dsp.samples_filtered": int(result.size)}


def _epochs_kept(args, kwargs, result):
    return {"dsp.reject_artifacts.attempted": len(args[0]),
            "dsp.reject_artifacts.kept": len(result[0])}


def _epochs_run(args, kwargs, result):
    return {"nn.epochs_run": len(result[1])}


def _split_found(name):
    def hook(args, kwargs, result):
        return {f"baselines.{name}.found": int(result is not None)}
    return hook


COUNT_HOOKS = {
    "dataio.save_recording_csv": _raw_bytes_written,
    "dataio.load_raw_recordings": _raw_bytes_read,
    "dsp.sosfilt": _samples_filtered,
    "dsp.reject_artifacts": _epochs_kept,
    "nn.train": _epochs_run,
    "baselines.best_gini_split": _split_found("best_gini_split"),
    "baselines.best_mse_split": _split_found("best_mse_split"),
}


def traced_functions(modules: dict) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every function the tracer wraps."""
    out = []
    for layer, mod in modules.items():
        for attr, fn in sorted(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if layer == "cli":
                if attr.startswith("cmd_"):
                    out.append((mod, attr, f"cli.{attr[4:]}"))
            elif not attr.startswith("_"):
                out.append((mod, attr, f"{layer}.{attr}"))
    return out


class Tracer:
    """Records nested spans of the wrapped functions between install() and restore()."""

    def __init__(self, modules: dict):
        self._targets = traced_functions(modules)
        self._originals: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # (name id, start, end, parent)
        self.outermost: list[bool] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []  # indices of the spans now open, innermost last

    def install(self) -> None:
        for mod, attr, name in self._targets:
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = COUNT_HOOKS.get(name)
        spans, outermost, counts, stack = self.spans, self.outermost, self.counts, self._stack
        active = [0]  # calls of this function currently open, to find recursion

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            outermost.append(active[0] == 0)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[0] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[0] -= 1
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if hook is not None:
                for key, val in hook(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + val
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost calls only) and self_s.

        Self time is a span's duration minus the durations of its direct
        children, which in single-threaded code are disjoint and nested.
        """
        child_s = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            s = stats[self.names[name_id]]
            s["calls"] += 1
            s["self_s"] += (end - start) - child_s[idx]
            if self.outermost[idx]:
                s["total_s"] += end - start
        return stats

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: a child outside its parent, or siblings that overlap."""
        problems = []
        last_end: dict[int, float] = {}
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {idx} ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    problems.append(f"span {idx} lies outside its parent {parent}")
                if start < last_end.get(parent, p_start):
                    problems.append(f"span {idx} overlaps an earlier sibling")
                last_end[parent] = end
        return problems

    def write(self, path: str) -> None:
        """Write the names table, every span and the counts as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)
