"""The benchmark tracer's counters hang on named eegpipe functions: a rename
there silently drops a per-layer metric, so each name is checked here."""

import importlib
import os
import types

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    """tracer.py as a module, compiled from its source so no bytecode is written."""
    module = types.ModuleType("bench_tracer")
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


def test_every_count_hook_names_a_traced_public_function():
    tracer = load_tracer()
    layers = {name.split(".")[0] for name in tracer.COUNT_HOOKS}
    modules = {layer: importlib.import_module(f"eegpipe.{layer}") for layer in layers}
    traced = {name for _, _, name in tracer.traced_functions(modules)}
    missing = sorted(set(tracer.COUNT_HOOKS) - traced)
    assert not missing, f"tracer hooks name no public eegpipe function: {missing}"
