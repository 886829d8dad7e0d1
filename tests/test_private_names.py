"""Nothing is defined that no run reads:
- every private name a module of the package defines at module level is
  read somewhere in the package;
- every public module-level function is read in src/ or perfbench/, or is
  named by a per-layer metric of BENCHMARK.json;
- every dataclass or NamedTuple field, and every property, is read in src/
  or perfbench/;
- every public method of a class the package defines is read in src/ or
  perfbench/, unless it overrides a method of a base class from outside
  the package, whose own code calls it.
Tests do not count as readers, as code only tests reach is dead code."""

import ast
import importlib
import json
import os
import types

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "eegpipe")
PERFBENCH = os.path.join(ROOT, "perfbench")


def module_trees(directory=PACKAGE):
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), path)
    return trees


def running_trees():
    """The package's modules and the benchmark's scripts: the code a run executes."""
    return [*module_trees().values(), *module_trees(PERFBENCH).values()]


def private_definitions(tree):
    """(name, line) of each function, class or constant a module defines at
    its top level whose name starts with one underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_") \
                        and not name.id.startswith("__"):
                    found.append((name.id, node.lineno))
    return found


def names_read(tree):
    """Every name the module loads, bare or as an attribute of another."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_private_module_level_name_is_read_in_the_package():
    trees = module_trees()
    assert "dsp.py" in trees
    read = set().union(*map(names_read, trees.values()))
    dead = [f"{module}:{line} {name}" for module, tree in trees.items()
            for name, line in private_definitions(tree) if name not in read]
    assert not dead, f"private names defined but never read: {dead}"


def test_the_guard_finds_an_unread_helper_and_constant():
    tree = ast.parse("_LIMIT = 3\n_A, B = 1, 2\n\ndef _helper():\n    return _A\n\n"
                     "class _Kind:\n    pass\n\ndef public():\n    return _Kind()\n")
    defined = private_definitions(tree)
    assert [name for name, _ in defined] == ["_LIMIT", "_A", "_helper", "_Kind"]
    read = names_read(tree)
    assert [name for name, _ in defined if name not in read] == ["_LIMIT", "_helper"]


def public_functions(tree):
    """(name, line) of each function a module defines at its top level whose
    name does not start with an underscore."""
    return [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def metric_functions():
    """The module.function pairs that BENCHMARK.json's per-layer metrics name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["per_layer"]
    return {".".join(m["name"].split(".")[:2]) for m in metrics}


def test_every_public_function_is_read_by_a_run_or_a_metric():
    # main dispatches to each cmd_* by name
    read = set().union(*map(names_read, running_trees()))
    named = metric_functions()
    dead = [f"{module}:{line} {name}" for module, tree in module_trees().items()
            for name, line in public_functions(tree)
            if not name.startswith("cmd_") and name not in read
            and f"{module[:-3]}.{name}" not in named]
    assert not dead, f"public functions no run reads: {dead}"


def _is_record_class(node):
    """A class decorated with dataclass, or one deriving from NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    bases = [*decorators, *node.bases]
    return any((b.id if isinstance(b, ast.Name) else getattr(b, "attr", None))
               in ("dataclass", "NamedTuple") for b in bases)


def fields_and_properties(tree):
    """(class, name, line) of each field of a dataclass or NamedTuple, and of
    each property of any class, that the module defines."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and _is_record_class(node)):
                found.append((node.name, item.target.id, item.lineno))
            elif isinstance(item, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list):
                found.append((node.name, item.name, item.lineno))
    return found


def attributes_read(tree):
    """Every attribute the module loads, and every string constant, which a
    getattr or a table of column names may read a field by."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_field_and_property_is_read_by_a_run():
    read = set().union(*map(attributes_read, running_trees()))
    dead = [f"{module}:{line} {cls}.{name}" for module, tree in module_trees().items()
            for cls, name, line in fields_and_properties(tree) if name not in read]
    assert not dead, f"fields or properties no run reads: {dead}"


def test_the_guards_find_an_unread_function_field_and_property():
    tree = ast.parse(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n"
        "@dataclass(frozen=True)\nclass Spec:\n    a: int\n    b: int = 0\n\n"
        "    @property\n    def c(self):\n        return self.a\n\n"
        "class Row(NamedTuple):\n    d: int\n    e: str\n\n"
        "class Plain:\n    f: int\n\n"
        "def used(row):\n    return getattr(row, 'e')\n\n"
        "def unused():\n    return used\n\n"
        "def _private():\n    pass\n")
    assert [name for name, _ in public_functions(tree)] == ["used", "unused"]
    assert [(c, n) for c, n, _ in fields_and_properties(tree)] == [
        ("Spec", "a"), ("Spec", "b"), ("Spec", "c"), ("Row", "d"), ("Row", "e")]
    read = attributes_read(tree)
    assert [n for _, n, _ in fields_and_properties(tree) if n not in read] == ["b", "c", "d"]
    assert [n for n, _ in public_functions(tree) if n not in names_read(tree)] == ["unused"]


def unread_methods(module, tree, read):
    """(class, name, line) of each public, non-dunder method of each class
    the module defines at its top level that is not in `read`, unless a
    base class from outside the class's package defines it too."""
    dead = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        cls = getattr(module, node.name)
        package = cls.__module__.split(".")[0]
        outside = [base for base in cls.__mro__[1:] if base.__module__.split(".")[0] != package]
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_") and item.name not in read
                    and not any(item.name in vars(base) for base in outside)):
                dead.append((node.name, item.name, item.lineno))
    return dead


def test_every_public_method_is_read_by_a_run():
    read = set().union(*map(attributes_read, running_trees()))
    dead = [f"{name}:{line} {cls}.{method}" for name, tree in module_trees().items()
            for cls, method, line in unread_methods(importlib.import_module(
                "eegpipe" if name == "__init__.py" else f"eegpipe.{name[:-3]}"), tree, read)]
    assert not dead, f"methods no run reads: {dead}"


def test_the_guard_finds_an_unread_method_but_not_an_override():
    source = ("import argparse\n\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def error(self, message):\n        raise SystemExit(message)\n\n"
              "    def unread(self):\n        pass\n\n"
              "class Base:\n    def hook(self):\n        return self.used()\n\n"
              "    def used(self):\n        return 'named'\n\n"
              "class Child(Base):\n    def hook(self):\n        pass\n\n"
              "    def named(self):\n        pass\n\n"
              "    def _private(self):\n        pass\n\n"
              "    def __len__(self):\n        return 0\n")
    module = types.ModuleType("madeup")
    tree = ast.parse(source)
    exec(compile(tree, "madeup", "exec"), module.__dict__)
    # Base.hook and its override in Child are unread: a base class from the
    # same package exempts nothing
    assert [(c, m) for c, m, _ in unread_methods(module, tree, attributes_read(tree))] == [
        ("Parser", "unread"), ("Base", "hook"), ("Child", "hook")]
