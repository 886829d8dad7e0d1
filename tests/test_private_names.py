"""No private helper is left behind: every private name a module of the
package defines at module level is read somewhere in the package. Tests do
not count as readers, as a helper only tests call is dead code."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "eegpipe")


def module_trees():
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), path)
    return trees


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
