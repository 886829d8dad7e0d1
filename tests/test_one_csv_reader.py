"""Only dataio parses CSV: no other module of the package calls csv.reader,
csv.DictReader or numpy.loadtxt. Every numeric CSV (raw recordings, feature
matrices, training histories) goes through dataio's one reader, so that each
file kind reads the same values and names a bad line in the same words.
Writing CSV is not parsing it: csv.writer is allowed anywhere."""

import ast

from test_private_names import module_trees

PARSERS = {"csv.reader", "csv.DictReader", "numpy.loadtxt"}


def calls_of(tree, functions):
    """(line, qualified name) of each call in the module of one of functions
    (qualified names), through `import csv`, `import numpy as np` or a
    `from csv import reader` form, aliases included."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in modules:
            called = f"{modules[func.value.id]}.{func.attr}"
        elif isinstance(func, ast.Name):
            called = names.get(func.id)
        else:
            continue
        if called in functions:
            found.append((node.lineno, called))
    return sorted(found)


def test_only_dataio_parses_csv():
    trees = module_trees()
    assert calls_of(trees["dataio.py"], PARSERS), "dataio no longer parses CSV: update this guard"
    found = [f"{module}:{line} {called}" for module, tree in trees.items()
             if module != "dataio.py" for line, called in calls_of(tree, PARSERS)]
    assert not found, f"CSV parsed outside dataio: {found}"


def test_the_guard_finds_each_way_of_calling_a_parser():
    tree = ast.parse(
        "import csv\nimport numpy as np\nfrom csv import DictReader as Rows\n"
        "from numpy import loadtxt\n\n"
        "def read(fh):\n"
        "    rows = list(csv.reader(fh))\n"
        "    table = Rows(fh)\n"
        "    a = np.loadtxt(fh)\n"
        "    b = loadtxt(fh)\n"
        "    csv.writer(fh).writerow(['x'])\n"
        "    return np.savetxt, rows, table, a, b\n")
    assert calls_of(tree, PARSERS) == [(7, "csv.reader"), (8, "csv.DictReader"),
                                       (9, "numpy.loadtxt"), (10, "numpy.loadtxt")]
