"""No LAPACK in the pipeline: no module of the package reaches numpy's
`linalg` or `roots`, whose calls run LAPACK (and fault in its code pages).
The filter's stability test and steady state are exact closed forms, and
the GRU's `matmul` is the only BLAS call. Tests may still use LAPACK."""

import ast

from test_private_names import module_trees

LAPACK_NAMES = {"linalg", "roots"}


def lapack_references(tree):
    """(line, text) of each reference to numpy's linalg or roots: as an
    attribute of a name numpy is imported as, or in an import statement."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAPACK_NAMES \
                and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.startswith("numpy.linalg"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy.linalg"):
                found.append((node.lineno, node.module))
            elif node.module == "numpy":
                found.extend((node.lineno, f"numpy.{alias.name}") for alias in node.names
                             if alias.name in LAPACK_NAMES)
    return sorted(found)


def test_the_package_makes_no_lapack_call():
    trees = module_trees()
    assert "dsp.py" in trees
    found = [f"{module}:{line} {text}" for module, tree in trees.items()
             for line, text in lapack_references(tree)]
    assert not found, f"LAPACK reached from the package: {found}"


def test_the_guard_finds_each_way_to_reach_lapack():
    tree = ast.parse("import numpy as np\nimport numpy.linalg\n"
                     "from numpy import roots, matmul\nfrom numpy.linalg import solve\n\n"
                     "def f(a, b, p, section):\n"
                     "    x = np.linalg.solve(a, b) + np.matmul(a, b)\n"
                     "    return x, np.roots(p), section.roots, linalg.inv(a)\n")
    assert lapack_references(tree) == [(2, "numpy.linalg"), (3, "numpy.roots"),
                                       (4, "numpy.linalg"), (7, "np.linalg"), (8, "np.roots")]
