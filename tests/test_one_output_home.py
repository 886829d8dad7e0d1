"""Only cli decides where a command writes: no other module of the package
makes a directory or holds the name of an output file as a string. The
names are cli._OUTPUT_NAMES, the directory is made in cli._outputs, and the
writers take their paths. So a new output file, or a new way of writing
them all (such as under a temporary name, then renamed), is one edit of cli."""

import ast

from eegpipe import cli
from test_one_csv_reader import calls_of
from test_private_names import module_trees

MAKES_DIRECTORIES = {"os.makedirs", "os.mkdir"}
OUTPUT_NAMES = {name for names in cli._OUTPUT_NAMES.values() for name in names}


def output_homes(tree):
    """(line, what) of each call in the module of a MAKES_DIRECTORIES
    function, and of each string literal that is one of OUTPUT_NAMES or
    ends in "/" and one, such as the tail of f"{out}/split.json"."""
    names = [(node.lineno, repr(node.value)) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.rpartition("/")[2] in OUTPUT_NAMES]
    return sorted(calls_of(tree, MAKES_DIRECTORIES) + names)


def test_only_cli_names_an_output_or_makes_a_directory():
    trees = module_trees()
    in_cli = [what for _, what in output_homes(trees["cli.py"])]
    assert "os.makedirs" in in_cli and "'split.json'" in in_cli, \
        "cli no longer makes --out or names the outputs: update this guard"
    found = [f"{module}:{line} {what}" for module, tree in trees.items()
             if module != "cli.py" for line, what in output_homes(tree)]
    assert not found, f"output paths decided outside cli: {found}"


def test_the_guard_finds_each_way_of_naming_an_output():
    tree = ast.parse(
        "import os as system\n"
        "from os import makedirs, mkdir as md\n\n"
        "def write(out_dir, rows):\n"
        "    system.makedirs(out_dir, exist_ok=True)\n"
        "    makedirs(out_dir)\n"
        "    md(out_dir)\n"
        "    path = system.path.join(out_dir, 'comparison.csv')\n"
        "    other = f'{out_dir}/split.json'\n"
        "    return path, other, 'comparison', 0\n")
    assert output_homes(tree) == [(5, "os.makedirs"), (6, "os.makedirs"), (7, "os.mkdir"),
                                  (8, "'comparison.csv'"), (9, "'/split.json'")]
