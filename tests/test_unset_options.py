"""Every default is both overridden and relied on. Each defaulted parameter
of a function, method or dataclass field in the package is passed, by
keyword or by position, by at least one call in src/ or perfbench/, and
omitted by at least one. An option no caller sets is a constant dressed as
a setting; a default that every caller overrides is a second copy of a
value whose home is elsewhere (the settings table, a config dataclass or a
module constant). Tests do not count as callers: an option only a test
sets, or a default only a test relies on, is one no run of the program
reaches.

Calls are matched to definitions by name alone (a bare name, or an
attribute's last part), and a call that unpacks `*` or `**` counts as
passing everything and as relying on every default, so either guard can
miss an option but never reports one wrongly."""

import ast
import os

from test_private_names import module_trees

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CALLERS = ("src", "perfbench")


def caller_trees(root=ROOT):
    """The syntax tree of every Python file under the CALLERS directories of root."""
    for top in CALLERS:
        for parent, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(parent, name)
                    with open(path, encoding="utf-8") as fh:
                        yield ast.parse(fh.read(), path)


def _is_field_holder(cls):
    """A dataclass or NamedTuple: its annotated class attributes are the
    constructor's parameters, in order."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list] + cls.bases
    return any((m.id if isinstance(m, ast.Name) else getattr(m, "attr", None))
               in ("dataclass", "NamedTuple") for m in marks)


def _function_options(fn, skip_first):
    """(position or None, name, line) of each defaulted parameter of fn; a
    keyword-only one has no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first_default = len(positional) - len(fn.args.defaults)
    found = [(i - skip_first, a.arg, a.lineno)
             for i, a in enumerate(positional) if i >= first_default]
    found += [(None, a.arg, a.lineno)
              for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def defaulted_options(tree):
    """callee name -> [(position or None, parameter, line)] of every function,
    method and dataclass or NamedTuple field with a default. A method's
    positions leave out self or cls; a field's callee is its class."""
    options = {}

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                name = node.name if child.name == "__init__" else child.name
                options.setdefault(name, []).extend(
                    _function_options(child, int(in_class and not static)))
                visit(child, False)
            elif isinstance(child, ast.ClassDef):
                if _is_field_holder(child):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    options.setdefault(child.name, []).extend(
                        (i, s.target.id, s.lineno) for i, s in enumerate(fields)
                        if s.value is not None)
                visit(child, True)
            else:
                visit(child, in_class)

    visit(tree, False)
    return options


def passed_options(tree):
    """callee name -> (number of positional arguments, keyword names) of each
    call; a call that unpacks `*` or `**` passes everything (None)."""
    passed = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            passed.setdefault(name, []).append(None)
        else:
            passed.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}))
    return passed


def _site_passes(site, position, param):
    """True if a call site (see passed_options) passes the option, False if
    it omits it, None if it unpacks `*` or `**` and so may do either."""
    if site is None:
        return None
    return param in site[1] or position is not None and 0 <= position < site[0]


def _options_where(definitions, calls, flagged):
    """'module:line callee.parameter' of each option in definitions
    ({module: defaulted_options}) for which flagged holds on the list of
    _site_passes of every call to its callee in calls (passed_options
    merged)."""
    found = []
    for module, options in definitions.items():
        for callee, params in options.items():
            sites = calls.get(callee, [])
            for position, param, line in params:
                if flagged([_site_passes(site, position, param) for site in sites]):
                    found.append(f"{module}:{line} {callee}.{param}")
    return found


def unset_options(definitions, calls):
    """The options in definitions that no call in calls passes."""
    return _options_where(definitions, calls, lambda passes: all(p is False for p in passes))


def unrelied_defaults(definitions, calls):
    """The options in definitions whose default no call in calls relies on:
    every call passes them."""
    return _options_where(definitions, calls, lambda passes: all(p is True for p in passes))


def merged_calls(root=ROOT):
    """passed_options of every file caller_trees(root) yields, merged."""
    calls = {}
    for tree in caller_trees(root):
        for name, sites in passed_options(tree).items():
            calls.setdefault(name, []).extend(sites)
    return calls


def test_every_option_of_the_package_is_set_by_some_caller():
    definitions = {module: defaulted_options(tree) for module, tree in module_trees().items()}
    assert "fit_forest" in definitions["baselines.py"]
    unset = unset_options(definitions, merged_calls())
    assert not unset, f"options that no call in src/ or perfbench/ sets: {unset}"


def test_every_default_of_the_package_is_relied_on_by_some_caller():
    definitions = {module: defaulted_options(tree) for module, tree in module_trees().items()}
    assert "fit_forest" in definitions["baselines.py"]
    unrelied = unrelied_defaults(definitions, merged_calls())
    assert not unrelied, f"defaults that every call in src/ or perfbench/ overrides: {unrelied}"


def test_a_call_made_only_from_tests_does_not_count(tmp_path):
    files = {
        "src/pkg/m.py": "def fit(x, rate=0.5, steps=10):\n    return x\nfit(1, steps=3)\n",
        "perfbench/run.py": "fit(2)\n",
        "tests/test_m.py": "fit(1, rate=0.1)\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    options = {"m.py": defaulted_options(ast.parse(files["src/pkg/m.py"]))}
    calls = merged_calls(str(tmp_path))
    assert calls["fit"] == [(1, {"steps"}), (1, set())]
    assert unset_options(options, calls) == ["m.py:1 fit.rate"]


def test_the_guard_finds_options_no_call_sets():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def fit(x, rate=0.5, steps=10, *, l2=1e-4, seed=0):\n"
        "    return x\n"
        "@dataclass\n"
        "class Config:\n"
        "    size: int\n"
        "    bands: dict = field(default_factory=dict)\n"
        "    order: int = 4\n"
        "class Model:\n"
        "    def __init__(self, depth=3):\n"
        "        pass\n"
        "    def score(self, x, scale=1.0):\n"
        "        def inner(y, shift=0):\n"
        "            return y\n"
        "        return inner(x)\n"
        "fit(1, 0.1, seed=2)\n"
        "Config(3, order=8)\n"
        "Model(5).score(1)\n"
        "args = [1]\n"
        "inner(*args)\n"
    )
    options = defaulted_options(tree)
    assert options["fit"] == [(1, "rate", 2), (2, "steps", 2), (None, "l2", 2),
                              (None, "seed", 2)]
    assert options["Config"] == [(1, "bands", 7), (2, "order", 8)]
    assert options["Model"] == [(0, "depth", 10)]
    assert options["score"] == [(1, "scale", 12)]
    assert options["inner"] == [(1, "shift", 13)]
    calls = passed_options(tree)
    assert calls["fit"] == [(2, {"seed"})] and None in calls["inner"]
    assert unset_options({"m.py": options}, calls) == [
        "m.py:2 fit.steps", "m.py:2 fit.l2", "m.py:7 Config.bands", "m.py:12 score.scale",
    ]


def test_the_guard_finds_defaults_every_call_overrides():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def fit(x, rate=0.5, steps=10, *, seed=0):\n"
        "    return x\n"
        "def load(path, column='label'):\n"
        "    return path\n"
        "@dataclass\n"
        "class Config:\n"
        "    size: int\n"
        "    order: int = 4\n"
        "fit(1, 0.1, seed=2)\n"
        "fit(2, rate=0.3, steps=4, seed=1)\n"
        "Config(3, 8)\n"
        "Config(size=1, order=2)\n"
        "load('a', 'b')\n"
        "kwargs = {'path': 'c'}\n"
        "load(**kwargs)\n"
    )
    options = defaulted_options(tree)
    calls = passed_options(tree)
    assert calls["load"] == [(2, set()), None]
    # steps is omitted by the first call of fit, and load's column by the
    # call that unpacks **, which counts as relying on every default
    assert unrelied_defaults({"m.py": options}, calls) == [
        "m.py:2 fit.rate", "m.py:2 fit.seed", "m.py:9 Config.order",
    ]
    assert unset_options({"m.py": options}, calls) == []
