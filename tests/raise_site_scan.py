"""Which raise sites of the package the test suite reaches through cli.main.

    python tests/raise_site_scan.py [REV] [-- PYTEST_ARGS...]

Copies the repository at git revision REV (the working tree when REV is not
given) into a temporary directory, makes every PipelineError record, as it
is constructed, the line that constructs it and whether cli.main is on the
stack, and runs the suite there (in-process tests, the subprocesses they
start and the children those fork all record). It then prints one row per
`raise ConfigError|DataError|NumericError` statement of src/eegpipe/:
"main" when some test reaches it through cli.main, "direct" when tests reach
it only by calling the library, "never" when no test does; then the counts.
"""

import os
import shutil
import subprocess
import sys
import tempfile

from test_entry_checks import raise_sites
from test_private_names import module_trees

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

RECORDER = '''

def _record_site(self, *args):
    import sys
    site = sys._getframe(1)
    frame, via_main = site, False
    while frame is not None and not via_main:
        code = frame.f_code
        via_main = code.co_name == "main" and code.co_filename.endswith("cli.py")
        frame = frame.f_back
    with open({log!r}, "a", encoding="utf-8") as fh:
        fh.write(f"{{site.f_code.co_filename}}\\t{{site.f_lineno}}\\t{{int(via_main)}}\\n")
    Exception.__init__(self, *args)


PipelineError.__init__ = _record_site
'''


def copy_tree(rev: str | None, dest: str) -> None:
    """The files of git revision rev, or the working tree's files that git
    tracks or would (not ignored), into dest."""
    if rev is None:
        names = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                                "--exclude-standard"], check=True, capture_output=True).stdout
        for name in names.decode().split("\0"):
            if name and os.path.isfile(os.path.join(ROOT, name)):
                os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
                shutil.copy(os.path.join(ROOT, name), os.path.join(dest, name))
    else:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def main(argv: list[str]) -> int:
    rev, pytest_args = None, ["-q", "-p", "no:cacheprovider"]
    if "--" in argv:
        pytest_args += argv[argv.index("--") + 1 :]
        argv = argv[: argv.index("--")]
    if argv:
        rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(rev, tmp)
        log = os.path.join(tmp, "sites.log")
        package = os.path.join(tmp, "src", "eegpipe")
        with open(os.path.join(package, "errors.py"), "a", encoding="utf-8") as fh:
            fh.write(RECORDER.format(log=log))
        tests = subprocess.run([sys.executable, "-m", "pytest", *pytest_args], cwd=tmp)
        reached: dict[tuple[str, int], int] = {}
        if os.path.exists(log):
            with open(log, encoding="utf-8") as fh:
                for line in fh:
                    path, lineno, via_main = line.rstrip("\n").split("\t")
                    if os.path.dirname(path) == package:
                        key = (os.path.basename(path), int(lineno))
                        reached[key] = max(reached.get(key, 0), int(via_main))
        counts = {"main": 0, "direct": 0, "never": 0}
        for module, tree in module_trees(package).items():
            for first, last, function in raise_sites(tree, module[:-3]):
                hits = [reached[module, n] for n in range(first, last + 1)
                        if (module, n) in reached]
                how = "never" if not hits else "main" if max(hits) else "direct"
                counts[how] += 1
                print(f"{how:6}  {module}:{first}  {function}")
        print(f"{sum(counts.values())} sites: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return tests.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
