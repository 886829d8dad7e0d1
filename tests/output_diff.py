"""Do two checkouts write the same bytes? Runs the benchmark's workloads in both.

    python tests/output_diff.py PARENT_CHECKOUT [--workload NAME ...] [--seeds 1,2,3]
        [--cpus 1,2]

Reads the command lists of the workloads from perfbench/workload.py's
WORKLOADS (this checkout's file, by its syntax tree, so nothing but the
standard library is imported here) and runs each workload's set-up and timed
commands with `python -m eegpipe.cli`, once against this checkout's src/ and
once against PARENT_CHECKOUT's, in a fresh directory each, at every seed and
CPU count asked for. The CPU count is set by os.sched_setaffinity in each
child before it starts, on the first CPUs this process may use; BLAS runs
one thread. Then it compares every file the commands wrote, and every
command's exit code, stdout and stderr, and prints one line a run:
"identical", or the first difference. Exit status 0 when every run is
identical, 1 when one differs.

By default chain and gru_train run at seeds 1-3 and long_recordings at
seed 1, each at 1 and 2 CPUs. This script is not part of the test suite.
"""

import argparse
import ast
import os
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEFAULT_SEEDS = {"chain": (1, 2, 3), "gru_train": (1, 2, 3), "long_recordings": (1,)}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def workloads(path=os.path.join(ROOT, "perfbench", "workload.py")) -> dict:
    """WORKLOADS of workload.py: name -> (command maker, rows, steps). Only the
    module's function definitions and the WORKLOADS assignment are run, in
    a namespace that holds `os`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    body = [node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            or isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets)]
    namespace = {"os": os}
    exec(compile(ast.Module(body=body, type_ignores=[]), path, "exec"), namespace)
    return namespace["WORKLOADS"]


def run(checkout: str, commands: list, workdir: str, cpus: list[int]) -> list:
    """Each command through `python -m eegpipe.cli` in workdir, with the
    checkout's src/ on the path, at the given CPUs: (argv, exit code, stdout,
    stderr) of each."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(BLAS_VARS, "1"))
    results = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "eegpipe.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        results.append((argv, proc.returncode, proc.stdout, proc.stderr))
    return results


def files(root: str) -> dict:
    """Every file under root, by relative path, with its bytes."""
    out = {}
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def first_difference(what: str, a: bytes, b: bytes) -> str:
    """Where two byte strings first differ: the line, and both versions of it."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(a_lines, b_lines), start=1):
        if x != y:
            return f"{what}, line {n}: {x[:120]!r} here, {y[:120]!r} in the parent"
    return f"{what}: {len(a_lines)} lines here, {len(b_lines)} in the parent"


def compare(ours: tuple, theirs: tuple) -> str | None:
    """The first difference between two runs, (command results, files), or None."""
    for (argv, *mine), (_, *parent) in zip(ours[0], theirs[0]):
        for label, x, y in zip(("exit code", "stdout", "stderr"), mine, parent):
            if x != y:
                if label == "exit code":
                    return f"{argv[0]}: exit code {x} here, {y} in the parent"
                return first_difference(f"{argv[0]} {label}", x, y)
    names = sorted(set(ours[1]) | set(theirs[1]))
    for name in names:
        if name not in ours[1] or name not in theirs[1]:
            return f"{name} is written {'here' if name in ours[1] else 'by the parent'} only"
        if ours[1][name] != theirs[1][name]:
            return first_difference(name, ours[1][name], theirs[1][name])
    return None


def main(argv: list[str]) -> int:
    table = workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the checkout to compare with")
    ap.add_argument("--workload", action="append", choices=sorted(table),
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", help="comma-separated seeds for every workload "
                                    "(default: 1-3 for chain and gru_train, 1 for long_recordings)")
    ap.add_argument("--cpus", default="1,2", help="comma-separated CPU counts (default: 1,2)")
    args = ap.parse_args(argv)
    usable = sorted(os.sched_getaffinity(0))
    counts = [int(c) for c in args.cpus.split(",")]
    if max(counts) > len(usable):
        ap.error(f"{max(counts)} CPUs asked for, {len(usable)} usable")
    differ = 0
    for name in args.workload or sorted(table):
        build = table[name][0]
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else DEFAULT_SEEDS[name]
        for seed in seeds:
            setup, timed = build(seed, "it", "inputs")
            for n in counts:
                outcome = []
                for checkout in (ROOT, os.path.abspath(args.parent)):
                    with tempfile.TemporaryDirectory() as workdir:
                        results = run(checkout, setup + timed, workdir, usable[:n])
                        outcome.append((results, files(workdir)))
                found = compare(*outcome)
                written = len(outcome[0][1])
                print(f"{name} seed {seed} at {n} CPU{'s' * (n > 1)}: "
                      + (found or f"identical ({len(setup + timed)} commands, {written} files)"),
                      flush=True)
                differ += found is not None
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
