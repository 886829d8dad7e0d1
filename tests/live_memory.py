"""The traced peak of live bytes in each command of the benchmark's workloads.

    python tests/live_memory.py [PARENT_CHECKOUT] [--workload NAME ...] [--seed N]

Reads the command lists of the workloads through output_diff.workloads() and
runs each workload's set-up and timed commands once, in order, through
eegpipe.cli.main, as perfbench/workload.py does: in a fresh Python process per
checkout (this one, and PARENT_CHECKOUT when given), with that checkout's
src/ on the path, in a fresh directory, with BLAS at one thread. The process
starts tracemalloc after its imports. Before each command it collects
garbage, so that what the last command left does not count. For each command
it prints the traced peak above the memory traced at the command's start, in
MB, for this checkout and the parent side by side, and the change.

Unlike ru_maxrss, the traced peak does not move with heap layout, with the
number of times a command is repeated or with the length of the source text:
it counts the bytes Python and numpy hold. It sees only the process it runs
in, so the work that featurize forks out to other processes, when more than
one CPU is usable, is not counted; the usable CPU count is printed first.
This script is not part of the test suite.
"""

import argparse
import contextlib
import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import output_diff


def child() -> None:
    """Run the commands read as JSON from stdin, then print one JSON list of
    [command, exit code, traced peak above the start in bytes], one a command."""
    commands = json.load(sys.stdin)
    from eegpipe import cli

    tracemalloc.start()
    results = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in commands:
            gc.collect()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append([argv[0], code, tracemalloc.get_traced_memory()[1] - start])
    print(json.dumps(results))


def measure(checkout: str, commands: list) -> list:
    """child()'s results for the commands, run against the checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(output_diff.BLAS_VARS, "1"))
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                              input=json.dumps(commands), cwd=workdir, env=env,
                              capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: the measuring process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    table = output_diff.workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="a checkout to compare with")
    ap.add_argument("--workload", action="append", choices=sorted(table),
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1, help="the workload seed (default: 1)")
    args = ap.parse_args(argv)
    checkouts = [output_diff.ROOT] + ([os.path.abspath(args.parent)] if args.parent else [])
    print(f"{len(os.sched_getaffinity(0))} usable CPUs; work forked to other processes "
          "is not traced")
    header = f"{'workload':<16} {'command':<10} {'here MB':>9}"
    print(header + (f" {'parent MB':>10} {'change MB':>10}" if args.parent else ""))
    for name in args.workload or sorted(table):
        setup, timed = table[name][0](args.seed, "it", "inputs")
        runs = [measure(checkout, setup + timed) for checkout in checkouts]
        for rows in zip(*runs):
            line = f"{name:<16} {rows[0][0]:<10}"
            peaks = [peak / 1e6 for _, _, peak in rows]
            line += f" {peaks[0]:9.3f}"
            if args.parent:
                line += f" {peaks[1]:10.3f} {peaks[0] - peaks[1]:+10.3f}"
            codes = [code for _, code, _ in rows]
            if any(codes):
                line += f"  exit codes {codes}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main(sys.argv[1:]))
