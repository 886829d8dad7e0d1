"""eegpipe benchmark: times the CLI pipeline on generated inputs.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; nothing needs to be installed.  Each
run starts the workload in a fresh Python process (perfbench/workload.py)
with the BLAS thread count pinned to 1 through the environment.  Before that
it starts the interpreter and imports eegpipe a few times, to measure set-up.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones in BENCHMARK.json; with --trace 1 they are the per-layer
ones, from two traced runs of the workload.  The line before it records the
environment and the stage times.  Every file a run writes goes under
.perfbench/ in the checkout.

Exit codes: 0 with a result, 1 when the workload process fails or the metric
names disagree with BENCHMARK.json, 2 when the checkout has no eegpipe source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
IMPORT_PROBES = 3
DEADLINE_S = 170.0  # the whole run, set-up probes included


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def source_rev() -> dict:
    """The git commit when there is one, and a digest of the eegpipe sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "eegpipe")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def import_seconds(env: dict, deadline: float) -> float:
    """Wall time to start the interpreter and import the eegpipe CLI."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import eegpipe.cli"], env=env, check=True,
                   timeout=max(1.0, deadline - start))
    return time.monotonic() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "eegpipe", "cli.py")):
        print(f"error: no eegpipe source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()

    try:
        import_seconds(env, deadline)  # warm-up: compiles the bytecode once
        probes = [import_seconds(env, deadline) for _ in range(IMPORT_PROBES)]
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spawned-at", repr(spawned_at), "--work", work],
            env=env, cwd=ROOT, timeout=max(1.0, deadline - spawned_at),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        res = json.load(fh)

    import_samples = probes + [res["import_s"]]
    attempted, failed = res["attempted"], len(res["failures"])
    if args.trace:
        values = res["per_layer"]
    else:
        values = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(import_samples) + res["inputs_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        print(f"error: metrics {sorted(set(names) ^ set(values))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **source_rev(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, **res["env"],
        "import_samples": len(import_samples),
        "stage_s": res["stage_s"], "featurize_epochs_per_s": res["featurize_epochs_per_s"],
        "train_steps_per_s": res.get("train_steps_per_s"),
        "facts": res["facts"], "failures": res["failures"],
    }
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": values}, fh, indent=1)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
