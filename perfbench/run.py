"""Benchmark of bdcomplex: end-to-end and per-layer metrics of two workloads.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a checkout; the package is imported from its src/.
This process starts the workload in a child process with a pinned
environment (PYTHONHASHSEED=0, BLAS threads 1, BDCOMPLEX_CACHE unset), reads
the child's peak RSS, and times a few separate set-up processes.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
WORKLOADS = ("compute", "sweep-batch")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BDCOMPLEX_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return t0, proc


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    env = child_env()
    common = ["--workload", workload, "--seed", str(seed)]
    _, proc = spawn(["--phase", "run", *common, "--seconds", str(seconds), "--trace", str(int(traced))], env)
    child = last_json(proc)
    metrics = child["metrics"]
    if not traced:
        # ru_maxrss of waited-for children: the largest process of the tree
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        setups = []
        for _ in range(SETUP_REPEATS):
            t0, proc = spawn(["--phase", "setup", *common], env)
            setups.append(last_json(proc)["ready"] - t0)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"# workload {workload} seed {seed} trace {int(traced)}: {child['env']}")
    for note in child["notes"]:
        print(f"# {note}")
    for err in child["errors"]:
        print(f"# CHECK FAILED: {err}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": not child["errors"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def child_main(args) -> int:
    """The workload process: set up, then measure (phase run) or stop (phase setup)."""
    import workloads

    if not workloads.package_location_ok():
        print("bdcomplex was not imported from this checkout's src/", file=sys.stderr)
        return 2
    w = workloads.setup(args.workload, args.seed)
    if args.phase == "setup":
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    run = workloads.Run()
    if args.trace:
        span_file = os.path.join(workloads.BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = workloads.measure_traced(w, run, args.seconds, span_file)
    else:
        metrics = workloads.measure(w, run, args.seconds)
    import numpy

    env = (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
           f"nproc {len(os.sched_getaffinity(0))}, timed at jobs 1, pooled at jobs {workloads.jobs()}")
    print(json.dumps({
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors, "notes": run.notes,
        "env": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "bdcomplex", "__init__.py")):
        print("run from the root of a bdcomplex checkout: src/bdcomplex is missing", file=sys.stderr)
        return 2
    if args.phase:
        return child_main(args)
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    # each workload and trace mode in a process of its own, so that the peak
    # RSS read from finished children covers that workload alone
    status = 0
    for workload in WORKLOADS:
        for traced in ("0", "1"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", traced]
            status |= subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
