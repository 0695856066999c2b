#!/usr/bin/env python3
"""Builds the sqlfacil benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. The workload runs in its own process with every
SQLFACIL_* variable removed from its environment, so the configuration it
prints is the whole configuration. Its last stdout line is the JSON result.
`--workload all` runs every workload in turn, each in its own process.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_session", "pipeline", "label_disk")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; serialized by a lock."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: sqlfacil sources (src/) not found next to perfbench/")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"run.py: build failed: {err}")
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args) for w in workloads)


def run_workload(workload, args):
    """Runs one workload in its own process; returns its exit code."""
    work_dir = os.path.join(BUILD_ROOT, "work", f"{workload}-{os.getpid()}")
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{workload}-seed{args.seed}.jsonl")]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SQLFACIL_")}
    sys.stdout.flush()
    child = subprocess.Popen(command, env=env, cwd=ROOT)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s; stopping it")
        code = 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
