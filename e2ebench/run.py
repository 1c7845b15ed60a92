#!/usr/bin/env python3
"""Build and run the whole-request benchmark (see README.md).

    python3 e2ebench/run.py --workload ls|codegen|lib_update|all \
        [--seed N] [--seconds S] [--trace 0|1]

Configures and builds e2ebench/ (the simulator's sources plus the
e2e_bench binary) under $CARGO_TARGET_DIR, default .bench_build, relative
to the repository root, then runs one workload. The binary's last stdout
line is the JSON result {correct, attempted, failed, metrics}; this script
passes it through unchanged. `--workload all` runs every workload in turn
and prints each metric by name with its unit instead.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
WORKLOADS = ("ls", "codegen", "lib_update")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2ebench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT / 'src'}")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for a checkout at another path
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "e2e_bench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return out / "e2e_bench"


def run_one(binary, workload, seed, seconds, trace, out):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--waterfall", str(out / f"waterfall_{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S}s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exited {proc.returncode}")
        return None
    try:
        return lines[-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    if args.workload != "all":
        result = run_one(binary, args.workload, args.seed, args.seconds, args.trace, out)
        if result is None:
            return 1
        print(result[0])
        return 0

    status = 0
    for workload in WORKLOADS:
        result = run_one(binary, workload, args.seed, args.seconds, args.trace, out)
        if result is None:
            return 1
        report = result[1]
        print(f"{workload}: correct={report['correct']} attempted={report['attempted']} "
              f"failed={report['failed']}")
        for name, metric in report["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
        if not report["correct"] or report["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
