#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload gemm_cannon --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The library and the benchmark are built
with CMake into .bench_build/ (build output goes to stderr), then the
perfbench binary runs with the given arguments; its standard output, whose
last line is the JSON result, and its exit status are passed through.
Exits non-zero without a result when the library sources are missing.
--workload all runs every workload, each in its own process, and ends with
one table of all their metrics.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found next to perfbench/ "
             "(expected CMakeLists.txt and src/ in " + ROOT + ")")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def child_env():
    # The library reads DISTAL_* knobs (fault injection, memory budgets,
    # thread counts) from the environment; none may leak into a measured
    # run. The process pool is pinned to the 4 threads the workloads use.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DISTAL_")}
    env["DISTAL_NUM_THREADS"] = "4"
    return env


def run_all(args):
    """--workload all: every workload of BENCHMARK.json in its own process,
    then one table of every metric of every workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    i = args.index("all")
    status, rows = 0, []
    for name in names:
        done = subprocess.run([BINARY, *args[:i], name, *args[i + 1:]],
                              env=child_env(), timeout=RUN_TIMEOUT_S,
                              capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if done.returncode in (0, 1) and lines:
            result = json.loads(lines[-1])
            for metric, v in result["metrics"].items():
                rows.append((name, metric, v["value"], v["unit"]))
            rows.append((name, "failed / attempted",
                         "%d / %d" % (result["failed"], result["attempted"]),
                         ""))
    print("\n%-12s %-28s %16s %s" % ("workload", "metric", "value", "unit"))
    for name, metric, value, unit in rows:
        shown = value if isinstance(value, str) else "%.6g" % value
        print("%-12s %-28s %16s %s" % (name, metric, shown, unit))
    sys.exit(status)


def main():
    build()
    args = sys.argv[1:]
    if args.count("all") == 1 and args[args.index("all") - 1] == "--workload":
        run_all(args)
    try:
        done = subprocess.run([BINARY, *args], env=child_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
