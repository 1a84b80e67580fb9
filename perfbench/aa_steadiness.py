#!/usr/bin/env python3
"""A/A steadiness check: run the same benchmark twice per seed and compare.

    python3 perfbench/aa_steadiness.py [--workloads a,b] [--pairs 10]
                                       [--seconds 10]

Run from the root of a checkout. For each workload and each pair i, the
benchmark runs with seed i on side A and side B, alternating which side
runs first. Per end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4) and the spread (quartile distance
over the median), and flags:

  SPREAD  a side's spread exceeds the metric's bound,
  SHIFT   the two sides' medians differ by more than the bound,
  NOISY   a spread exceeds a third of the bound (the steadiness target).

It also checks that both sides of a pair print the same output digest.
Exit status 1 when any
SPREAD, SHIFT, digest mismatch or failed run was seen.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None, None
    digest = next((l.split()[-1] for l in lines
                   if l.startswith("output digest:")), None)
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None, digest
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bad = False
    for workload in args.workloads.split(","):
        sides = {"A": [], "B": []}
        for i in range(args.pairs):
            seed = i + 1
            order = ["B", "A"] if i % 2 else ["A", "B"]
            digests = set()
            for side in order:
                metrics, digest = run_once(workload, seed, args.seconds)
                if metrics is None:
                    print("%s seed %d side %s: run failed" %
                          (workload, seed, side))
                    bad = True
                    continue
                sides[side].append(metrics)
                digests.add(digest)
            if len(digests) > 1:
                print("%s seed %d: output digests differ between sides: %s" %
                      (workload, seed, sorted(digests)))
                bad = True
        print("\n%s: %d pairs, %d s per run" %
              (workload, args.pairs, args.seconds))
        print("  %-18s %4s %12s %12s %12s %8s %8s %7s" %
              ("metric", "side", "q1", "median", "q3", "spread", "shift",
               "bound"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for side, runs in sides.items():
                if len(runs) < 2:
                    continue
                q1, q2, q3, spread = summary([r[name] for r in runs])
                medians[side] = q2
                flags = []
                if spread > bound:
                    flags.append("SPREAD")
                    bad = True
                if spread > bound / 3:
                    flags.append("NOISY")
                shift = ""
                if side == "B" and medians.get("A"):
                    rel = abs(q2 - medians["A"]) / medians["A"]
                    shift = "%.4f" % rel
                    if rel > bound:
                        flags.append("SHIFT")
                        bad = True
                print("  %-18s %4s %12.6g %12.6g %12.6g %8.4f %8s %7.3f %s" %
                      (name, side, q1, q2, q3, spread, shift, bound,
                       " ".join(flags)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
