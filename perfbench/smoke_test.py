#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny sizes, traced and not.

    python3 perfbench/smoke_test.py

Run from the root of a checkout (builds through run.py). Checks, per
workload: the run exits 0 with correct=true and failed=0; the result
prints exactly the metric names BENCHMARK.json lists, each with its unit;
the traced and untraced runs print the same output digest; a poisoned
output fails the request check and one evaluation restores it; the Chrome
trace file parses; and, on serve_mix, nothing coalesces or is rejected and
the PlanCache hit ratio over the timed windows is exactly 1. Also checks
that bad arguments exit non-zero without a result. Exit status 1 on any
failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        name = w["name"]
        digests = {}
        for trace in (0, 1):
            done = run(["--workload", name, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            label = "%s trace=%d" % (name, trace)
            lines = done.stdout.strip().splitlines()
            check(done.returncode == 0 and lines,
                  "%s exited %d: %s" % (label, done.returncode,
                                        done.stderr[-500:]))
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], label + " result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, label + " not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  "%s metrics differ from BENCHMARK.json: %s" % (label, got))
            digests[trace] = [l for l in lines
                              if l.startswith("output digest:")]
            selftest = [l.split() for l in lines
                        if l.startswith("check self-test:")]
            check(len(selftest) == 1 and selftest[0][2] == selftest[0][4]
                  == selftest[0][8], label + " poisoned-output self-test")
            if trace == 1:
                out = os.path.join(ROOT, ".bench_out",
                                   "%s-seed7.trace.json" % name)
                with open(out) as f:
                    events = json.load(f)["traceEvents"]
                check(events and all(e["ph"] == "X" for e in events),
                      label + " chrome trace")
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if name == "serve_mix":
                    check(m["admission.coalesced"] == 0
                          and m["admission.rejected"] == 0
                          and m["plancache.hit_ratio"] == 1.0,
                          label + " coalesced/rejected/hit ratio")
        check(digests.get(0) and digests.get(0) == digests.get(1),
              name + " traced and untraced digests differ")
    bad = run(["--workload", "no_such_workload", "--seed", "1",
               "--seconds", "1", "--trace", "0"])
    check(bad.returncode != 0 and "correct" not in bad.stdout,
          "unknown workload must fail without a result")
    print("smoke test: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
