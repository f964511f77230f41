#!/usr/bin/env python3
"""The benchmark's own test.

    python3 corebench/selftest.py

Runs every workload of BENCHMARK.json in smoke mode (tiny inputs, two
seconds), untraced and traced, through corebench/run.py, and checks
that each run exits 0, passes its correctness checks, and prints as its
last line a result carrying exactly the BENCHMARK.json metric names of
its kind, each with the unit given there. Also checks that a bad
argument exits nonzero without printing a result. Exits 1 on failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "corebench", "run.py")]


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            label = "%s --trace %s" % (w["name"], trace)
            out = run(["--workload", w["name"], "--seed", "7", "--seconds", "2",
                       "--trace", trace, "--smoke"])
            if out.returncode != 0:
                errors.append("%s: exit %d\n%s" % (label, out.returncode,
                                                   out.stderr[-2000:]))
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s: result keys %s" % (label, sorted(res)))
            if res.get("correct") is not True or res.get("failed") != 0:
                errors.append("%s: correct=%s failed=%s" %
                              (label, res.get("correct"), res.get("failed")))
            if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
                errors.append("%s: attempted=%r" % (label, res.get("attempted")))
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if got != want:
                errors.append("%s: metrics differ from BENCHMARK.json %s: %s vs %s"
                              % (label, kind, sorted(got.items()),
                                 sorted(want.items())))
            print("ok  %s (%d metrics)" % (label, len(got)))
    bad = run(["--workload", "nope", "--seed", "1", "--seconds", "1",
               "--trace", "0"])
    if bad.returncode == 0 or bad.stdout.strip().endswith("}"):
        errors.append("unknown workload: exit %d, stdout %r" %
                      (bad.returncode, bad.stdout[-200:]))
    for e in errors:
        print("FAIL " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
