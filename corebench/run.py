#!/usr/bin/env python3
"""Builds the corebench binary from this checkout and runs one workload.

    python3 corebench/run.py --workload maint-rmat|maint-ba|stream \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the root; temp files and the span dump of a trace
run go next to it. The binary prints human-readable rows and, as its
last line, the JSON result; this script adds nothing after it and exits
with the binary's exit code (2 if the build fails).
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "corebench")


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configures and builds incrementally. Returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "corebench",
              "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("corebench: build failed (log: %s)\n" % log_path)
                sys.exit(2)
    return os.path.join(build_dir, "corebench")


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "corebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["maint-rmat", "maint-ba", "stream"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (the self-test uses this)")
    args = p.parse_args()

    root = build_root()
    binary = build(os.path.join(root, "corebench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_id(),
           "--work-dir", os.path.join(root, "corebench-run")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
