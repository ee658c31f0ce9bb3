#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which pulls in the library through the
repository's own CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs the perfbench executable with the same
arguments.  Build output goes to stderr, so the executable's last stdout
line -- the JSON result -- stays the last line.  Exits non-zero, printing
no result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build(source, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    try:
        exe = build(source, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    out_dir = os.path.join(os.path.dirname(build_dir), "perfbench-out")
    try:
        done = subprocess.run([exe, *sys.argv[1:], "--root", root, "--out", out_dir],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
