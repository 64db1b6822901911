#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The binary is built (Release)
into .bench_build/perfbench and incrementally rebuilt on every call; the
arguments are passed through to it unchanged, and its output, whose last
line is the JSON result, is relayed as is.  Exits nonzero without a
result when the sources or the build are missing or broken.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr, so stdout stays the
    benchmark's own."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no subsonic sources beside perfbench/", file=sys.stderr)
        return False
    if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs]) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD, "perfbench")
    proc = subprocess.run([binary] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
