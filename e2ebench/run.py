#!/usr/bin/env python3
"""Builds the e2ebench harness from this checkout's sources and runs it.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness is a CMake project in this directory that compiles ../src; the
build lives in .bench_build/e2ebench at the checkout root and is reused by
later runs (the first run configures and builds it). Everything after the
script name is passed to the harness; its standard output (host header,
operation accounting, then one JSON line) is passed through unchanged and
the build log goes to standard error. Exits non-zero when the sources are
missing, the build fails, or the harness reports a failure.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no Ramiel sources at %s/src" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        return 2
    sys.stdout.flush()
    harness = os.path.join(BUILD, "e2ebench")
    return subprocess.run([harness] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
