#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 e2ebench/selftest.py

Runs the harness (through run.py, so it builds first) three times on short
runs and exits non-zero unless:
  * a clean run passes (exit 0, "correct": true, no failed operations);
  * a run with one bit flipped in one static-runtime output fails, with the
    bitwise-equality check named on stderr;
  * a run whose i8 static output is pushed to twice its relative-L2 bound
    fails, with the L2 check named on stderr.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, inject=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, capture_output=True, text=True)


def main():
    failures = []

    clean = run("squeezenet-serve-b4")
    result = json.loads(clean.stdout.strip().splitlines()[-1]) \
        if clean.returncode == 0 else None
    if not result or not result["correct"] or result["failed"] != 0:
        failures.append("clean run did not pass:\n" + clean.stderr[-2000:])

    for workload, inject, needle in [
            ("squeezenet-serve-b4", "flip-bit", "not bitwise equal"),
            ("squeezenet-b4-i8", "i8-error", "relative L2 error"),
            ("bert-b1-i8", "i8-error", "relative L2 error")]:
        p = run(workload, inject)
        if p.returncode == 0 or needle not in p.stderr:
            failures.append("%s --inject %s: exit %d, stderr:\n%s" %
                            (workload, inject, p.returncode, p.stderr[-2000:]))

    for f in failures:
        print("FAIL: " + f, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
