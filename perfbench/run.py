#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_library --seed 5 --seconds 45 --trace 0

Steps: check that every input file listed in perfbench/inputs.sha256
still has its pinned SHA-256, configure and build perfbench/ into
.bench_build/, then run the driver. Its stdout is passed through; the
last line is the JSON result. Exit codes: 0 ok, 2 usage or build error,
3 an input file changed or is missing, 4 the driver timed out.

    python3 perfbench/run.py --write-pins

rewrites the pin files from the current inputs and program: the hashes
of the listed inputs, and the digests of serve's report lines at seed 5
(perfbench/serve_reports.fnv). Only for a change that means to redefine
the workloads or their expected output.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PIN_FILE = os.path.join(BENCH_DIR, "inputs.sha256")
REPORT_PIN_FILE = os.path.join(BENCH_DIR, "serve_reports.fnv")
DRIVER = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_library", "plan_library")
# Whole-run budget: the driver must exit within 180 s of its start.
RUN_TIMEOUT_S = 170


def read_pins():
    """{path: sha256} for every input the driver reads (repo-relative)."""
    with open(PIN_FILE) as f:
        return dict(reversed(line.split()) for line in f if line.strip())


def sha256(path):
    with open(os.path.join(ROOT, path), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def write_pins():
    paths = sorted(read_pins())
    with open(PIN_FILE, "w") as f:
        for path in paths:
            f.write(f"{sha256(path)}  {path}\n")
    if not build():
        return 2
    done = subprocess.run([DRIVER, "--report-digests"], cwd=ROOT,
                          stdout=subprocess.PIPE)
    if done.returncode != 0:
        return 2
    with open(REPORT_PIN_FILE, "wb") as f:
        f.write(done.stdout)
    return 0


def pin_problems():
    problems = []
    try:
        pins = read_pins()
    except OSError as e:
        return [f"cannot read {PIN_FILE}: {e}"]
    for path, pinned in sorted(pins.items()):
        try:
            digest = sha256(path)
        except OSError:
            problems.append(f"{path}: missing")
            continue
        if digest != pinned:
            problems.append(f"{path}: contents differ from the pinned SHA-256")
    return problems


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {step[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()

    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    problems = pin_problems()
    if problems:
        print("perfbench: workload inputs changed; a change that redefines "
              "the workloads must re-pin them (run.py --write-pins):",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 3
    if not build():
        return 2

    start = time.monotonic()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s "
                  f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
