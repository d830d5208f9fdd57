#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same build.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workload plan_library ...]

For every workload it runs set A and set B alternately (A B A B ...),
run i of both sets at seed 1000 + i, and prints for each end-to-end
metric of BENCHMARK.json the median and quartiles of each set, the
spread (quartile distance over median) and the drift of B's median
against A's, each marked PASS/FAIL against the metric's bound. setup_s
is held to the drift bound only. The host reference loop each run
prints (host_ref_ms) is listed as a drift diagnostic; it is not gated
and normalizes nothing. Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    host = None
    for line in lines[:-1]:
        for field in line.split():
            if field.startswith("host_ref_ms="):
                host = float(field.split("=", 1)[1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return result["metrics"], host


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, base, other):
    """Share by which `other` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    ok = True
    for workload in args.workload or names:
        sets = {"A": [], "B": []}
        hosts = {"A": [], "B": []}
        for i in range(args.runs):
            for label in ("A", "B"):
                metrics, host = run_once(workload, 1000 + i, args.seconds, 0)
                sets[label].append(metrics)
                hosts[label].append(host)
                print(f"  {workload} {label}{i} "
                      f"wall_s={metrics['wall_s']['value']:.4f} "
                      f"host_ref_ms={host}", flush=True)
        print(f"\n{workload}: {args.runs} runs per set, "
              f"{args.seconds} s each")
        print(f"  {'metric':<22}{'A median':>14}{'A q1..q3':>24}"
              f"{'B median':>14}{'spread A/B':>16}{'drift':>9}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name]["value"] for m in sets["A"]]
            b = [m[name]["value"] for m in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            drift = worse_by(metric, qa[1], qb[1])
            spread_ok = name == "setup_s" or max(spread_a, spread_b) <= bound
            drift_ok = drift <= bound
            ok = ok and spread_ok and drift_ok
            print(f"  {name:<22}{qa[1]:>14.6g}"
                  f"{f'{qa[0]:.6g}..{qa[2]:.6g}':>24}{qb[1]:>14.6g}"
                  f"{f'{spread_a:.3f}/{spread_b:.3f}':>16}{drift:>+9.3f}  "
                  f"{'PASS' if spread_ok and drift_ok else 'FAIL'}"
                  f" (bound {bound})")
        ha = [h for h in hosts["A"] + hosts["B"] if h is not None]
        if len(ha) >= 2:
            q = quartiles(ha)
            print(f"  {'host_ref_ms':<22}{q[1]:>14.6g}"
                  f"{f'{q[0]:.6g}..{q[2]:.6g}':>24}  (diagnostic, not gated)")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
