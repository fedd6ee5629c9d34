#!/usr/bin/env python3
"""Steadiness check: run one workload several times and report each
end-to-end metric's median, quartiles and spread next to its bound.

Run from the repository root:

    python3 perfbench/steady.py --workload apply --runs 10
    python3 perfbench/steady.py --workload paper-fig --runs 5 --first-seed 100

Each run uses its own seed (first-seed, first-seed+1, ...) and the run
length from BENCHMARK.json unless --seconds is given. The spread is the
distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, divided by the median.
A metric is steady when its spread is below a third of its bound;
setup_s is reported but its spread is not held to the bound. Each run's
standard error goes to perfbench/out/logs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    logdir = os.path.join("perfbench", "out", "logs")
    os.makedirs(logdir, exist_ok=True)

    values = {name: [] for name in bounds}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        log = os.path.join(logdir, f"{args.workload}-seed{seed}.log")
        with open(log, "w") as errf:
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=errf, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"run with seed {seed} exited {out.returncode}; see {log}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"run with seed {seed} failed its correctness checks; see {log}")
        shares.add(res["failed"] / res["attempted"])
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s; failed share per run: {sorted(shares)}")
    print(f"{'metric':<16} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, m in bounds.items():
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        if name == "setup_s":
            verdict = "not held to the bound"
        elif spread < m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO WIDE"
        print(f"{name:<16} {m['unit']:<10} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {m['bound']:>6}  {verdict}")


if __name__ == "__main__":
    main()
