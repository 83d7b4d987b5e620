#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over distinct seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads uniform_pb_sweep,complement_b16 \
        --runs 10 --seconds 20 [--first-seed 1] [--trace 0]

Runs perfbench/run.py once per seed and workload, serially, and prints for
each metric its median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}")
                return 1
            res = json.loads(lines[-1])
            ok = ok and res["correct"] and res["failed"] == 0
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != expected:
                print(f"{wl} seed {seed}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(expected.items()))}")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl}: {args.runs} runs, seeds {args.first_seed}..")
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            bound = bounds.get(name)
            print(f"  {name:28s} median={med:<14.6g} spread={spread:.4f}"
                  + (f" bound={bound}" if bound is not None else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
