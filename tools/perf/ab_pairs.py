#!/usr/bin/env python3
"""ab_pairs — A/B two built perfbench binaries in alternating-order pairs.

Usage:

    python3 tools/perf/ab_pairs.py --parent OLD/perfbench --change NEW/perfbench \\
        --workload allreduce_obs --seed 1 --seconds 3 --pairs 10

Each pair runs both binaries once on the same workload, seed, run length
and trace setting; even pairs run the parent first, odd pairs the change,
so drift on a shared host does not favour one side. Every run is one
process whose stdout ends with perfbench's JSON line
{"correct", "attempted", "failed", "metrics"}.

For every metric the report gives each side's median and quartiles, and
for a metric whose direction the benchmark spec gives (the `end_to_end`
and `per_layer` lists of BENCHMARK.json) the number of pairs the change won,
ties counting for neither side. A metric is marked as a gain when the
change won at least nine tenths of the pairs and the medians differ, in the
better direction, by more than the parent's quartile spread.

Exit status: 0 when every run reported `correct: true`; 1 when any run
reported `correct: false`, exited non-zero or printed no result; 2 on a
usage error. --json prints the whole comparison as one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GAIN_WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) of a non-empty list, inclusive method."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def directions(spec_path):
    """metric -> "higher" | "lower" from a BENCHMARK.json; {} if absent."""
    try:
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            if m.get("better") in ("higher", "lower"):
                out[m["name"]] = m["better"]
    return out


def run_once(binary, args):
    """One perfbench run; returns its parsed result line or raises RuntimeError."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workdir:
        cmd += ["--workdir", args.workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{binary} exited {proc.returncode} with no result")
    try:
        doc = json.loads(lines[-1])
    except ValueError as e:
        raise RuntimeError(f"{binary} printed no JSON result: {e}") from e
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise RuntimeError(f"{binary} printed a result without metrics")
    return doc


def compare(parent_runs, change_runs, better):
    """Per-metric summary rows over paired runs (same index = same pair)."""
    names = sorted(set().union(*(r["metrics"] for r in parent_runs + change_runs)))
    rows = []
    for name in names:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent_runs, change_runs)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        pq = quartiles([p for p, _ in pairs])
        cq = quartiles([c for _, c in pairs])
        row = {"metric": name, "pairs": len(pairs),
               "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
               "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
               "better": better.get(name), "change_wins": None, "gain": None}
        if row["better"] is not None:
            sign = 1.0 if row["better"] == "higher" else -1.0
            row["change_wins"] = sum(1 for p, c in pairs if sign * (c - p) > 0)
            moved = sign * (cq[1] - pq[1])
            row["gain"] = (row["change_wins"] >= GAIN_WIN_SHARE * len(pairs)
                           and moved > pq[2] - pq[0])
        rows.append(row)
    return rows


def fmt(v):
    return f"{v:.6g}"


def print_table(rows, args):
    print(f"ab_pairs: {args.workload} seed {args.seed}, {args.seconds} s per run, "
          f"trace {args.trace}, {args.pairs} pairs")
    print(f"{'metric':34} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} "
          f"{'wins':>7} gain")
    for r in rows:
        p, c = r["parent"], r["change"]
        side_p = f"{fmt(p['median'])} [{fmt(p['q1'])}, {fmt(p['q3'])}]"
        side_c = f"{fmt(c['median'])} [{fmt(c['q1'])}, {fmt(c['q3'])}]"
        wins = "-" if r["change_wins"] is None else f"{r['change_wins']}/{r['pairs']}"
        gain = "-" if r["gain"] is None else ("yes" if r["gain"] else "no")
        print(f"{r['metric']:34} {side_p:34} {side_c:34} {wins:>7} {gain}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="perfbench binary of the parent commit")
    ap.add_argument("--change", required=True, help="perfbench binary of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir", default="", help="passed to perfbench as --workdir")
    ap.add_argument("--spec", default=os.path.join(REPO_ROOT, "BENCHMARK.json"),
                    help="benchmark spec giving each metric's better direction")
    ap.add_argument("--json", action="store_true", help="print the comparison as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be positive")
    better = directions(args.spec)

    parent_runs, change_runs = [], []
    incorrect = 0
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                doc = run_once(args.parent if side == "parent" else args.change, args)
                if doc.get("correct") is not True:
                    incorrect += 1
                    print(f"ab_pairs: pair {i}: {side} reported correct: false",
                          file=sys.stderr)
                (parent_runs if side == "parent" else change_runs).append(doc)
    except (OSError, RuntimeError) as e:
        print(f"ab_pairs: {e}", file=sys.stderr)
        return 1

    rows = compare(parent_runs, change_runs, better)
    if args.json:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "pairs": args.pairs, "incorrect_runs": incorrect,
                          "metrics": rows}, indent=2))
    else:
        print_table(rows, args)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
