#!/usr/bin/env python3
"""Runs a committed sweep spec and renders its tables.

Usage: test_bench_spec.py <bench/specs/<name>.json> <erapid_campaign binary>
                          [--baseline <bench/data/CAMPAIGN_<name>.json>]

The spec runs through tools/campaign/campaign.py -j2; no point may fail.
tools/campaign/render.py must then exit 0 and print a table, and for a
workload spec (points that carry "completed") all four workload panels.

--baseline  tools/obs/compare_runs.py --threshold-pct 0 must find every
            compared metric of the fresh artifact equal to the committed one.

Exits non-zero when a check fails.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAMPAIGN = os.path.join(ROOT, "tools", "campaign", "campaign.py")
RENDER = os.path.join(ROOT, "tools", "campaign", "render.py")
COMPARE = os.path.join(ROOT, "tools", "obs", "compare_runs.py")
WORKLOAD_PANELS = (
    "makespan (cycles to completion; horizon if incomplete)",
    "worst phase (cycles)",
    "accepted throughput (fraction of N_c over the makespan)",
    "active optical power (mW)",
)


def compare(baseline, fresh):
    """Problems found by compare_runs.py --threshold-pct 0 (empty: equal)."""
    cmp = subprocess.run([sys.executable, COMPARE, "--threshold-pct", "0", "--json",
                          baseline, fresh], capture_output=True, text=True)
    if cmp.returncode not in (0, 1):
        return [f"compare_runs.py exited {cmp.returncode}: {cmp.stderr}"]
    result = json.loads(cmp.stdout)
    changed = [c for c in result["comparisons"] if c["kind"] != "same"]
    print(f"{result['compared']} metrics compared, {len(changed)} changed")
    if result["compared"] == 0:
        return ["compare_runs.py compared no metric"]
    return [f"{c['where']} {c['metric']}: {c['baseline']} -> {c['candidate']} ({c['kind']})"
            for c in changed]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spec")
    ap.add_argument("binary")
    ap.add_argument("--baseline")
    args = ap.parse_args(argv[1:])
    with open(args.spec, encoding="utf-8") as fh:
        name = json.load(fh)["name"]
    problems = []
    with tempfile.TemporaryDirectory() as out:
        run = subprocess.run([sys.executable, CAMPAIGN, args.spec, "--binary", args.binary,
                              "-j2", "--out-dir", out])
        if run.returncode != 0:
            problems.append(f"campaign.py exited {run.returncode}")
        artifact = os.path.join(out, f"CAMPAIGN_{name}.json")
        with open(artifact, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        render = subprocess.run([sys.executable, RENDER, artifact], capture_output=True,
                                text=True)
        if args.baseline:
            problems += compare(args.baseline, artifact)
    print(render.stdout)
    if not points:
        problems.append("the campaign has no point")
    if render.returncode != 0 or "\n== " not in render.stdout:
        problems.append(f"render.py exited {render.returncode}: {render.stderr}")
    if any("completed" in p for p in points):
        problems += [f"render.py printed no panel '{title}'" for title in WORKLOAD_PANELS
                     if f": {title} ==" not in render.stdout]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
