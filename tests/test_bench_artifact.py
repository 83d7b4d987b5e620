#!/usr/bin/env python3
"""Runs one sweep bench and checks its artifact against the committed one.

Usage: test_bench_artifact.py <bench binary> <committed BENCH_<slug>.json>

The bench writes BENCH_<slug>.json into a temporary directory
(ERAPID_BENCH_JSON); tools/obs/compare_runs.py --threshold-pct 0 must then
find every compared metric unchanged. Exits non-zero otherwise.
"""
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(ROOT, "tools", "obs", "compare_runs.py")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, committed = argv[1], argv[2]
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, ERAPID_BENCH_JSON=out)
        subprocess.run([bench], env=env, check=True, stdout=subprocess.DEVNULL)
        fresh = os.path.join(out, os.path.basename(committed))
        cmp = subprocess.run([sys.executable, COMPARE, "--threshold-pct", "0", "--json",
                              committed, fresh], capture_output=True, text=True)
    if cmp.returncode not in (0, 1):
        print(cmp.stderr, file=sys.stderr)
        return 1
    result = json.loads(cmp.stdout)
    changed = [c for c in result["comparisons"] if c["kind"] != "same"]
    for c in changed:
        print(f"{c['where']} {c['metric']}: {c['baseline']} -> {c['candidate']} "
              f"({c['kind']})", file=sys.stderr)
    print(f"{result['compared']} metrics compared, {len(changed)} changed")
    return 0 if result["compared"] > 0 and not changed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
