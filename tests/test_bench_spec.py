#!/usr/bin/env python3
"""Runs a committed workload spec at tiny scale and renders its tables.

Usage: test_bench_spec.py <bench/specs/<name>.json> <erapid_campaign binary>

Every overrides entry of the spec is shrunk to one episode of two packets
per phase, the campaign runs through tools/campaign/campaign.py -j2, and
every point must complete within its horizon. tools/campaign/render.py must
then exit 0 and print every panel of the workload layout. Exits non-zero
otherwise.
"""
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAMPAIGN = os.path.join(ROOT, "tools", "campaign", "campaign.py")
RENDER = os.path.join(ROOT, "tools", "campaign", "render.py")
PANELS = (
    "makespan (cycles to completion; horizon if incomplete)",
    "worst phase (cycles)",
    "accepted throughput (fraction of N_c over the makespan)",
    "active optical power (mW)",
)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path, binary = argv[1], argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for overrides in spec["overrides"]:
        overrides["workload.episodes"] = 1
        overrides["workload.volume_packets"] = 2
    with tempfile.TemporaryDirectory() as out:
        tiny_spec = os.path.join(out, "spec.json")
        with open(tiny_spec, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        subprocess.run([sys.executable, CAMPAIGN, tiny_spec, "--binary", binary, "-j2",
                        "--out-dir", out], check=True)
        artifact = os.path.join(out, f"CAMPAIGN_{spec['name']}.json")
        with open(artifact, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        render = subprocess.run([sys.executable, RENDER, artifact], capture_output=True,
                                text=True)
    incomplete = [p for p in points if p.get("completed") is not True]
    for p in incomplete:
        print(f"incomplete point: {p}", file=sys.stderr)
    if render.returncode != 0:
        print(f"render.py exited {render.returncode}: {render.stderr}", file=sys.stderr)
        return 1
    print(render.stdout)
    missing = [title for title in PANELS if f": {title} ==" not in render.stdout]
    for title in missing:
        print(f"render.py printed no panel '{title}'", file=sys.stderr)
    return 0 if points and not incomplete and not missing else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
