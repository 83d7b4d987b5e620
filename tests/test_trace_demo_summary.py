#!/usr/bin/env python3
"""Round trip of the trace writer and its reader.

Runs examples/trace_demo with per-event spans on, then reads the Chrome
trace it wrote back through tools/trace/summarize_trace.py and checks that
the summary parses, counts events and lists the Lock-Step windows. A
writer/reader drift fails here. Run by CTest as:

    test_trace_demo_summary.py <trace_demo-binary> <summarize_trace.py>
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(label, cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(
            f"{label} exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc.stdout


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <trace_demo-binary> <summarize_trace.py>")
    binary, summarizer = sys.argv[1], sys.argv[2]

    with tempfile.TemporaryDirectory() as td:
        trace = str(Path(td) / "demo.trace.json")
        run("trace_demo", [binary, "--events", "--trace", trace])
        out = run("summarize_trace", [sys.executable, summarizer, trace, "--json", "-"])

    try:
        summary = json.loads(out)
    except json.JSONDecodeError as exc:
        fail(f"summary does not parse: {exc}\n{out}")
    if not summary.get("event_count", 0) > 0:
        fail(f"event_count = {summary.get('event_count')}, expected > 0")
    windows = summary.get("windows")
    if not isinstance(windows, list) or not windows:
        fail(f"windows = {windows!r}, expected a non-empty list")

    print(
        f"trace_demo summary OK: {summary['event_count']} events, "
        f"{len(windows)} reconfiguration windows"
    )


if __name__ == "__main__":
    main()
