#!/usr/bin/env python3
"""Round trip of the trace writer and its readers.

Runs an example binary that takes --trace (trace_demo, fault_storm) with the
given arguments plus a --trace path, then reads the Chrome trace it wrote
back through tools/trace/summarize_trace.py and checks that the summary
parses, counts events and lists the Lock-Step windows. With --telemetry the
binary also gets a --telemetry path, and tools/obs/telemetry_report.py must
summarize at least one window of the stream. A writer/reader drift fails
here. Run by CTest as:

    test_trace_summary.py [--telemetry] <binary> [binary args...]
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUMMARIZE = ROOT / "tools" / "trace" / "summarize_trace.py"
TELEMETRY_REPORT = ROOT / "tools" / "obs" / "telemetry_report.py"


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


def run_json(label, cmd):
    out = run(label, cmd)
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        fail(f"{label} output does not parse: {exc}\n{out}")


def main(argv):
    telemetry = argv[:1] == ["--telemetry"]
    if telemetry:
        argv = argv[1:]
    if not argv:
        fail(f"usage: {sys.argv[0]} [--telemetry] <binary> [binary args...]")
    binary, *extra = argv

    with tempfile.TemporaryDirectory() as td:
        trace = str(Path(td) / "run.trace.json")
        stream = str(Path(td) / "run.telemetry.jsonl")
        cmd = [binary, *extra, "--trace", trace]
        if telemetry:
            cmd += ["--telemetry", stream]
        run(Path(binary).name, cmd)
        summary = run_json("summarize_trace",
                           [sys.executable, str(SUMMARIZE), trace, "--json", "-"])
        if telemetry:
            report = run_json("telemetry_report",
                              [sys.executable, str(TELEMETRY_REPORT), stream, "--json", "-"])

    if not summary.get("event_count", 0) > 0:
        fail(f"event_count = {summary.get('event_count')}, expected > 0")
    windows = summary.get("windows")
    if not isinstance(windows, list) or not windows:
        fail(f"windows = {windows!r}, expected a non-empty list")
    print(
        f"trace summary OK: {summary['event_count']} events, "
        f"{len(windows)} reconfiguration windows"
    )
    if telemetry:
        if not report.get("windows", 0) > 0:
            fail(f"telemetry windows = {report.get('windows')}, expected > 0")
        print(f"telemetry OK: {report['windows']} windows")


if __name__ == "__main__":
    main(sys.argv[1:])
